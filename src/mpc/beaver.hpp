// Beaver triples and the auxiliary preprocessing material TrustDDL's
// model owner deals to the computing parties (paper §II and §III-A:
// the model owner "is responsible for creating and distributing shares
// for ... auxiliary values (e.g., Beaver triples and auxiliary
// positive numbers)").
//
// The paper's per-product material:
//  * multiplication triples  (a, b, c = a·b or a×b), replicated-shared
//  * comparison auxiliaries  t with positive entries (SecComp masks
//    x−y multiplicatively, preserving the sign)
//  * truncation pairs        (r, ⌊r/2^f⌋) for the exact masked-open
//    fixed-point rescale (see protocols_bt.hpp for the two truncation
//    strategies)
//
// Reusable masks (DESIGN.md §"Reusable masks"), so that each masked
// value is opened once:
//  * weight masks            shares of one Beaver mask B per (dense or
//    conv layer, weight version); W − B opens once per version
//  * masked matmuls          (a, c = a×B or a×Bᵀ) bound to a dense
//    layer's B, so a product opens only its own e = x − a
//  * masked convolutions     (a_x, C = B×im2col(a_x)) bound to a conv
//    layer's B, with a_x shaped like the raw input: the product opens
//    x − a_x, not its im2col expansion
//  * comparison triples      (t, b, c = t ⊙ b) with t as the comparison
//    auxiliary draws it, so SecComp-BT never opens t − a
//
// Material is organized into *streams*: one FIFO sequence per
// (kind, dims) shape class, addressed by a `TripleKey` and an entry
// index.  Entry i of a stream is generated from a seed derived from
// (master seed, key, i) alone — never from arrival order — so any
// backend (the in-process DealerBackend, the networked owner service)
// regenerates the same entry at any time.  That makes dealing ahead
// and persistence pure optimizations: restarts and request-interleaving
// differences between parties cannot change what a party receives for
// a given (key, index).  Every party draws its entries through one
// mpc::TripleStore (triple_store.hpp), which keeps each stream's
// cursor.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpc/sharing.hpp"
#include "numeric/conv.hpp"

namespace trustddl::mpc {

/// One party's replicated shares of a Beaver triple.
struct BeaverTripleShare {
  PartyShare a;
  PartyShare b;
  PartyShare c;
};

/// One party's shares of a truncation pair (r, ⌊r/2^f⌋); r is uniform
/// in [0, 2^62) so the masked difference never wraps.
struct TruncPairShare {
  PartyShare r;
  PartyShare r_shifted;
};

/// Dealer-side generation (trusted model-owner role).  Each function
/// returns the three per-party share views.
std::array<BeaverTripleShare, kNumParties> deal_mul_triple(const Shape& shape,
                                                           Rng& rng);
std::array<BeaverTripleShare, kNumParties> deal_matmul_triple(std::size_t m,
                                                              std::size_t k,
                                                              std::size_t n,
                                                              Rng& rng);
/// Positive auxiliary values, fixed-point encoded in [0.5, 2).
std::array<PartyShare, kNumParties> deal_positive_aux(const Shape& shape,
                                                      int frac_bits, Rng& rng);
/// Comparison triple (t, b, c = t ⊙ b): t drawn as deal_positive_aux
/// draws it, b uniform; returned as the triple's (a, b, c).
std::array<BeaverTripleShare, kNumParties> deal_comp_triple(
    const Shape& shape, int frac_bits, Rng& rng);
std::array<TruncPairShare, kNumParties> deal_trunc_pair(const Shape& shape,
                                                        int frac_bits,
                                                        Rng& rng);

// --- Material streams -----------------------------------------------

/// The kinds of dealt material.  Values are wire/persistence format —
/// append only, never renumber.
enum class TripleKind : std::uint8_t {
  kMul = 0,
  kMatMul = 1,
  kCompAux = 2,
  kTruncPair = 3,
  /// Shares of the reusable mask B of one dense or conv layer's weight
  /// version.
  kWeightMask = 4,
  /// A fresh a with c = a×B (or a×Bᵀ) against a kWeightMask's B; the
  /// entry carries no b (the party holds B's shares already).
  kMaskedMatMul = 5,
  /// A fresh input mask a_x with c = B×im2col(a_x) against a conv
  /// layer's kWeightMask B; carried as the triple's a and c, no b.
  kMaskedConv = 6,
  /// A comparison triple (t, b, c = t ⊙ b) with positive t, carried as
  /// the triple's (a, b, c).
  kCompTriple = 7,
};

/// Most dims any key carries (a masked-conv key's); decoders bound a
/// key's rank by it before reading the dims.
inline constexpr std::size_t kMaxKeyDims = 11;

/// Stable lowercase name for metrics/logs ("mul", "matmul",
/// "comp_aux", "trunc_pair", "weight_mask", "masked_matmul",
/// "masked_conv", "comp_triple").
const char* triple_kind_name(TripleKind kind);

/// Identity of one material stream.  `dims` per kind:
///   kMul / kCompAux / kTruncPair   the tensor shape
///   kCompTriple                    the tensor shape, rank 1 or 2
///   kMatMul                        {m, k, n}
///   kWeightMask                    {layer, version, rows, cols} of W
///   kMaskedMatMul                  {layer, version, transposed, m, k, n}
///   kMaskedConv                    {layer, version, batch, in_channels,
///                                   in_height, in_width, out_channels,
///                                   kernel_h, kernel_w, pad, stride}
/// A masked-matmul entry multiplies an [m, k] mask a by B ([k, n]) or,
/// when transposed, by Bᵀ (B is [n, k]).  A masked-conv entry carries
/// the geometry because the dealer forms im2col(a_x) without the model;
/// its B is the [out_channels, in_channels·kh·kw] mask of the layer.
struct TripleKey {
  TripleKind kind = TripleKind::kMul;
  Shape dims;

  bool operator==(const TripleKey& other) const {
    return kind == other.kind && dims == other.dims;
  }

  static TripleKey mul(const Shape& shape) {
    return TripleKey{TripleKind::kMul, shape};
  }
  static TripleKey matmul(std::size_t m, std::size_t k, std::size_t n) {
    return TripleKey{TripleKind::kMatMul, Shape{m, k, n}};
  }
  static TripleKey comp_aux(const Shape& shape) {
    return TripleKey{TripleKind::kCompAux, shape};
  }
  static TripleKey trunc_pair(const Shape& shape) {
    return TripleKey{TripleKind::kTruncPair, shape};
  }
  static TripleKey weight_mask(std::size_t layer, std::uint64_t version,
                               std::size_t in, std::size_t out) {
    return TripleKey{TripleKind::kWeightMask, Shape{layer, version, in, out}};
  }
  static TripleKey masked_matmul(std::size_t layer, std::uint64_t version,
                                 bool transposed, std::size_t m,
                                 std::size_t k, std::size_t n) {
    return TripleKey{TripleKind::kMaskedMatMul,
                     Shape{layer, version, transposed ? 1u : 0u, m, k, n}};
  }
  static TripleKey masked_conv(std::size_t layer, std::uint64_t version,
                               std::size_t batch, const ConvSpec& conv) {
    return TripleKey{
        TripleKind::kMaskedConv,
        Shape{layer, version, batch, conv.in_channels, conv.in_height,
              conv.in_width, conv.out_channels, conv.kernel_h, conv.kernel_w,
              conv.pad, conv.stride}};
  }
  static TripleKey comp_triple(const Shape& shape) {
    return TripleKey{TripleKind::kCompTriple, shape};
  }

  /// Streams whose key names a weight version.  They are finite — a
  /// version's entries are never needed again once the weights moved
  /// on — so stores retire them once drained.
  bool versioned() const {
    return kind == TripleKind::kWeightMask ||
           kind == TripleKind::kMaskedMatMul ||
           kind == TripleKind::kMaskedConv;
  }
};

struct TripleKeyHash {
  std::size_t operator()(const TripleKey& key) const;
};

/// Dealing cost of one entry of `key`: the product of its value dims
/// (the tensor shape, {m, k, n}, or {in, out}; layer, version and the
/// transposed flag do not count, zero dims count as 1), saturating at
/// SIZE_MAX instead of wrapping.  A masked-conv entry costs its input
/// mask plus out_channels × its im2col size, zero dims again counting
/// as 1, so no tensor dealing sizes exceeds the cost.  Throws
/// SerializationError when the key is malformed for its kind: unknown
/// kind, wrong dims arity, a transposed flag other than 0/1, a
/// comparison shape of rank 0 or above 2, or a conv geometry with a
/// zero stride, a kernel larger than the padded input or an input or
/// im2col size past SIZE_MAX.
std::size_t material_cost(const TripleKey& key);

/// Seed of entry `index` of stream `key` under `master_seed`
/// (splitmix-style mixing).  The whole offline/online split rests on
/// this being a pure function of its arguments.
std::uint64_t derive_material_seed(std::uint64_t master_seed,
                                   const TripleKey& key, std::uint64_t index);

/// The reusable mask B ([in, out]) of weight version `version` of
/// layer `layer`.  Its generator is seeded under its own domain
/// tag, never by an entry seed: B must not share randomness with the
/// entries that secret-share it, or one share component would equal B.
RingTensor weight_mask_value(std::uint64_t master_seed, std::size_t layer,
                             std::uint64_t version, std::size_t in,
                             std::size_t out);

/// One party's view of one entry of a material stream; exactly one
/// member is meaningful, selected by the stream key's kind.
struct MaterialEntry {
  /// kMul / kMatMul / kCompTriple; kMaskedMatMul / kMaskedConv (no b)
  BeaverTripleShare triple;
  PartyShare share;          ///< kCompAux / kWeightMask
  TruncPairShare pair;       ///< kTruncPair
};

/// One party's view of a contiguous range of a material stream.
using MaterialBatch = std::vector<MaterialEntry>;

/// All three parties' views of entries [start, start+count) of stream
/// `key`.  Deterministic in (key, start, count, master_seed,
/// frac_bits); requesting overlapping ranges yields overlapping
/// entries bit for bit.
std::array<MaterialBatch, kNumParties> deal_material(const TripleKey& key,
                                                     std::uint64_t start,
                                                     std::size_t count,
                                                     std::uint64_t master_seed,
                                                     int frac_bits);

/// Values in one share component of an entry of `key`: the sizes of
/// the tensors dealt for it, summed (a, b and c of a triple; r and
/// ⌊r/2^f⌋ of a pair; a_x and C of a masked convolution), saturating
/// at SIZE_MAX.  A party receives three components of 8-byte values
/// per entry.  Validates `key` as material_cost does.
std::size_t material_values(const TripleKey& key);

/// Entries [start, start + count) of stream `key`.
struct FillRange {
  TripleKey key;
  std::uint64_t start = 0;
  std::size_t count = 0;
};

/// A fill that was sent and not received yet.
struct FillTicket {
  FillRange range;
  std::uint64_t id = 0;  ///< the backend's handle on the reply
};

/// Range access to one party's material streams: where a TripleStore
/// fetches what it does not hold.  A fill is split in two, so a store
/// can request material long before it consumes it: send_fill issues
/// the request and returns at once, receive_fill awaits its entries.
/// The networked owner link (core::OwnerLink) and the in-process
/// DealerBackend implement it.  One thread uses a backend.
class TripleBackend {
 public:
  virtual ~TripleBackend() = default;

  /// Request entries [start, start+count) of range.key; the dealer may
  /// deal them while the caller computes.
  virtual FillTicket send_fill(const FillRange& range) = 0;

  /// The entries of a ticket send_fill returned, awaited if they have
  /// not arrived.  Each ticket is received once, in any order.
  virtual MaterialBatch receive_fill(const FillTicket& ticket) = 0;

  /// Entries [start, start+count) of `key`, in one round trip.
  MaterialBatch fill(const TripleKey& key, std::uint64_t start,
                     std::size_t count);
};

/// In-process TripleBackend for one party: derives every entry
/// locally from the master seed (the same derivation the owner
/// service uses, so in-process and networked supplies agree), dealing
/// when a range is sent.  Three parties' stores over DealerBackends of
/// one seed stand in for the model owner in protocol tests,
/// micro-benches and the quickstart.
class DealerBackend final : public TripleBackend {
 public:
  DealerBackend(std::uint64_t master_seed, int frac_bits, int party)
      : master_seed_(master_seed), frac_bits_(frac_bits), party_(party) {}

  FillTicket send_fill(const FillRange& range) override;
  MaterialBatch receive_fill(const FillTicket& ticket) override;

 private:
  std::uint64_t master_seed_;
  int frac_bits_;
  int party_;
  std::uint64_t next_id_ = 0;
  std::unordered_map<std::uint64_t, MaterialBatch> dealt_;
};

}  // namespace trustddl::mpc
