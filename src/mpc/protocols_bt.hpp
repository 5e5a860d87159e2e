// TrustDDL's Byzantine-tolerant ASS protocols (paper Algorithms 4-5)
// plus the fixed-point rescaling step the deep-learning layers need.
//
// All protocols are SPMD: every computing party calls the same
// function with its own context and share triples, and the calls
// communicate through ctx.endpoint.  The commitment phase, redundant
// reconstruction and decision rule live in open.hpp; these functions
// add the Beaver masking (SecMul/SecMatMul) and the sign extraction
// (SecComp) on top.
#pragma once

#include <optional>
#include <vector>

#include "mpc/beaver.hpp"
#include "mpc/context.hpp"
#include "mpc/open.hpp"
#include "numeric/conv.hpp"

namespace trustddl::mpc {

/// Elementwise product z = x ⊙ y (Algorithm 4).  Inputs and output are
/// raw ring values: fixed-point callers must rescale with
/// truncate_product afterwards.
PartyShare sec_mul_bt(PartyContext& ctx, const PartyShare& x,
                      const PartyShare& y, BeaverTripleShare triple);

/// Matrix product z = x × y (the SecMatMul-BT variant of Algorithm 4).
/// x is [m,k], y is [k,n], the triple must be dealt for (m,k,n).
PartyShare sec_matmul_bt(PartyContext& ctx, const PartyShare& x,
                         const PartyShare& y, BeaverTripleShare triple);

/// One party's material for one SecComp-BT (Algorithm 5).  The paper
/// deals the positive mask t as its own kCompAux entry (`t_aux`) beside
/// an independent kMul triple, and the parties open t − a to multiply t
/// by α = x − y.  A comparison triple (kCompTriple) deals t as
/// `triple.a` with c = t ⊙ b and leaves `t_aux` empty: only α − b
/// opens, and t never does.
struct ComparisonMaterial {
  std::optional<PartyShare> t_aux;
  BeaverTripleShare triple;
};

/// Keys of one comparison's material on `shape`, in fetch order: one
/// kCompTriple when `comp_triples`, else the paper's kCompAux and kMul.
std::vector<TripleKey> comparison_keys(const Shape& shape, bool comp_triples);

/// One comparison's material from entries fetched for comparison_keys,
/// starting at entries[*at]; advances *at past it.
ComparisonMaterial take_comparison(std::vector<MaterialEntry>& entries,
                                   std::size_t* at, bool comp_triples);

/// Elementwise comparison (Algorithm 5): returns sign(x - y) publicly
/// as a tensor with elements 1, 0 or 2^64-1 (i.e. -1 in the ring).
RingTensor sec_comp_bt(PartyContext& ctx, const PartyShare& x,
                       const PartyShare& y, ComparisonMaterial material);

/// sign(x) — comparison against zero without spending share material
/// on the zero operand.
RingTensor sec_sign_bt(PartyContext& ctx, const PartyShare& x,
                       ComparisonMaterial material);

/// 0/1 mask (raw ring values) from a sign tensor: 1 where sign is
/// positive.  Multiplying shares by this public mask implements ReLU
/// and its backward pass locally (paper §III-C).
RingTensor positive_mask(const RingTensor& signs);

/// How a double-precision (2f-bit) fixed-point product is rescaled
/// back to f fractional bits.
enum class TruncationMode {
  /// Shift every share locally (SecureML-style).  One round cheaper;
  /// each element is exact ±1 ulp except with probability
  /// ≈ 2^(ℓ+1-64) (ℓ = magnitude bits of the value), when it is off by
  /// a large multiple — the redundant reconstruction absorbs such
  /// glitches statistically.
  kLocal,
  /// Open the masked value v - r (r from a dealer truncation pair) and
  /// shift publicly: always exact ±1 ulp, costs one robust opening.
  /// Hides v statistically (r is 62-bit uniform; see DESIGN.md).
  kMaskedOpen,
};

/// Rescale a product share from 2f to f fractional bits using local
/// share truncation.
PartyShare truncate_product_local(const PartyShare& z, int frac_bits);

/// Rescale via masked opening; consumes one truncation pair.
PartyShare truncate_product_masked(PartyContext& ctx, const PartyShare& z,
                                   TruncPairShare pair);

// --- Deferred (prepare/finalize) variants -------------------------------
//
// Each `_prepare` call enqueues its opening(s) into an OpenBatch
// instead of blocking on a round trip; the returned Deferred handle
// resolves once the batch flushed every round the result depends on
// (`OpenBatch::flush_all`).  Data-independent calls prepared against
// the same batch therefore share opening rounds: their masked shares
// travel under ONE commitment/confirmation/exchange, and (for the
// chained variants) their follow-up openings share the next round.
// The eager functions above are thin wrappers: prepare + immediate
// flush, with identical traffic to the pre-scheduler code.
//
// The batch dispatches continuations in enqueue order at every party,
// so preprocessing material must be fetched at prepare time (as these
// functions' signatures force) to keep the SPMD request order aligned.
// Material is taken by value and moved into the continuation that
// reads it: callers that are done with it pass it with std::move.

/// Deferred SecMul-BT: resolves after one flush.
DeferredShare sec_mul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                 const PartyShare& y,
                                 BeaverTripleShare triple);

/// Deferred SecMatMul-BT: resolves after one flush.
DeferredShare sec_matmul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                    const PartyShare& y,
                                    BeaverTripleShare triple);

/// Deferred SecComp-BT: the Beaver-mask opening rides the first flush,
/// the β = t⊙(x−y) opening the second; resolves after two flushes.
DeferredTensor sec_comp_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   const PartyShare& y,
                                   ComparisonMaterial material);

/// Continuation-style SecComp-BT for protocols built on top of the
/// revealed comparison (robust aggregation, tournaments): `on_signs`
/// runs inside the β flush's dispatch, so it may enqueue follow-up
/// openings against the same batch (they land in the NEXT flush).
/// Round structure is identical to sec_comp_bt_prepare, which is a
/// thin wrapper over this.
void sec_comp_bt_prepare_on(OpenBatch& batch, const PartyShare& x,
                            const PartyShare& y, ComparisonMaterial material,
                            std::function<void(RingTensor)> on_signs);

/// Deferred sign(x); same round structure as sec_comp_bt_prepare.
DeferredTensor sec_sign_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   ComparisonMaterial material);

/// Deferred masked-open rescale: resolves after one flush.
DeferredShare truncate_product_masked_prepare(OpenBatch& batch,
                                              const PartyShare& z,
                                              TruncPairShare pair);

/// Deferred SecMatMul-BT fused with the fixed-point rescale.  With
/// kLocal truncation the product is shifted share-locally as soon as
/// the Beaver masks open (one flush); with kMaskedOpen the truncation
/// opening is enqueued from the matmul's continuation, so the
/// truncations of every matmul prepared against the same batch share
/// the SECOND flush (`pair` must be set, dealt for the product shape).
/// frac_bits is taken from the batch's context.
DeferredShare sec_matmul_bt_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& y,
    BeaverTripleShare triple, TruncationMode trunc_mode,
    std::optional<TruncPairShare> pair);

// --- Reusable weight masks ----------------------------------------------
//
// Algorithm 4 opens f = W − B for every product, a mask the size of the
// whole weight matrix.  When W stays fixed across products (serving, or
// the forward and backward passes of one SGD step) the dealer can bind
// one B to W instead: every triple (a, c = a×B) shares it, the first
// product opens f alongside its own e, and later products open only
// e = x − a.  Reopening the same f reveals nothing new; a new weight
// value needs a new B (DESIGN.md §"Reusable masks").

/// One party's view of the reusable mask B of one fixed weight W.
/// Copies share the opened f.
struct WeightMask {
  std::shared_ptr<const PartyShare> b;  ///< this party's shares of B
  DeferredTensor f;                     ///< public W − B once opened
  bool f_requested = false;  ///< a product already enqueued f's opening

  bool armed() const { return b != nullptr; }
};

/// Deferred x×W, or x×Wᵀ when `transposed`, fused with the rescale as
/// in sec_matmul_bt_rescaled_prepare.  `triple` is a masked-matmul entry
/// for `mask`'s B: a matches x, c = a×B (a×Bᵀ when transposed), b is
/// unused.  The first product against `mask` opens f = W − B in the
/// same round as its e, so reuse adds no round.
DeferredShare sec_matmul_masked_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& weight,
    WeightMask& mask, BeaverTripleShare triple, bool transposed,
    TruncationMode trunc_mode, std::optional<TruncPairShare> pair);

/// Deferred convolution W×im2col(x) against the reusable mask of the
/// conv weight W ([out_channels, C·kh·kw]), fused with the rescale as
/// above.  `triple` is a masked-conv entry for `mask`'s B: a is a mask
/// a_x shaped like x ([batch, C·H·W]) and c = B×im2col(a_x).  Only
/// e = x − a_x opens (plus f on the version's first product); im2col
/// is linear, so the parties expand im2col(e) and their shares of
/// im2col(a_x) locally.  The result is [out_channels, batch·P].
DeferredShare sec_conv_masked_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& weight,
    WeightMask& mask, BeaverTripleShare triple, const ConvSpec& conv,
    TruncationMode trunc_mode, std::optional<TruncPairShare> pair);

}  // namespace trustddl::mpc
