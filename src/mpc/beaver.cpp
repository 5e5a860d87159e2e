#include "mpc/beaver.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "mpc/share_serde.hpp"
#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"

namespace trustddl::mpc {
namespace {

RingTensor random_ring_tensor(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

/// Positive fixed-point values in [0.5, 2), drawn one per element.
RingTensor positive_ring_tensor(const Shape& shape, int frac_bits, Rng& rng) {
  RingTensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = fx::encode(rng.next_double(0.5, 2.0), frac_bits);
  }
  return t;
}

/// a × b, or std::nullopt when it overflows std::size_t.
std::optional<std::size_t> checked_mul(std::size_t a, std::size_t b) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    return std::nullopt;
  }
  return a * b;
}

/// a × b, saturating at SIZE_MAX.
std::size_t saturating_mul(std::size_t a, std::size_t b) {
  return checked_mul(a, b).value_or(std::numeric_limits<std::size_t>::max());
}

/// The geometry a masked-conv key carries (dims 3..10).
ConvSpec conv_of(const TripleKey& key) {
  const auto& d = key.dims;
  ConvSpec conv;
  conv.in_channels = d[3];
  conv.in_height = d[4];
  conv.in_width = d[5];
  conv.out_channels = d[6];
  conv.kernel_h = d[7];
  conv.kernel_w = d[8];
  conv.pad = d[9];
  conv.stride = d[10];
  return conv;
}

/// Dealing cost of a masked-conv entry: the input mask plus
/// out_channels × the im2col size, with every zero dim counted as 1 so
/// each tensor dealing sizes (a_x, B, im2col(a_x) and C) stays within
/// the cost.  Throws on a geometry im2col cannot expand.
std::size_t masked_conv_cost(const TripleKey& key) {
  if (key.dims.size() != kMaxKeyDims) {
    throw SerializationError(
        "masked-conv key needs dims {layer, version, batch, in_channels, "
        "in_height, in_width, out_channels, kernel_h, kernel_w, pad, "
        "stride}");
  }
  const ConvSpec conv = conv_of(key);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  if (conv.stride == 0) {
    throw SerializationError("masked-conv key has a zero stride");
  }
  if (conv.pad > (max - std::max(conv.in_height, conv.in_width)) / 2) {
    throw SerializationError("masked-conv key's padded input overflows");
  }
  if (conv.kernel_h > conv.in_height + 2 * conv.pad ||
      conv.kernel_w > conv.in_width + 2 * conv.pad) {
    throw SerializationError(
        "masked-conv key has a kernel larger than the padded input");
  }
  const auto product = [](std::initializer_list<std::size_t> factors) {
    std::optional<std::size_t> out = 1;
    for (std::size_t factor : factors) {
      out = out ? checked_mul(*out, std::max<std::size_t>(factor, 1))
                : std::nullopt;
    }
    return out;
  };
  const std::size_t batch = key.dims[2];
  const std::optional<std::size_t> input = product(
      {batch, conv.in_channels, conv.in_height, conv.in_width});
  const std::optional<std::size_t> columns =
      product({conv.in_channels, conv.kernel_h, conv.kernel_w, batch,
               conv.out_height(), conv.out_width()});
  if (!input || !columns) {
    throw SerializationError("masked-conv key's input or im2col size "
                             "overflows");
  }
  // out_channels × columns bounds B ([out_channels, C·kh·kw]) and C
  // ([out_channels, batch·outH·outW]) as well as the product itself.
  const std::size_t c_cost =
      saturating_mul(std::max<std::size_t>(conv.out_channels, 1), *columns);
  return *input > max - c_cost ? max : *input + c_cost;
}

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shapes of the secrets one entry of a validated `key` shares, in the
/// order its layout carries them (see read_material_entry).
std::vector<Shape> entry_shapes(const TripleKey& key) {
  const auto& d = key.dims;
  switch (key.kind) {
    case TripleKind::kMul:
    case TripleKind::kCompTriple:
      return {d, d, d};
    case TripleKind::kCompAux:
      return {d};
    case TripleKind::kTruncPair:
      return {d, d};
    case TripleKind::kMatMul:
      return {Shape{d[0], d[1]}, Shape{d[1], d[2]}, Shape{d[0], d[2]}};
    case TripleKind::kWeightMask:
      return {Shape{d[2], d[3]}};
    case TripleKind::kMaskedMatMul:
      return {Shape{d[3], d[4]}, Shape{d[3], d[5]}};
    case TripleKind::kMaskedConv: {
      const ConvSpec conv = conv_of(key);
      return {Shape{d[2], conv.in_channels * conv.in_height * conv.in_width},
              Shape{conv.out_channels, d[2] * conv.col_cols()}};
    }
  }
  return {};
}

std::size_t saturating_add(std::size_t a, std::size_t b) {
  return a > std::numeric_limits<std::size_t>::max() - b
             ? std::numeric_limits<std::size_t>::max()
             : a + b;
}

/// Elements of a tensor of `shape`, saturating at SIZE_MAX.
std::size_t saturating_size(const Shape& shape) {
  std::size_t out = shape.empty() ? 0 : 1;
  for (std::size_t dim : shape) {
    out = saturating_mul(out, dim);
  }
  return out;
}

}  // namespace

const char* triple_kind_name(TripleKind kind) {
  switch (kind) {
    case TripleKind::kMul:
      return "mul";
    case TripleKind::kMatMul:
      return "matmul";
    case TripleKind::kCompAux:
      return "comp_aux";
    case TripleKind::kTruncPair:
      return "trunc_pair";
    case TripleKind::kWeightMask:
      return "weight_mask";
    case TripleKind::kMaskedMatMul:
      return "masked_matmul";
    case TripleKind::kMaskedConv:
      return "masked_conv";
    case TripleKind::kCompTriple:
      return "comp_triple";
  }
  return "unknown";
}

std::size_t TripleKeyHash::operator()(const TripleKey& key) const {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(key.kind) + 1);
  for (std::size_t dim : key.dims) {
    h = mix64(h ^ static_cast<std::uint64_t>(dim));
  }
  return static_cast<std::size_t>(h);
}

std::size_t material_cost(const TripleKey& key) {
  std::size_t value_dims_from = 0;
  switch (key.kind) {
    case TripleKind::kMul:
    case TripleKind::kCompAux:
    case TripleKind::kTruncPair:
      break;
    case TripleKind::kMatMul:
      if (key.dims.size() != 3) {
        throw SerializationError("matmul key needs dims {m, k, n}");
      }
      break;
    case TripleKind::kWeightMask:
      if (key.dims.size() != 4) {
        throw SerializationError(
            "weight-mask key needs dims {layer, version, in, out}");
      }
      value_dims_from = 2;
      break;
    case TripleKind::kMaskedMatMul:
      if (key.dims.size() != 6) {
        throw SerializationError(
            "masked-matmul key needs dims {layer, version, transposed, m, "
            "k, n}");
      }
      if (key.dims[2] > 1) {
        throw SerializationError("masked-matmul transposed flag not 0/1");
      }
      value_dims_from = 3;
      break;
    case TripleKind::kMaskedConv:
      return masked_conv_cost(key);
    case TripleKind::kCompTriple:
      if (key.dims.empty() || key.dims.size() > 2) {
        throw SerializationError(
            "comparison-triple key needs a rank-1 or rank-2 shape");
      }
      break;
    default:
      throw SerializationError("unknown material kind");
  }
  std::size_t cost = 1;
  for (std::size_t i = value_dims_from; i < key.dims.size(); ++i) {
    cost = saturating_mul(cost, std::max<std::size_t>(key.dims[i], 1));
  }
  return cost;
}

std::size_t material_values(const TripleKey& key) {
  (void)material_cost(key);  // validates the key's arity and geometry
  std::size_t values = 0;
  for (const Shape& shape : entry_shapes(key)) {
    values = saturating_add(values, saturating_size(shape));
  }
  return values;
}

std::uint64_t derive_material_seed(std::uint64_t master_seed,
                                   const TripleKey& key, std::uint64_t index) {
  std::uint64_t h = mix64(master_seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(key.kind) + 0x51ULL));
  h = mix64(h ^ static_cast<std::uint64_t>(key.dims.size()));
  for (std::size_t dim : key.dims) {
    h = mix64(h ^ static_cast<std::uint64_t>(dim));
  }
  return mix64(h ^ index);
}

RingTensor weight_mask_value(std::uint64_t master_seed, std::size_t layer,
                             std::uint64_t version, std::size_t in,
                             std::size_t out) {
  // Domain tag "wmaskval": entry seeds start from mix64(master_seed)
  // alone, so this chain never meets one.
  std::uint64_t h = mix64(master_seed ^ 0x776d61736b76616cULL);
  for (std::uint64_t word : {std::uint64_t{layer}, version,
                             std::uint64_t{in}, std::uint64_t{out}}) {
    h = mix64(h ^ word);
  }
  Rng rng(h);
  return random_ring_tensor(Shape{in, out}, rng);
}

namespace {

/// Little-endian store of the low `bytes` bytes of `value`.
void store_le(std::uint8_t* out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// One ring value at an unaligned position, as write_u64 encodes it.
void store_word(std::uint8_t* out, std::uint64_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &value, 8);
  } else {
    store_le(out, value, 8);
  }
}

/// Bytes one party's view of one entry of `key` encodes to: three
/// tensors (rank, dims, values) per secret, saturating at SIZE_MAX.
std::size_t material_entry_bytes(const TripleKey& key) {
  (void)material_cost(key);  // validates the key's arity and geometry
  std::size_t words = 0;
  for (const Shape& shape : entry_shapes(key)) {
    words = saturating_add(
        words, saturating_add(1 + shape.size(), saturating_size(shape)));
  }
  return saturating_mul(3 * 8, words);
}

/// What every entry of a stream shares: a versioned stream's mask B
/// (transposed for a transposed masked matmul) and a masked conv's
/// geometry.
struct DealingContext {
  RingTensor mask;
  ConvSpec conv;
};

DealingContext dealing_context(const TripleKey& key,
                               std::uint64_t master_seed) {
  const auto& d = key.dims;
  DealingContext context;
  if (key.kind == TripleKind::kWeightMask) {
    context.mask = weight_mask_value(master_seed, d[0], d[1], d[2], d[3]);
  } else if (key.kind == TripleKind::kMaskedConv) {
    context.conv = conv_of(key);
    context.mask = weight_mask_value(master_seed, d[0], d[1],
                                     context.conv.out_channels,
                                     context.conv.col_rows());
  } else if (key.kind == TripleKind::kMaskedMatMul) {
    const bool transposed = d[2] == 1;
    context.mask = weight_mask_value(master_seed, d[0], d[1],
                                     transposed ? d[5] : d[4],
                                     transposed ? d[4] : d[5]);
    if (transposed) {
      context.mask = transpose(context.mask);
    }
  }
  return context;
}

/// Three parties' buffers that dealt secrets are shared straight into:
/// each party's components land at its cursor in the layout
/// read_party_share reads, so no share is formed anywhere else.
class ShareWriter {
 public:
  /// Buffers of `size` bytes each, written from `offset` on.
  ShareWriter(std::size_t size, std::size_t offset) {
    for (std::size_t p = 0; p < kNumParties; ++p) {
      buffers_[p].resize(size);
      cursors_[p] = buffers_[p].data() + offset;
    }
  }

  /// Shares `secret` as create_replicated does: per set j = 0..2,
  /// share 1 drawn from `rng` and share 2 = secret − share 1.  Share 1
  /// of set j is the primary of holder_of_primary(j) and the duplicate
  /// of holder_of_duplicate(j); share 2 is the second of
  /// holder_of_second(j).
  void share(const RingTensor& secret, Rng& rng) {
    const std::size_t n = secret.size();
    // values[p][c]: party p's component c (primary, duplicate, second).
    std::array<std::array<std::uint8_t*, 3>, kNumParties> values{};
    for (std::size_t p = 0; p < kNumParties; ++p) {
      for (std::uint8_t*& component : values[p]) {
        component = write_header(p, secret.shape());
        cursors_[p] += 8 * n;
      }
    }
    const std::uint64_t* s = secret.data();
    for (int set = 0; set < kNumSets; ++set) {
      std::uint8_t* primary =
          values[static_cast<std::size_t>(holder_of_primary(set))][0];
      std::uint8_t* duplicate =
          values[static_cast<std::size_t>(holder_of_duplicate(set))][1];
      std::uint8_t* second =
          values[static_cast<std::size_t>(holder_of_second(set))][2];
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t share1 = rng.next_u64();
        store_word(primary + 8 * i, share1);
        store_word(duplicate + 8 * i, share1);
        store_word(second + 8 * i, s[i] - share1);
      }
    }
  }

  /// The buffers, each written through to its end.
  std::array<Bytes, kNumParties> take() {
    for (std::size_t p = 0; p < kNumParties; ++p) {
      TRUSTDDL_ASSERT(cursors_[p] == buffers_[p].data() + buffers_[p].size());
    }
    return std::move(buffers_);
  }

 private:
  /// Writes a tensor header at party p's cursor; returns where the
  /// tensor's values go.
  std::uint8_t* write_header(std::size_t p, const Shape& shape) {
    std::uint8_t*& cursor = cursors_[p];
    store_word(cursor, shape.size());
    cursor += 8;
    for (std::size_t dim : shape) {
      store_word(cursor, dim);
      cursor += 8;
    }
    return cursor;
  }

  std::array<Bytes, kNumParties> buffers_;
  std::array<std::uint8_t*, kNumParties> cursors_{};
};

/// Deals one entry of `key` from `rng` into `out`: its secrets are drawn
/// and computed as the paper's dealer forms them (c = a·b or a×b,
/// B×im2col(a_x), t, r and ⌊r/2^f⌋), then shared in layout order.
void deal_entry(const TripleKey& key, const DealingContext& context,
                int frac_bits, Rng& rng, ShareWriter& out) {
  const auto& d = key.dims;
  switch (key.kind) {
    case TripleKind::kMul:
    case TripleKind::kMatMul:
    case TripleKind::kCompTriple: {
      const bool matrix = key.kind == TripleKind::kMatMul;
      const RingTensor a =
          key.kind == TripleKind::kCompTriple
              ? positive_ring_tensor(d, frac_bits, rng)
              : random_ring_tensor(matrix ? Shape{d[0], d[1]} : d, rng);
      const RingTensor b =
          random_ring_tensor(matrix ? Shape{d[1], d[2]} : d, rng);
      const RingTensor c = matrix ? matmul(a, b) : hadamard(a, b);
      out.share(a, rng);
      out.share(b, rng);
      out.share(c, rng);
      break;
    }
    case TripleKind::kCompAux:
      out.share(positive_ring_tensor(d, frac_bits, rng), rng);
      break;
    case TripleKind::kTruncPair: {
      RingTensor r(d);
      RingTensor r_shifted(d);
      for (std::size_t i = 0; i < r.size(); ++i) {
        // r uniform in [0, 2^62): the masked difference v - r stays
        // inside (-2^62, 2^62) for any bounded v, so opening it never
        // wraps.
        r[i] = rng.next_u64() >> 2;
        r_shifted[i] = r[i] >> frac_bits;
      }
      out.share(r, rng);
      out.share(r_shifted, rng);
      break;
    }
    case TripleKind::kWeightMask:
      out.share(context.mask, rng);
      break;
    case TripleKind::kMaskedMatMul:
    case TripleKind::kMaskedConv: {
      const bool is_conv = key.kind == TripleKind::kMaskedConv;
      const RingTensor a = random_ring_tensor(
          is_conv ? Shape{d[2], d[3] * d[4] * d[5]} : Shape{d[3], d[4]},
          rng);
      out.share(a, rng);
      out.share(is_conv ? matmul(context.mask, batch_im2col(a, context.conv))
                        : matmul(a, context.mask),
                rng);
      break;
    }
  }
}

/// One entry of a stream kind without a weight mask, dealt from `rng`,
/// as each party decodes it.
std::array<MaterialEntry, kNumParties> deal_views(const TripleKey& key,
                                                  int frac_bits, Rng& rng) {
  ShareWriter writer(material_entry_bytes(key), 0);
  deal_entry(key, DealingContext{}, frac_bits, rng, writer);
  const std::array<Bytes, kNumParties> bytes = writer.take();
  std::array<MaterialEntry, kNumParties> views;
  for (std::size_t p = 0; p < kNumParties; ++p) {
    ByteReader reader(bytes[p]);
    views[p] = read_material_entry(reader, key.kind);
  }
  return views;
}

}  // namespace

std::array<Bytes, kNumParties> deal_fill_responses(const TripleKey& key,
                                                   std::uint64_t start,
                                                   std::size_t count,
                                                   std::uint64_t master_seed,
                                                   int frac_bits) {
  const std::size_t entry_bytes = material_entry_bytes(key);
  TRUSTDDL_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max() &&
                       (count == 0 ||
                        entry_bytes <=
                            (std::numeric_limits<std::size_t>::max() - 4) /
                                count),
                   "deal_fill_responses: fill too large");
  const DealingContext context = dealing_context(key, master_seed);
  ShareWriter writer(4 + count * entry_bytes, 4);
  for (std::size_t i = 0; i < count; ++i) {
    // Fresh generator per entry: material is addressable by (key,
    // index) alone, independent of the range it was requested in.
    Rng rng(derive_material_seed(master_seed, key, start + i));
    deal_entry(key, context, frac_bits, rng, writer);
  }
  std::array<Bytes, kNumParties> out = writer.take();
  for (Bytes& response : out) {
    store_le(response.data(), count, 4);
  }
  return out;
}

std::array<MaterialBatch, kNumParties> deal_material(const TripleKey& key,
                                                     std::uint64_t start,
                                                     std::size_t count,
                                                     std::uint64_t master_seed,
                                                     int frac_bits) {
  auto responses =
      deal_fill_responses(key, start, count, master_seed, frac_bits);
  std::array<MaterialBatch, kNumParties> out;
  for (std::size_t p = 0; p < kNumParties; ++p) {
    out[p] = read_fill_response(std::move(responses[p]), key.kind, count);
  }
  return out;
}

std::array<BeaverTripleShare, kNumParties> deal_mul_triple(const Shape& shape,
                                                           Rng& rng) {
  const auto views = deal_views(TripleKey::mul(shape), 0, rng);
  return {views[0].triple, views[1].triple, views[2].triple};
}

std::array<BeaverTripleShare, kNumParties> deal_matmul_triple(std::size_t m,
                                                              std::size_t k,
                                                              std::size_t n,
                                                              Rng& rng) {
  const auto views = deal_views(TripleKey::matmul(m, k, n), 0, rng);
  return {views[0].triple, views[1].triple, views[2].triple};
}

std::array<PartyShare, kNumParties> deal_positive_aux(const Shape& shape,
                                                      int frac_bits,
                                                      Rng& rng) {
  const auto views = deal_views(TripleKey::comp_aux(shape), frac_bits, rng);
  return {views[0].share, views[1].share, views[2].share};
}

std::array<TruncPairShare, kNumParties> deal_trunc_pair(const Shape& shape,
                                                        int frac_bits,
                                                        Rng& rng) {
  const auto views = deal_views(TripleKey::trunc_pair(shape), frac_bits, rng);
  return {views[0].pair, views[1].pair, views[2].pair};
}

MaterialBatch TripleBackend::fill(const TripleKey& key, std::uint64_t start,
                                  std::size_t count) {
  return receive_fill(send_fill(FillRange{key, start, count}));
}

FillTicket DealerBackend::send_fill(const FillRange& range) {
  const FillTicket ticket{range, next_id_++};
  dealt_.emplace(ticket.id,
                 std::move(deal_fill_responses(range.key, range.start,
                                               range.count, master_seed_,
                                               frac_bits_)
                               [static_cast<std::size_t>(party_)]));
  return ticket;
}

MaterialBatch DealerBackend::receive_fill(const FillTicket& ticket) {
  const auto it = dealt_.find(ticket.id);
  TRUSTDDL_REQUIRE(it != dealt_.end(), "dealer backend: unknown fill ticket");
  Bytes response = std::move(it->second);
  dealt_.erase(it);
  return read_fill_response(std::move(response), ticket.range.key.kind,
                            ticket.range.count);
}

}  // namespace trustddl::mpc
