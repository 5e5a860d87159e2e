#include "mpc/beaver.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
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

std::array<BeaverTripleShare, kNumParties> package_triple(
    const RingTensor& a, const RingTensor& b, const RingTensor& c, Rng& rng) {
  auto a_views = share_secret(a, rng);
  auto b_views = share_secret(b, rng);
  auto c_views = share_secret(c, rng);
  std::array<BeaverTripleShare, kNumParties> out;
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    out[index] = BeaverTripleShare{std::move(a_views[index]),
                                   std::move(b_views[index]),
                                   std::move(c_views[index])};
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

}  // namespace

std::array<BeaverTripleShare, kNumParties> deal_mul_triple(const Shape& shape,
                                                           Rng& rng) {
  const RingTensor a = random_ring_tensor(shape, rng);
  const RingTensor b = random_ring_tensor(shape, rng);
  const RingTensor c = hadamard(a, b);
  return package_triple(a, b, c, rng);
}

std::array<BeaverTripleShare, kNumParties> deal_matmul_triple(std::size_t m,
                                                              std::size_t k,
                                                              std::size_t n,
                                                              Rng& rng) {
  const RingTensor a = random_ring_tensor(Shape{m, k}, rng);
  const RingTensor b = random_ring_tensor(Shape{k, n}, rng);
  const RingTensor c = matmul(a, b);
  return package_triple(a, b, c, rng);
}

std::array<PartyShare, kNumParties> deal_positive_aux(const Shape& shape,
                                                      int frac_bits,
                                                      Rng& rng) {
  return share_secret(positive_ring_tensor(shape, frac_bits, rng), rng);
}

std::array<BeaverTripleShare, kNumParties> deal_comp_triple(
    const Shape& shape, int frac_bits, Rng& rng) {
  const RingTensor t = positive_ring_tensor(shape, frac_bits, rng);
  const RingTensor b = random_ring_tensor(shape, rng);
  const RingTensor c = hadamard(t, b);
  return package_triple(t, b, c, rng);
}

std::array<TruncPairShare, kNumParties> deal_trunc_pair(const Shape& shape,
                                                        int frac_bits,
                                                        Rng& rng) {
  RingTensor r(shape);
  RingTensor r_shifted(shape);
  for (std::size_t i = 0; i < r.size(); ++i) {
    // r uniform in [0, 2^62): the masked difference v - r stays inside
    // (-2^62, 2^62) for any bounded v, so opening it never wraps.
    r[i] = rng.next_u64() >> 2;
    r_shifted[i] = r[i] >> frac_bits;
  }
  const auto r_views = share_secret(r, rng);
  const auto shifted_views = share_secret(r_shifted, rng);
  std::array<TruncPairShare, kNumParties> out;
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    out[index] = TruncPairShare{r_views[index], shifted_views[index]};
  }
  return out;
}

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
  const auto& d = key.dims;
  const auto size = [](std::initializer_list<std::size_t> dims) {
    std::size_t out = 1;
    for (std::size_t dim : dims) {
      out = saturating_mul(out, dim);
    }
    return out;
  };
  const auto sum = [](std::size_t a, std::size_t b) {
    return a > std::numeric_limits<std::size_t>::max() - b
               ? std::numeric_limits<std::size_t>::max()
               : a + b;
  };
  std::size_t shape = 1;
  for (std::size_t dim : d) {
    shape = saturating_mul(shape, dim);
  }
  switch (key.kind) {
    case TripleKind::kMul:
    case TripleKind::kCompTriple:
      return saturating_mul(3, shape);
    case TripleKind::kCompAux:
      return shape;
    case TripleKind::kTruncPair:
      return saturating_mul(2, shape);
    case TripleKind::kMatMul:
      return sum(sum(size({d[0], d[1]}), size({d[1], d[2]})),
                 size({d[0], d[2]}));
    case TripleKind::kWeightMask:
      return size({d[2], d[3]});
    case TripleKind::kMaskedMatMul:
      return sum(size({d[3], d[4]}), size({d[3], d[5]}));
    case TripleKind::kMaskedConv: {
      const ConvSpec conv = conv_of(key);
      return sum(size({d[2], conv.in_channels, conv.in_height, conv.in_width}),
                 size({conv.out_channels, d[2], conv.col_cols()}));
    }
  }
  return 0;
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

std::array<MaterialBatch, kNumParties> deal_material(const TripleKey& key,
                                                     std::uint64_t start,
                                                     std::size_t count,
                                                     std::uint64_t master_seed,
                                                     int frac_bits) {
  (void)material_cost(key);  // validates the key's arity and flags
  const auto& d = key.dims;
  // A version's B is the same for every entry of its streams.
  RingTensor mask;
  ConvSpec conv;
  if (key.kind == TripleKind::kWeightMask) {
    mask = weight_mask_value(master_seed, d[0], d[1], d[2], d[3]);
  } else if (key.kind == TripleKind::kMaskedConv) {
    conv = conv_of(key);
    mask = weight_mask_value(master_seed, d[0], d[1], conv.out_channels,
                             conv.col_rows());
  } else if (key.kind == TripleKind::kMaskedMatMul) {
    const bool transposed = d[2] == 1;
    mask = weight_mask_value(master_seed, d[0], d[1],
                             transposed ? d[5] : d[4],
                             transposed ? d[4] : d[5]);
    if (transposed) {
      mask = transpose(mask);
    }
  }

  std::array<MaterialBatch, kNumParties> out;
  for (auto& view : out) {
    view.resize(count);
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Fresh generator per entry: material is addressable by (key,
    // index) alone, independent of the range it was requested in.
    Rng rng(derive_material_seed(master_seed, key, start + i));
    const auto put = [&](auto views, auto member) {
      for (std::size_t p = 0; p < kNumParties; ++p) {
        out[p][i].*member = std::move(views[p]);
      }
    };
    switch (key.kind) {
      case TripleKind::kMul:
        put(deal_mul_triple(d, rng), &MaterialEntry::triple);
        break;
      case TripleKind::kMatMul:
        put(deal_matmul_triple(d[0], d[1], d[2], rng),
            &MaterialEntry::triple);
        break;
      case TripleKind::kCompAux:
        put(deal_positive_aux(d, frac_bits, rng), &MaterialEntry::share);
        break;
      case TripleKind::kTruncPair:
        put(deal_trunc_pair(d, frac_bits, rng), &MaterialEntry::pair);
        break;
      case TripleKind::kWeightMask:
        put(share_secret(mask, rng), &MaterialEntry::share);
        break;
      case TripleKind::kMaskedMatMul:
      case TripleKind::kMaskedConv: {
        const bool is_conv = key.kind == TripleKind::kMaskedConv;
        const RingTensor a = random_ring_tensor(
            is_conv ? Shape{d[2], d[3] * d[4] * d[5]} : Shape{d[3], d[4]},
            rng);
        auto a_views = share_secret(a, rng);
        auto c_views = share_secret(
            is_conv ? matmul(mask, batch_im2col(a, conv)) : matmul(a, mask),
            rng);
        for (std::size_t p = 0; p < kNumParties; ++p) {
          out[p][i].triple.a = std::move(a_views[p]);
          out[p][i].triple.c = std::move(c_views[p]);
        }
        break;
      }
      case TripleKind::kCompTriple:
        put(deal_comp_triple(d, frac_bits, rng), &MaterialEntry::triple);
        break;
    }
  }
  return out;
}

MaterialBatch TripleBackend::fill(const TripleKey& key, std::uint64_t start,
                                  std::size_t count) {
  return receive_fill(send_fill(FillRange{key, start, count}));
}

FillTicket DealerBackend::send_fill(const FillRange& range) {
  const FillTicket ticket{range, next_id_++};
  dealt_.emplace(ticket.id,
                 std::move(deal_material(range.key, range.start, range.count,
                                         master_seed_, frac_bits_)
                               [static_cast<std::size_t>(party_)]));
  return ticket;
}

MaterialBatch DealerBackend::receive_fill(const FillTicket& ticket) {
  const auto it = dealt_.find(ticket.id);
  TRUSTDDL_REQUIRE(it != dealt_.end(), "dealer backend: unknown fill ticket");
  MaterialBatch batch = std::move(it->second);
  dealt_.erase(it);
  return batch;
}

}  // namespace trustddl::mpc
