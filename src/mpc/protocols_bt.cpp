#include "mpc/protocols_bt.hpp"

#include <optional>

#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/kernels.hpp"
#include "obs/trace.hpp"

namespace trustddl::mpc {
namespace {

/// Shared tail of SecMul-BT / SecMatMul-BT (Algorithm 4 lines 21-24):
/// combine the opened masks e, f with the triple shares.  `product`
/// abstracts elementwise vs matrix multiplication.
template <typename ProductFn>
PartyShare combine_with_triple(const RingTensor& e, const RingTensor& f,
                               const BeaverTripleShare& triple,
                               const ProductFn& product) {
  PartyShare z;
  z.primary = triple.c.primary + product(e, triple.b.primary) +
              product(triple.a.primary, f);
  z.duplicate = triple.c.duplicate + product(e, triple.b.duplicate) +
                product(triple.a.duplicate, f);
  // r = 2 in Algorithm 4: the e·f term goes into share 2 of every set,
  // which each party holds for exactly one set.
  z.second = triple.c.second + product(e, triple.b.second) +
             product(triple.a.second, f) + product(e, f);
  return z;
}

RingTensor hadamard_product(const RingTensor& lhs, const RingTensor& rhs) {
  return kernels::hadamard_parallel(lhs, rhs);
}

RingTensor matmul_product(const RingTensor& lhs, const RingTensor& rhs) {
  return matmul(lhs, rhs);
}

/// Shared head of the deferred multiplications: enqueue the opening of
/// (e, f) = (x − a, y − b) and hand the continuation the combine step.
template <typename ProductFn>
DeferredShare masked_multiply_prepare(OpenBatch& batch, const PartyShare& x,
                                      const PartyShare& y,
                                      BeaverTripleShare triple,
                                      const ProductFn& product) {
  DeferredShare out;
  const int party = batch.context().party;
  std::vector<PartyShare> masked;
  {
    obs::ScopedSpan mask_span("proto.mask", party, batch.context().step);
    masked.push_back(x - triple.a);
    masked.push_back(y - triple.b);
  }
  batch.enqueue(
      std::move(masked),
      [out, triple = std::move(triple), product,
       party](std::vector<RingTensor> opened) mutable {
        obs::ScopedSpan combine_span("proto.combine", party);
        out.set(combine_with_triple(opened[0], opened[1], triple, product));
      });
  return out;
}

/// Combine step of a product against a reusable mask: z = c + e×B +
/// a×f + e×f, with e×f folded into share 2 as (a + e)×f.  For x×Wᵀ,
/// Bᵀ and fᵀ are formed per product and dropped again: that keeps
/// only B and f resident, and keeps the matmuls in the kernels' fast
/// orientation — (B×eᵀ)ᵀ with a batch-wide right-hand side runs ~5x
/// slower on the Table I shapes.
PartyShare combine_with_mask(const RingTensor& e, const RingTensor& f,
                             const PartyShare& mask,
                             const BeaverTripleShare& triple,
                             bool transposed) {
  const RingTensor f_t = transposed ? transpose(f) : RingTensor();
  const auto component = [&](const RingTensor& c, const RingTensor& b,
                             const RingTensor& a) {
    if (!transposed) {
      return c + matmul(e, b) + matmul(a, f);
    }
    return c + matmul(e, transpose(b)) + matmul(a, f_t);
  };
  PartyShare z;
  z.primary = component(triple.c.primary, mask.primary, triple.a.primary);
  z.duplicate =
      component(triple.c.duplicate, mask.duplicate, triple.a.duplicate);
  z.second = component(triple.c.second, mask.second, triple.a.second + e);
  return z;
}

/// Combine step of a convolution against a reusable mask:
/// z = c + B×E + F×A + F×E with E = im2col(e) and A = im2col(a_x),
/// F×E folded into share 2 as F×im2col(a + e) (im2col is linear).
PartyShare combine_with_conv_mask(const RingTensor& e, const RingTensor& f,
                                  const PartyShare& mask,
                                  const BeaverTripleShare& triple,
                                  const ConvSpec& conv) {
  const RingTensor e_columns = batch_im2col(e, conv);
  const auto component = [&](const RingTensor& c, const RingTensor& b,
                             const RingTensor& a) {
    return c + matmul(b, e_columns) + matmul(f, batch_im2col(a, conv));
  };
  PartyShare z;
  z.primary = component(triple.c.primary, mask.primary, triple.a.primary);
  z.duplicate =
      component(triple.c.duplicate, mask.duplicate, triple.a.duplicate);
  z.second = component(triple.c.second, mask.second, triple.a.second + e);
  return z;
}

RingTensor signs_from_beta(const RingTensor& beta) {
  RingTensor signs(beta.shape());
  for (std::size_t i = 0; i < signs.size(); ++i) {
    signs[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(fx::sign(beta[i])));
  }
  return signs;
}

RingTensor shift_public(const RingTensor& d, int frac_bits) {
  RingTensor shifted(d.shape());
  for (std::size_t i = 0; i < d.size(); ++i) {
    shifted[i] = fx::truncate(d[i], frac_bits);
  }
  return shifted;
}

/// Resolve `out` with the masked-open rescale of `z`: open d = z − r
/// in the batch's next flush and shift it publicly.
void truncate_into(OpenBatch& batch, const PartyShare& z,
                   TruncPairShare pair, DeferredShare out) {
  const int frac_bits = batch.context().frac_bits;
  // r is uniform 62-bit, so d never wraps for bounded v and
  // statistically hides it.  The public shift is then exact and,
  // crucially, identical at every party — all six reconstructions of
  // downstream values stay consistent.
  std::vector<PartyShare> masked;
  masked.push_back(z - pair.r);
  batch.enqueue(std::move(masked),
                [out, r_shifted = std::move(pair.r_shifted),
                 frac_bits](std::vector<RingTensor> opened) mutable {
                  r_shifted.add_public(shift_public(opened[0], frac_bits));
                  out.set(std::move(r_shifted));
                });
}

/// The truncation pair a fused product rescale consumes: none for
/// kLocal, `pair` checked against the product for kMaskedOpen.
std::optional<TruncPairShare> rescale_pair(TruncationMode trunc_mode,
                                           std::optional<TruncPairShare> pair,
                                           const Shape& product_shape) {
  if (trunc_mode == TruncationMode::kLocal) {
    return std::nullopt;
  }
  TRUSTDDL_REQUIRE(pair.has_value(),
                   "masked-open rescale needs a truncation pair");
  TRUSTDDL_REQUIRE(pair->r.shape() == product_shape,
                   "rescale: pair shape mismatch");
  return pair;
}

/// Resolve `out` with product `z` rescaled: share-locally now, or (with
/// a pair) by a truncation opening chained into the next flush, so the
/// truncations of every product prepared against one batch share it.
void rescale_into(OpenBatch& batch, PartyShare z,
                  std::optional<TruncPairShare> pair, DeferredShare out) {
  if (!pair) {
    z.truncate_local(batch.context().frac_bits);
    out.set(std::move(z));
    return;
  }
  truncate_into(batch, z, std::move(*pair), std::move(out));
}

/// Shared head of the products against a reusable mask: open e = x − a,
/// plus f = W − B on the mask's first product (same round, so reuse
/// adds none), and resolve with combine(e, f, B, triple) rescaled.
template <typename Combine>
DeferredShare masked_weight_product_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& weight,
    WeightMask& mask, BeaverTripleShare triple,
    std::optional<TruncPairShare> trunc, Combine combine) {
  std::vector<PartyShare> masked;
  masked.push_back(x - triple.a);
  const bool open_f = !mask.f_requested;
  if (open_f) {
    masked.push_back(weight - *mask.b);
    mask.f_requested = true;
  }
  DeferredShare out;
  batch.enqueue(std::move(masked),
                [&batch, out, triple = std::move(triple),
                 trunc = std::move(trunc), f = mask.f, b = mask.b, open_f,
                 combine](std::vector<RingTensor> opened) mutable {
                  if (open_f) {
                    f.set(std::move(opened[1]));
                  }
                  rescale_into(batch, combine(opened[0], f.get(), *b, triple),
                               std::move(trunc), out);
                });
  return out;
}

}  // namespace

std::vector<TripleKey> comparison_keys(const Shape& shape,
                                       bool comp_triples) {
  if (comp_triples) {
    return {TripleKey::comp_triple(shape)};
  }
  return {TripleKey::comp_aux(shape), TripleKey::mul(shape)};
}

ComparisonMaterial take_comparison(std::vector<MaterialEntry>& entries,
                                   std::size_t* at, bool comp_triples) {
  ComparisonMaterial material;
  if (!comp_triples) {
    material.t_aux = std::move(entries.at((*at)++).share);
  }
  material.triple = std::move(entries.at((*at)++).triple);
  return material;
}

DeferredShare sec_mul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                 const PartyShare& y,
                                 BeaverTripleShare triple) {
  TRUSTDDL_REQUIRE(x.shape() == y.shape(),
                   "sec_mul_bt: operand shapes differ");
  return masked_multiply_prepare(batch, x, y, std::move(triple),
                                 hadamard_product);
}

DeferredShare sec_matmul_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                    const PartyShare& y,
                                    BeaverTripleShare triple) {
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && y.shape().size() == 2 &&
                       x.shape()[1] == y.shape()[0],
                   "sec_matmul_bt: incompatible operand shapes");
  return masked_multiply_prepare(batch, x, y, std::move(triple),
                                 matmul_product);
}

void sec_comp_bt_prepare_on(OpenBatch& batch, const PartyShare& x,
                            const PartyShare& y, ComparisonMaterial material,
                            std::function<void(RingTensor)> on_signs) {
  TRUSTDDL_REQUIRE(x.shape() == y.shape(),
                   "sec_comp_bt: operand shapes differ");
  // beta = t ⊙ (x - y); t has positive entries, so sign(beta) equals
  // sign(x - y) while the magnitude stays masked.
  const PartyShare alpha = x - y;
  const bool dealt_product = !material.t_aux;
  std::vector<PartyShare> masked;
  if (!dealt_product) {
    masked.push_back(*material.t_aux - material.triple.a);
  }
  masked.push_back(alpha - material.triple.b);
  batch.enqueue(
      std::move(masked),
      [&batch, on_signs = std::move(on_signs),
       triple = std::move(material.triple),
       dealt_product](std::vector<RingTensor> opened) mutable {
        PartyShare beta;
        if (dealt_product) {
          // Comparison triple: β = c + t ⊙ f with f = α − b public; t
          // is read once, so it becomes β in place.
          beta = std::move(triple.a);
          beta.mul_public(opened[0]);
          beta += triple.c;
        } else {
          beta = combine_with_triple(opened[0], opened[1], triple,
                                     hadamard_product);
        }
        // The β opening depends on this round's result, so it lands in
        // the NEXT flush — alongside every other chained opening.
        std::vector<PartyShare> follow_up;
        follow_up.push_back(std::move(beta));
        batch.enqueue(std::move(follow_up),
                      [on_signs = std::move(on_signs)](
                          std::vector<RingTensor> opened_beta) mutable {
                        on_signs(signs_from_beta(opened_beta[0]));
                      });
      });
}

DeferredTensor sec_comp_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   const PartyShare& y,
                                   ComparisonMaterial material) {
  DeferredTensor out;
  sec_comp_bt_prepare_on(batch, x, y, std::move(material),
                         [out](RingTensor signs) mutable {
                           out.set(std::move(signs));
                         });
  return out;
}

DeferredTensor sec_sign_bt_prepare(OpenBatch& batch, const PartyShare& x,
                                   ComparisonMaterial material) {
  return sec_comp_bt_prepare(batch, x, zero_share(x.shape()),
                             std::move(material));
}

DeferredShare truncate_product_masked_prepare(OpenBatch& batch,
                                              const PartyShare& z,
                                              TruncPairShare pair) {
  TRUSTDDL_REQUIRE(z.shape() == pair.r.shape(),
                   "truncate_product_masked: pair shape mismatch");
  DeferredShare out;
  truncate_into(batch, z, std::move(pair), out);
  return out;
}

DeferredShare sec_matmul_bt_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& y,
    BeaverTripleShare triple, TruncationMode trunc_mode,
    std::optional<TruncPairShare> pair) {
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && y.shape().size() == 2 &&
                       x.shape()[1] == y.shape()[0],
                   "sec_matmul_bt: incompatible operand shapes");
  std::optional<TruncPairShare> trunc = rescale_pair(
      trunc_mode, std::move(pair), Shape{x.shape()[0], y.shape()[1]});
  DeferredShare out;
  std::vector<PartyShare> masked;
  masked.push_back(x - triple.a);
  masked.push_back(y - triple.b);
  batch.enqueue(std::move(masked),
                [&batch, out, triple = std::move(triple),
                 trunc = std::move(trunc)](
                    std::vector<RingTensor> opened) mutable {
                  rescale_into(batch,
                               combine_with_triple(opened[0], opened[1],
                                                   triple, matmul_product),
                               std::move(trunc), out);
                });
  return out;
}

DeferredShare sec_matmul_masked_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& weight,
    WeightMask& mask, BeaverTripleShare triple, bool transposed,
    TruncationMode trunc_mode, std::optional<TruncPairShare> pair) {
  TRUSTDDL_REQUIRE(mask.armed(), "masked matmul: weight mask not dealt");
  TRUSTDDL_REQUIRE(weight.shape().size() == 2 && x.shape().size() == 2 &&
                       weight.shape() == mask.b->shape() &&
                       x.shape() == triple.a.shape() &&
                       x.shape()[1] == weight.shape()[transposed ? 1 : 0],
                   "masked matmul: incompatible operand shapes");
  return masked_weight_product_prepare(
      batch, x, weight, mask, std::move(triple),
      rescale_pair(trunc_mode, std::move(pair),
                   Shape{x.shape()[0], weight.shape()[transposed ? 0 : 1]}),
      [transposed](const RingTensor& e, const RingTensor& f,
                   const PartyShare& b, const BeaverTripleShare& triple) {
        return combine_with_mask(e, f, b, triple, transposed);
      });
}

DeferredShare sec_conv_masked_rescaled_prepare(
    OpenBatch& batch, const PartyShare& x, const PartyShare& weight,
    WeightMask& mask, BeaverTripleShare triple, const ConvSpec& conv,
    TruncationMode trunc_mode, std::optional<TruncPairShare> pair) {
  TRUSTDDL_REQUIRE(mask.armed(), "masked conv: weight mask not dealt");
  const std::size_t in_features =
      conv.in_channels * conv.in_height * conv.in_width;
  TRUSTDDL_REQUIRE(x.shape().size() == 2 && x.shape()[1] == in_features &&
                       x.shape() == triple.a.shape() &&
                       weight.shape() == mask.b->shape() &&
                       weight.shape() ==
                           (Shape{conv.out_channels, conv.col_rows()}),
                   "masked conv: incompatible operand shapes");
  return masked_weight_product_prepare(
      batch, x, weight, mask, std::move(triple),
      rescale_pair(trunc_mode, std::move(pair),
                   Shape{conv.out_channels, x.shape()[0] * conv.col_cols()}),
      [conv](const RingTensor& e, const RingTensor& f, const PartyShare& b,
             const BeaverTripleShare& triple) {
        return combine_with_conv_mask(e, f, b, triple, conv);
      });
}

PartyShare sec_mul_bt(PartyContext& ctx, const PartyShare& x,
                      const PartyShare& y, BeaverTripleShare triple) {
  obs::ScopedSpan span("proto.sec_mul_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredShare z = sec_mul_bt_prepare(batch, x, y, std::move(triple));
  batch.flush_all();
  return z.take();
}

PartyShare sec_matmul_bt(PartyContext& ctx, const PartyShare& x,
                         const PartyShare& y, BeaverTripleShare triple) {
  obs::ScopedSpan span("proto.sec_matmul_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredShare z = sec_matmul_bt_prepare(batch, x, y, std::move(triple));
  batch.flush_all();
  return z.take();
}

RingTensor sec_comp_bt(PartyContext& ctx, const PartyShare& x,
                       const PartyShare& y, ComparisonMaterial material) {
  obs::ScopedSpan span("proto.sec_comp_bt", ctx.party, ctx.step);
  OpenBatch batch(ctx);
  DeferredTensor signs =
      sec_comp_bt_prepare(batch, x, y, std::move(material));
  batch.flush_all();
  return signs.take();
}

RingTensor sec_sign_bt(PartyContext& ctx, const PartyShare& x,
                       ComparisonMaterial material) {
  return sec_comp_bt(ctx, x, zero_share(x.shape()), std::move(material));
}

RingTensor positive_mask(const RingTensor& signs) {
  RingTensor mask(signs.shape());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = (static_cast<std::int64_t>(signs[i]) > 0) ? 1u : 0u;
  }
  return mask;
}

PartyShare truncate_product_local(const PartyShare& z, int frac_bits) {
  PartyShare out = z;
  out.truncate_local(frac_bits);
  return out;
}

PartyShare truncate_product_masked(PartyContext& ctx, const PartyShare& z,
                                   TruncPairShare pair) {
  OpenBatch batch(ctx);
  DeferredShare out =
      truncate_product_masked_prepare(batch, z, std::move(pair));
  batch.flush_all();
  return out.take();
}

}  // namespace trustddl::mpc
