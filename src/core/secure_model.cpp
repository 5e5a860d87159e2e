#include "core/secure_model.hpp"

#include <optional>
#include <utility>

#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/trace.hpp"

namespace trustddl::core {

mpc::DeferredShare SecureExecContext::rescale_prepare(
    mpc::OpenBatch& batch, const mpc::PartyShare& product,
    PassMaterial& material) {
  mpc::DeferredShare out;
  if (trunc_mode == TruncationMode::kMaskedOpen) {
    out = mpc::truncate_product_masked_prepare(batch, product,
                                               *material.take_trunc());
    if (!batch_openings) {
      batch.flush_all();
    }
    return out;
  }
  out.set(mpc::truncate_product_local(product, mpc->frac_bits));
  return out;
}

mpc::DeferredShare SecureExecContext::matmul_rescaled_prepare(
    mpc::OpenBatch& batch, const mpc::PartyShare& x, const mpc::PartyShare& y,
    ProductMaterial material) {
  mpc::DeferredShare out = mpc::sec_matmul_bt_rescaled_prepare(
      batch, x, y, std::move(material.triple), trunc_mode,
      std::move(material.pair));
  if (!batch_openings) {
    batch.flush_all();
  }
  return out;
}

PassKeys::PassKeys(const SecureExecContext& ctx, std::uint64_t version,
                   bool draw_masks)
    : trunc_mode_(ctx.trunc_mode),
      reuse_masks_(ctx.reuse_masks),
      version_(version),
      draw_masks_(draw_masks) {}

void PassKeys::add_mask(std::size_t layer, std::size_t rows,
                        std::size_t cols) {
  if (draw_masks_) {
    add(mpc::TripleKey::weight_mask(layer, version_, rows, cols));
  }
}

void PassKeys::add_product(const mpc::TripleKey& key, const Shape& result) {
  add(key);
  add_trunc(result);
}

void PassKeys::add_trunc(const Shape& shape) {
  if (trunc_mode_ == TruncationMode::kMaskedOpen) {
    add(mpc::TripleKey::trunc_pair(shape));
  }
}

void PassKeys::add_comparison(const Shape& shape) {
  for (const mpc::TripleKey& key : mpc::comparison_keys(shape, reuse_masks_)) {
    add(key);
  }
}

void PassMaterial::fetch() { entries_ = ctx_.triples->next_many(keys_); }

void PassMaterial::take_mask(mpc::WeightMask& mask) {
  if (draw_masks_) {
    mask.b = std::make_shared<const mpc::PartyShare>(
        std::move(entries_.at(next_++).share));
  }
}

ProductMaterial PassMaterial::take_product() {
  ProductMaterial material;
  material.triple = std::move(entries_.at(next_++).triple);
  material.pair = take_trunc();
  return material;
}

std::optional<mpc::TruncPairShare> PassMaterial::take_trunc() {
  if (trunc_mode_ != TruncationMode::kMaskedOpen) {
    return std::nullopt;
  }
  return std::move(entries_.at(next_++).pair);
}

mpc::ComparisonMaterial PassMaterial::take_comparison() {
  return mpc::take_comparison(entries_, &next_, reuse_masks_);
}

void add_row_broadcast(mpc::PartyShare& matrix, const mpc::PartyShare& bias) {
  TRUSTDDL_REQUIRE(bias.shape().size() == 2 && bias.shape()[0] == 1 &&
                       matrix.shape().size() == 2 &&
                       matrix.shape()[1] == bias.shape()[1],
                   "add_row_broadcast: shape mismatch");
  const auto add = [&](RingTensor& component, const RingTensor& row) {
    for (std::size_t r = 0; r < component.rows(); ++r) {
      for (std::size_t c = 0; c < component.cols(); ++c) {
        component.at(r, c) += row.at(0, c);
      }
    }
  };
  add(matrix.primary, bias.primary);
  add(matrix.duplicate, bias.duplicate);
  add(matrix.second, bias.second);
}

void add_col_broadcast(mpc::PartyShare& matrix, const mpc::PartyShare& bias) {
  TRUSTDDL_REQUIRE(bias.shape().size() == 1 && matrix.shape().size() == 2 &&
                       matrix.shape()[0] == bias.shape()[0],
                   "add_col_broadcast: shape mismatch");
  const auto add = [&](RingTensor& component, const RingTensor& column) {
    for (std::size_t r = 0; r < component.rows(); ++r) {
      for (std::size_t c = 0; c < component.cols(); ++c) {
        component.at(r, c) += column[r];
      }
    }
  };
  add(matrix.primary, bias.primary);
  add(matrix.duplicate, bias.duplicate);
  add(matrix.second, bias.second);
}

void SecureDense::set_weight_version(std::uint64_t version) {
  if (version != version_) {
    version_ = version;
    mask_ = mpc::WeightMask{};  // the next product deals a fresh B
  }
}

mpc::TripleKey SecureDense::product_key(const PassKeys& keys,
                                       std::size_t rows,
                                       bool transposed) const {
  const std::size_t in_features = weights_.value.shape()[0];
  const std::size_t out_features = weights_.value.shape()[1];
  const std::size_t k = transposed ? out_features : in_features;
  const std::size_t n = transposed ? in_features : out_features;
  return keys.reuse_masks()
             ? mpc::TripleKey::masked_matmul(layer_, keys.version(),
                                             transposed, rows, k, n)
             : mpc::TripleKey::matmul(rows, k, n);
}

Shape SecureDense::forward_keys(PassKeys& keys, const Shape& input) const {
  const std::size_t rows = input.at(0);
  const Shape output{rows, weights_.value.shape()[1]};
  if (keys.reuse_masks()) {
    keys.add_mask(layer_, weights_.value.shape()[0], output[1]);
  }
  keys.add_product(product_key(keys, rows, /*transposed=*/false), output);
  return output;
}

void SecureDense::backward_keys(PassKeys& keys, std::size_t rows,
                                bool input_grad) const {
  // Weight grad (in x batch)·(batch x out), then input grad
  // (batch x out)·(out x in), each with its rescale.
  const std::size_t in_features = weights_.value.shape()[0];
  const std::size_t out_features = weights_.value.shape()[1];
  keys.add_product(mpc::TripleKey::matmul(in_features, rows, out_features),
                   Shape{in_features, out_features});
  if (input_grad) {
    keys.add_product(product_key(keys, rows, /*transposed=*/true),
                     Shape{rows, in_features});
  }
}

mpc::DeferredShare SecureDense::weight_product_prepare(
    SecureExecContext& ctx, mpc::OpenBatch& batch, const mpc::PartyShare& x,
    bool transposed, PassMaterial& material) {
  ProductMaterial product = material.take_product();
  mpc::DeferredShare out = mpc::sec_matmul_masked_rescaled_prepare(
      batch, x, weights_.value, mask_, std::move(product.triple), transposed,
      ctx.trunc_mode, std::move(product.pair));
  if (!ctx.batch_openings) {
    batch.flush_all();
  }
  return out;
}

mpc::PartyShare SecureDense::forward(SecureExecContext& ctx,
                                     const mpc::PartyShare& input) {
  obs::ScopedSpan span("layer.dense.forward", ctx.mpc->party, ctx.mpc->step);
  cached_input_ = input;
  PassMaterial material(ctx, version_, /*draw_masks=*/!mask_.armed());
  forward_keys(material, input.shape());
  material.fetch();
  mpc::OpenBatch open_batch(*ctx.mpc);
  mpc::DeferredShare product;
  if (ctx.reuse_masks) {
    material.take_mask(mask_);
    product = weight_product_prepare(ctx, open_batch, input,
                                     /*transposed=*/false, material);
  } else {
    product = ctx.matmul_rescaled_prepare(open_batch, input, weights_.value,
                                          material.take_product());
  }
  open_batch.flush_all();
  mpc::PartyShare output = product.take();
  add_row_broadcast(output, bias_.value);
  return output;
}

mpc::PartyShare SecureDense::backward(SecureExecContext& ctx,
                                      const mpc::PartyShare& grad_output,
                                      bool input_grad) {
  obs::ScopedSpan span("layer.dense.backward", ctx.mpc->party, ctx.mpc->step);

  // Both gradients' material comes in one round trip.  They are
  // data-independent, so their Beaver-mask openings (and, in
  // masked-open mode, their truncation openings) ride the same rounds.
  PassMaterial material(ctx, version_);
  backward_keys(material, cached_input_.shape()[0], input_grad);
  material.fetch();
  mpc::OpenBatch open_batch(*ctx.mpc);

  const mpc::PartyShare input_t = mpc::transpose_share(cached_input_);
  mpc::DeferredShare w_grad = ctx.matmul_rescaled_prepare(
      open_batch, input_t, grad_output, material.take_product());

  bias_.grad += mpc::transform_share(grad_output, [](const RingTensor& g) {
    return sum_rows(g);
  });

  mpc::DeferredShare x_grad;
  if (!input_grad) {
    x_grad.set(mpc::PartyShare{});
  } else if (ctx.reuse_masks) {
    // dY·Wᵀ reuses the forward pass's mask: only e = dY − a opens.
    x_grad = weight_product_prepare(ctx, open_batch, grad_output,
                                    /*transposed=*/true, material);
  } else {
    const mpc::PartyShare weights_t = mpc::transpose_share(weights_.value);
    x_grad = ctx.matmul_rescaled_prepare(open_batch, grad_output, weights_t,
                                         material.take_product());
  }

  open_batch.flush_all();
  weights_.grad += w_grad.take();
  return x_grad.take();
}

void SecureConv::set_weight_version(std::uint64_t version) {
  if (version != version_) {
    version_ = version;
    mask_ = mpc::WeightMask{};  // the next product deals a fresh B
  }
}

Shape SecureConv::forward_keys(PassKeys& keys, const Shape& input) const {
  const std::size_t batch = input.at(0);
  const Shape maps{spec_.out_channels, batch * spec_.col_cols()};
  if (keys.reuse_masks()) {
    // Opens x − a_x on the raw input (and W − B once per version);
    // the parties expand both operands' columns locally.
    keys.add_mask(layer_, spec_.out_channels, spec_.col_rows());
    keys.add_product(
        mpc::TripleKey::masked_conv(layer_, keys.version(), batch, spec_),
        maps);
  } else {
    keys.add_product(
        mpc::TripleKey::matmul(spec_.out_channels, spec_.col_rows(), maps[1]),
        maps);
  }
  return Shape{batch, spec_.out_channels * spec_.col_cols()};
}

void SecureConv::backward_keys(PassKeys& keys, std::size_t rows,
                               bool input_grad) const {
  const std::size_t cols = rows * spec_.col_cols();
  keys.add_product(
      mpc::TripleKey::matmul(spec_.out_channels, cols, spec_.col_rows()),
      Shape{spec_.out_channels, spec_.col_rows()});
  if (input_grad) {
    keys.add_product(
        mpc::TripleKey::matmul(spec_.col_rows(), spec_.out_channels, cols),
        Shape{spec_.col_rows(), cols});
  }
}

mpc::PartyShare SecureConv::forward(SecureExecContext& ctx,
                                    const mpc::PartyShare& input) {
  obs::ScopedSpan span("layer.conv.forward", ctx.mpc->party, ctx.mpc->step);
  const std::size_t batch = input.shape()[0];
  cached_batch_ = batch;
  const std::size_t pixels = spec_.col_cols();
  cached_columns_ = mpc::transform_share(input, [&](const RingTensor& x) {
    return batch_im2col(x, spec_);
  });
  PassMaterial material(ctx, version_, /*draw_masks=*/!mask_.armed());
  forward_keys(material, input.shape());
  material.fetch();
  mpc::OpenBatch open_batch(*ctx.mpc);
  mpc::DeferredShare deferred;
  if (ctx.reuse_masks) {
    material.take_mask(mask_);
    ProductMaterial product = material.take_product();
    deferred = mpc::sec_conv_masked_rescaled_prepare(
        open_batch, input, weights_.value, mask_, std::move(product.triple),
        spec_, ctx.trunc_mode, std::move(product.pair));
  } else {
    deferred = ctx.matmul_rescaled_prepare(open_batch, weights_.value,
                                           cached_columns_,
                                           material.take_product());
  }
  open_batch.flush_all();
  mpc::PartyShare maps = deferred.take();
  add_col_broadcast(maps, bias_.value);
  return mpc::transform_share(maps, [&](const RingTensor& m) {
    return maps_to_rows(m, batch, pixels);
  });
}

mpc::PartyShare SecureConv::backward(SecureExecContext& ctx,
                                     const mpc::PartyShare& grad_output,
                                     bool input_grad) {
  obs::ScopedSpan span("layer.conv.backward", ctx.mpc->party, ctx.mpc->step);
  const std::size_t batch = cached_batch_;
  const std::size_t pixels = spec_.col_cols();
  const mpc::PartyShare grad_maps =
      mpc::transform_share(grad_output, [&](const RingTensor& g) {
        return rows_to_maps(g, spec_.out_channels, pixels);
      });

  // As in SecureDense::backward, both gradients' material comes
  // in one round trip and their openings share rounds.
  PassMaterial material(ctx);
  backward_keys(material, batch, input_grad);
  material.fetch();
  mpc::OpenBatch open_batch(*ctx.mpc);

  const mpc::PartyShare columns_t = mpc::transpose_share(cached_columns_);
  mpc::DeferredShare w_grad = ctx.matmul_rescaled_prepare(
      open_batch, grad_maps, columns_t, material.take_product());

  bias_.grad += mpc::transform_share(grad_maps, [](const RingTensor& g) {
    return sum_cols(g);
  });

  mpc::DeferredShare x_grad;
  if (input_grad) {
    const mpc::PartyShare weights_t = mpc::transpose_share(weights_.value);
    x_grad = ctx.matmul_rescaled_prepare(open_batch, weights_t, grad_maps,
                                         material.take_product());
  }

  open_batch.flush_all();
  weights_.grad += w_grad.take();
  if (!input_grad) {
    return mpc::PartyShare{};
  }
  const mpc::PartyShare grad_columns = x_grad.take();
  return mpc::transform_share(grad_columns, [&](const RingTensor& cols) {
    return batch_col2im(cols, spec_, batch);
  });
}

Shape SecureRelu::forward_keys(PassKeys& keys, const Shape& input) const {
  keys.add_comparison(input);
  return input;
}

mpc::PartyShare SecureRelu::forward(SecureExecContext& ctx,
                                    const mpc::PartyShare& input) {
  obs::ScopedSpan span("layer.relu.forward", ctx.mpc->party, ctx.mpc->step);
  PassMaterial material(ctx);
  forward_keys(material, input.shape());
  material.fetch();
  const RingTensor signs =
      mpc::sec_sign_bt(*ctx.mpc, input, material.take_comparison());
  cached_mask_ = mpc::positive_mask(signs);
  mpc::PartyShare output = input;
  output.mul_public(cached_mask_);
  return output;
}

mpc::PartyShare SecureRelu::backward(SecureExecContext& /*ctx*/,
                                     const mpc::PartyShare& grad_output,
                                     bool /*input_grad*/) {
  obs::ScopedSpan span("layer.relu.backward");
  TRUSTDDL_REQUIRE(grad_output.shape() == cached_mask_.shape(),
                   "secure relu: backward before forward");
  mpc::PartyShare grad = grad_output;
  grad.mul_public(cached_mask_);
  return grad;
}

mpc::PartyShare SecureMaxPool::forward(SecureExecContext& ctx,
                                       const mpc::PartyShare& input) {
  obs::ScopedSpan span("layer.maxpool.forward", ctx.mpc->party, ctx.mpc->step);
  TRUSTDDL_REQUIRE(input.shape().size() == 2 &&
                       input.shape()[1] == spec_.in_features(),
                   "secure maxpool: input shape mismatch");
  const std::size_t batch = input.shape()[0];
  const std::size_t pools = spec_.out_features();
  cached_batch_ = batch;

  // Flat input index of window slot k for each pool (batch-invariant).
  const std::size_t window_size = spec_.window * spec_.window;
  std::vector<std::vector<std::size_t>> slot_index(
      window_size, std::vector<std::size_t>(pools));
  {
    std::size_t pool = 0;
    for (std::size_t channel = 0; channel < spec_.channels; ++channel) {
      for (std::size_t oy = 0; oy < spec_.out_height(); ++oy) {
        for (std::size_t ox = 0; ox < spec_.out_width(); ++ox) {
          std::size_t slot = 0;
          for (std::size_t wy = 0; wy < spec_.window; ++wy) {
            for (std::size_t wx = 0; wx < spec_.window; ++wx) {
              slot_index[slot][pool] =
                  spec_.input_index(channel, oy, ox, wy, wx);
              ++slot;
            }
          }
          ++pool;
        }
      }
    }
  }

  // Gather each window slot into a [batch, pools] candidate share.
  struct Candidate {
    mpc::PartyShare share;
    /// Per (sample, pool): flat input index this candidate came from.
    std::vector<std::size_t> source;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(window_size);
  for (std::size_t slot = 0; slot < window_size; ++slot) {
    Candidate candidate;
    candidate.share =
        mpc::transform_share(input, [&](const RingTensor& component) {
          RingTensor gathered(Shape{batch, pools});
          for (std::size_t sample = 0; sample < batch; ++sample) {
            for (std::size_t pool = 0; pool < pools; ++pool) {
              gathered.at(sample, pool) =
                  component.at(sample, slot_index[slot][pool]);
            }
          }
          return gathered;
        });
    candidate.source.resize(batch * pools);
    for (std::size_t sample = 0; sample < batch; ++sample) {
      for (std::size_t pool = 0; pool < pools; ++pool) {
        candidate.source[sample * pools + pool] = slot_index[slot][pool];
      }
    }
    candidates.push_back(std::move(candidate));
  }

  // The tournament's comparisons' material comes in one round trip.
  // Each level halves the candidates; its pairs are independent, so
  // their comparisons share one batch's two opening rounds (one flush
  // per comparison without batch_openings).
  PassMaterial material(ctx);
  forward_keys(material, input.shape());
  material.fetch();
  while (candidates.size() > 1) {
    mpc::OpenBatch open_batch(*ctx.mpc);
    std::vector<mpc::DeferredTensor> level_signs;
    for (std::size_t i = 0; i + 1 < candidates.size(); i += 2) {
      level_signs.push_back(mpc::sec_comp_bt_prepare(
          open_batch, candidates[i].share, candidates[i + 1].share,
          material.take_comparison()));
      if (!ctx.batch_openings) {
        open_batch.flush_all();
      }
    }
    open_batch.flush_all();
    std::vector<Candidate> next;
    for (std::size_t i = 0; i + 1 < candidates.size(); i += 2) {
      Candidate& lhs = candidates[i];
      Candidate& rhs = candidates[i + 1];
      // 1 where lhs > rhs.
      const RingTensor mask = mpc::positive_mask(level_signs[i / 2].take());
      // winner = mask (.) (lhs - rhs) + rhs, computed locally.
      Candidate winner;
      mpc::PartyShare diff = lhs.share - rhs.share;
      diff.mul_public(mask);
      winner.share = diff + rhs.share;
      winner.source.resize(lhs.source.size());
      for (std::size_t e = 0; e < winner.source.size(); ++e) {
        winner.source[e] = mask[e] != 0 ? lhs.source[e] : rhs.source[e];
      }
      next.push_back(std::move(winner));
    }
    if (candidates.size() % 2 == 1) {
      next.push_back(std::move(candidates.back()));
    }
    candidates = std::move(next);
  }

  cached_argmax_.assign(batch, std::vector<std::size_t>(pools));
  for (std::size_t sample = 0; sample < batch; ++sample) {
    for (std::size_t pool = 0; pool < pools; ++pool) {
      cached_argmax_[sample][pool] =
          candidates[0].source[sample * pools + pool];
    }
  }
  return candidates[0].share;
}

Shape SecureMaxPool::forward_keys(PassKeys& keys, const Shape& input) const {
  // Tournament over window^2 candidates: window^2 − 1 comparisons,
  // each on the [batch, pools] candidate shape.
  const Shape candidates{input.at(0), spec_.out_features()};
  for (std::size_t i = 1; i < spec_.window * spec_.window; ++i) {
    keys.add_comparison(candidates);
  }
  return candidates;
}

mpc::PartyShare SecureMaxPool::backward(SecureExecContext& /*ctx*/,
                                        const mpc::PartyShare& grad_output,
                                        bool /*input_grad*/) {
  obs::ScopedSpan span("layer.maxpool.backward");
  TRUSTDDL_REQUIRE(grad_output.shape().size() == 2 &&
                       grad_output.shape()[0] == cached_batch_ &&
                       grad_output.shape()[1] == spec_.out_features(),
                   "secure maxpool: backward before forward");
  const std::size_t pools = spec_.out_features();
  return mpc::transform_share(grad_output, [&](const RingTensor& component) {
    RingTensor scattered(Shape{cached_batch_, spec_.in_features()});
    for (std::size_t sample = 0; sample < cached_batch_; ++sample) {
      for (std::size_t pool = 0; pool < pools; ++pool) {
        scattered.at(sample, cached_argmax_[sample][pool]) +=
            component.at(sample, pool);
      }
    }
    return scattered;
  });
}

mpc::PartyShare SecureSoftmax::forward(SecureExecContext& ctx,
                                       const mpc::PartyShare& input) {
  obs::ScopedSpan span("layer.softmax.forward", ctx.mpc->party, ctx.mpc->step);
  cached_probabilities_ = ctx.owner->softmax_forward(input);
  return cached_probabilities_;
}

mpc::PartyShare SecureSoftmax::backward(SecureExecContext& ctx,
                                        const mpc::PartyShare& grad_output,
                                        bool /*input_grad*/) {
  obs::ScopedSpan span("layer.softmax.backward", ctx.mpc->party,
                       ctx.mpc->step);
  return ctx.owner->softmax_backward(cached_probabilities_, grad_output);
}

SecureModel::SecureModel(const nn::ModelSpec& spec,
                         std::vector<mpc::PartyShare> parameter_shares) {
  nn::validate_spec(spec);
  std::size_t next = 0;
  const auto take = [&]() -> mpc::PartyShare {
    TRUSTDDL_REQUIRE(next < parameter_shares.size(),
                     "SecureModel: not enough parameter shares");
    return std::move(parameter_shares[next++]);
  };
  for (const nn::LayerSpec& layer : spec.layers) {
    switch (layer.kind) {
      case nn::LayerSpec::Kind::kConv: {
        mpc::PartyShare weights = take();
        mpc::PartyShare bias = take();
        layers_.push_back(std::make_unique<SecureConv>(
            layer.conv, std::move(weights), std::move(bias),
            layers_.size()));
        break;
      }
      case nn::LayerSpec::Kind::kDense: {
        mpc::PartyShare weights = take();
        mpc::PartyShare bias = take();
        layers_.push_back(std::make_unique<SecureDense>(
            std::move(weights), std::move(bias), layers_.size()));
        break;
      }
      case nn::LayerSpec::Kind::kRelu:
        layers_.push_back(std::make_unique<SecureRelu>());
        break;
      case nn::LayerSpec::Kind::kSoftmax:
        layers_.push_back(std::make_unique<SecureSoftmax>());
        break;
      case nn::LayerSpec::Kind::kMaxPool:
        layers_.push_back(std::make_unique<SecureMaxPool>(layer.pool));
        break;
    }
  }
  TRUSTDDL_REQUIRE(next == parameter_shares.size(),
                   "SecureModel: unused parameter shares");
}

mpc::PartyShare SecureModel::forward(SecureExecContext& ctx,
                                     const mpc::PartyShare& input) {
  obs::ScopedSpan span("model.forward", ctx.mpc->party, ctx.mpc->step);
  mpc::PartyShare activation = input;
  for (auto& layer : layers_) {
    activation = layer->forward(ctx, activation);
  }
  return activation;
}

void SecureModel::backward_from_logit_grad(
    SecureExecContext& ctx, const mpc::PartyShare& grad_logits) {
  obs::ScopedSpan span("model.backward", ctx.mpc->party, ctx.mpc->step);
  if (layers_.size() < 2) {
    return;  // only the skipped softmax
  }
  mpc::PartyShare grad = grad_logits;
  // Skip the trailing softmax layer: the fused gradient is already
  // w.r.t. the logits.  Nothing reads the first layer's input gradient;
  // the paper's protocol forms it anyway.
  for (std::size_t i = layers_.size() - 1; i-- > 0;) {
    grad = layers_[i]->backward(ctx, grad, input_grad(i, ctx.reuse_masks));
  }
}

void SecureModel::sgd_step(SecureExecContext& ctx, double learning_rate,
                           int frac_bits) {
  obs::ScopedSpan span("model.sgd_step", ctx.mpc->party, ctx.mpc->step);
  const std::uint64_t lr_encoded = fx::encode(learning_rate, frac_bits);
  (void)frac_bits;
  // grad * lr is a share-times-public product at scale 2f.  The rescale
  // MUST follow the configured truncation mode: share-local truncation
  // here would re-introduce the cross-set ulp drift that masked-open
  // mode exists to eliminate (weight shares are persistent state, so
  // any drift compounds into divergence between parties under attack —
  // see DESIGN.md §4).  The per-parameter rescales are independent, so
  // in masked-open mode their pairs come in one round trip and their
  // openings share ONE round for the whole update.
  std::vector<SecureParameter*> params = parameters();
  PassMaterial material(ctx);
  sgd_keys(material);
  material.fetch();
  mpc::OpenBatch open_batch(*ctx.mpc);
  std::vector<mpc::DeferredShare> deltas;
  deltas.reserve(params.size());
  for (SecureParameter* parameter : params) {
    deltas.push_back(ctx.rescale_prepare(
        open_batch, parameter->grad.scaled(lr_encoded), material));
  }
  open_batch.flush_all();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value -= deltas[i].take();
    params[i]->zero_grad();
  }
  set_weight_version(weight_version_ + 1);
}

Shape SecureModel::forward_keys(PassKeys& keys, const Shape& input) const {
  Shape shape = input;
  for (const auto& layer : layers_) {
    shape = layer->forward_keys(keys, shape);
  }
  return shape;
}

void SecureModel::backward_keys(PassKeys& keys, std::size_t rows) const {
  if (layers_.size() < 2) {
    return;
  }
  for (std::size_t i = layers_.size() - 1; i-- > 0;) {
    layers_[i]->backward_keys(keys, rows, input_grad(i, keys.reuse_masks()));
  }
}

void SecureModel::sgd_keys(PassKeys& keys) const {
  for (const auto& layer : layers_) {
    for (const SecureParameter* parameter : layer->parameters()) {
      keys.add_trunc(parameter->value.shape());
    }
  }
}

std::vector<mpc::TripleKey> SecureModel::step_keys(
    const SecureExecContext& ctx, const Shape& input, std::uint64_t version,
    bool draw_masks, bool training) const {
  PassKeys keys(ctx, version, draw_masks);
  forward_keys(keys, input);
  if (training) {
    backward_keys(keys, input.at(0));
    sgd_keys(keys);
  }
  return keys.keys();
}

void SecureModel::set_weight_version(std::uint64_t version) {
  weight_version_ = version;
  for (auto& layer : layers_) {
    layer->set_weight_version(version);
  }
}

std::vector<SecureParameter*> SecureModel::parameters() {
  std::vector<SecureParameter*> all;
  for (auto& layer : layers_) {
    for (SecureParameter* parameter : layer->parameters()) {
      all.push_back(parameter);
    }
  }
  return all;
}

void SecureModel::zero_grads() {
  for (SecureParameter* parameter : parameters()) {
    parameter->zero_grad();
  }
}

}  // namespace trustddl::core
