#include "core/triple_pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "core/actors.hpp"
#include "obs/trace.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.triples";

/// Entries fetched per refill round trip (per shape class).
constexpr std::size_t kRefillBatch = 32;

/// The producer refills a stream whose depth falls below this fraction
/// of its target.
constexpr double kLowWater = 0.5;

}  // namespace

void DemandPlan::add(const mpc::TripleKey& key, std::size_t count) {
  if (count == 0) {
    return;
  }
  for (auto& [existing, existing_count] : counts) {
    if (existing == key) {
      existing_count += count;
      return;
    }
  }
  counts.emplace_back(key, count);
}

void DemandPlan::merge(const DemandPlan& other) {
  for (const auto& [key, count] : other.counts) {
    add(key, count);
  }
}

std::size_t DemandPlan::total() const {
  std::size_t sum = 0;
  for (const auto& [key, count] : counts) {
    (void)key;
    sum += count;
  }
  return sum;
}

DemandPlan profile_step_demand(const nn::ModelSpec& spec,
                               std::size_t batch_rows,
                               TruncationMode trunc_mode, bool training,
                               const WeightMaskUse& masks) {
  // This walk mirrors the consumption sites in secure_model.cpp — the
  // shapes below must match the Secure* layers' requests exactly or a
  // "warm" store will still miss.  PrefetchExactnessTest pins that
  // equivalence (miss count zero, store drained after the job).
  const bool masked = trunc_mode == TruncationMode::kMaskedOpen;
  DemandPlan plan;
  // Products against a dense weight: a matmul triple, or with reusable
  // masks a masked-matmul entry of the current weight version.
  const auto weight_product = [&](std::size_t index, bool transposed,
                                  std::size_t k, std::size_t n) {
    plan.add(masks.reuse
                 ? mpc::TripleKey::masked_matmul(index, masks.version,
                                                 transposed, batch_rows, k, n)
                 : mpc::TripleKey::matmul(batch_rows, k, n),
             1);
  };
  const auto trunc = [&](const Shape& shape) {
    if (masked) {
      plan.add(mpc::TripleKey::trunc_pair(shape), 1);
    }
  };
  const auto comparisons = [&](const Shape& shape, std::size_t count) {
    for (const mpc::TripleKey& key :
         mpc::comparison_keys(shape, masks.reuse)) {
      plan.add(key, count);
    }
  };
  std::size_t features = spec.input_features;
  for (std::size_t index = 0; index < spec.layers.size(); ++index) {
    const nn::LayerSpec& layer = spec.layers[index];
    // With reusable masks nothing reads layer 0's input gradient.
    const bool input_grad = training && !(masks.reuse && index == 0);
    switch (layer.kind) {
      case nn::LayerSpec::Kind::kDense: {
        // forward: x·W + masked rescale of the product.
        weight_product(index, /*transposed=*/false, layer.in, layer.out);
        trunc(Shape{batch_rows, layer.out});
        if (training) {
          // backward: weight grad (in x batch)·(batch x out), input
          // grad (batch x out)·(out x in), each rescaled.
          plan.add(mpc::TripleKey::matmul(layer.in, batch_rows, layer.out),
                   1);
          if (input_grad) {
            weight_product(index, /*transposed=*/true, layer.out, layer.in);
          }
          trunc(Shape{layer.in, layer.out});
          if (input_grad) {
            trunc(Shape{batch_rows, layer.in});
          }
        }
        features = layer.out;
        break;
      }
      case nn::LayerSpec::Kind::kConv: {
        const ConvSpec& conv = layer.conv;
        const std::size_t pixels = conv.col_cols();
        const std::size_t cols = batch_rows * pixels;
        plan.add(masks.reuse ? mpc::TripleKey::masked_conv(
                                   index, masks.version, batch_rows, conv)
                             : mpc::TripleKey::matmul(conv.out_channels,
                                                      conv.col_rows(), cols),
                 1);
        trunc(Shape{conv.out_channels, cols});
        if (training) {
          plan.add(mpc::TripleKey::matmul(conv.out_channels, cols,
                                          conv.col_rows()),
                   1);
          if (input_grad) {
            plan.add(mpc::TripleKey::matmul(conv.col_rows(),
                                            conv.out_channels, cols),
                     1);
          }
          trunc(Shape{conv.out_channels, conv.col_rows()});
          if (input_grad) {
            trunc(Shape{conv.col_rows(), cols});
          }
        }
        features = conv.out_channels * pixels;
        break;
      }
      case nn::LayerSpec::Kind::kRelu:
        // forward: one SecSign on the activation shape.  Backward is a
        // public-mask product — no material.
        comparisons(Shape{batch_rows, features}, 1);
        break;
      case nn::LayerSpec::Kind::kMaxPool: {
        // Tournament over window^2 candidates: window^2 - 1 batched
        // comparisons, each on the [batch, pools] candidate shape.
        const std::size_t window_size = layer.pool.window * layer.pool.window;
        comparisons(Shape{batch_rows, layer.pool.out_features()},
                    window_size - 1);
        features = layer.pool.out_features();
        break;
      }
      case nn::LayerSpec::Kind::kSoftmax:
        // Outsourced to the model owner — no dealt material.
        break;
    }
  }
  if (training) {
    // sgd_step: one masked rescale per parameter, in layer order.
    for (const Shape& shape : nn::parameter_shapes(spec)) {
      trunc(shape);
    }
  }
  return plan;
}

DemandPlan profile_version_demand(const nn::ModelSpec& spec,
                                  std::uint64_t version) {
  DemandPlan plan;
  for (std::size_t index = 0; index < spec.layers.size(); ++index) {
    const nn::LayerSpec& layer = spec.layers[index];
    if (layer.kind == nn::LayerSpec::Kind::kDense) {
      plan.add(
          mpc::TripleKey::weight_mask(index, version, layer.in, layer.out),
          1);
    } else if (layer.kind == nn::LayerSpec::Kind::kConv) {
      plan.add(mpc::TripleKey::weight_mask(index, version,
                                           layer.conv.out_channels,
                                           layer.conv.col_rows()),
               1);
    }
  }
  return plan;
}

DemandPlan profile_job_demand(const nn::ModelSpec& spec,
                              const std::vector<std::size_t>& batch_rows,
                              TruncationMode trunc_mode, bool training,
                              const WeightMaskUse& masks, std::size_t first,
                              std::size_t count) {
  DemandPlan plan;
  const std::size_t last =
      first + std::min(count, batch_rows.size() - std::min(first,
                                                           batch_rows.size()));
  for (std::size_t step = first; step < last; ++step) {
    WeightMaskUse step_masks = masks;
    if (training) {
      step_masks.version += step;
    }
    plan.merge(profile_step_demand(spec, batch_rows[step], trunc_mode,
                                   training, step_masks));
    if (masks.reuse && (training || step == 0)) {
      plan.merge(profile_version_demand(spec, step_masks.version));
    }
  }
  return plan;
}

DemandPlan profile_train_round_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    TruncationMode trunc_mode, const mpc::AggregateOptions& aggregation,
    bool momentum, const WeightMaskUse& masks) {
  const bool masked = trunc_mode == TruncationMode::kMaskedOpen;
  DemandPlan plan;
  if (masks.reuse) {
    plan.merge(profile_version_demand(spec, masks.version));
  }
  for (std::size_t rows : owner_rows) {
    plan.merge(profile_step_demand(spec, rows, trunc_mode, /*training=*/true,
                                   masks));
    if (masked) {
      // Per-owner logit-gradient normalization: (p - y) * enc(1/rows)
      // rescaled before backward so owner gradients are comparable.
      plan.add(mpc::TripleKey::trunc_pair(Shape{rows, spec.classes}), 1);
    }
  }
  mpc::AggregateOptions options = aggregation;
  options.trunc_mode = trunc_mode;
  // One aggregation per parameter, in SecureModel::parameters() order.
  for (const Shape& shape : nn::parameter_shapes(spec)) {
    const mpc::AggregateDemand demand =
        mpc::aggregate_demand(owner_rows.size(), shape, options);
    if (demand.needs_comparison) {
      for (const mpc::TripleKey& key :
           mpc::comparison_keys(demand.comparison_shape, masks.reuse)) {
        plan.add(key, 1);
      }
    }
    if (demand.needs_trunc_pair) {
      plan.add(mpc::TripleKey::trunc_pair(demand.trunc_shape), 1);
    }
    if (momentum && masked) {
      plan.add(mpc::TripleKey::trunc_pair(shape), 1);
    }
  }
  return plan;
}

std::uint64_t TriplePipeline::store_provenance(const EngineConfig& config,
                                               bool training) {
  const OwnerServiceConfig owner = make_owner_service_config(config, training);
  // Any change to the dealing seed or the fixed-point format makes
  // persisted material unusable; fold both into the tag.
  return mpc::derive_material_seed(
      owner.seed, mpc::TripleKey::mul(Shape{static_cast<std::size_t>(
                      config.frac_bits)}),
      0x7d57);
}

std::string TriplePipeline::store_path(const std::string& dir, int party,
                                       bool training) {
  return dir + "/party" + std::to_string(party) +
         (training ? ".train" : ".infer") + ".triples";
}

TriplePipeline::TriplePipeline(const EngineConfig& config, OwnerLink& link,
                               int party, bool training)
    : config_(config), party_(party), training_(training),
      store_(link, party) {
  if (!config_.triple_store_dir.empty()) {
    const std::string path =
        store_path(config_.triple_store_dir, party_, training_);
    if (store_.load(path, store_provenance(config_, training_))) {
      TRUSTDDL_LOG_INFO(kLog)
          << "party " << party_ << " restored " << store_.depth()
          << " prefetched entries from " << path;
    }
  }
}

TriplePipeline::~TriplePipeline() {
  try {
    shutdown();
  } catch (const Error& error) {
    TRUSTDDL_LOG_WARN(kLog)
        << "party " << party_ << " pipeline shutdown: " << error.what();
  }
}

void TriplePipeline::plan(const DemandPlan& plan) {
  if (!config_.triple_prefetch) {
    return;
  }
  for (const auto& [key, count] : plan.counts) {
    store_.demand(key, std::min(count, config_.triple_max_depth));
  }
}

void TriplePipeline::plan_step(const nn::ModelSpec& spec, std::size_t rows,
                               std::size_t depth_factor) {
  if (!config_.triple_prefetch) {
    return;
  }
  DemandPlan step = profile_step_demand(
      spec, rows, config_.resolved_trunc_mode(), /*training=*/false,
      WeightMaskUse{config_.reuse_masks, 0});
  DemandPlan scaled;
  for (const auto& [key, count] : step.counts) {
    scaled.add(key, count * std::max<std::size_t>(depth_factor, 1));
  }
  plan(scaled);
}

void TriplePipeline::plan_job_window(const nn::ModelSpec& spec,
                                     const std::vector<std::size_t>& batch_rows,
                                     bool training, std::size_t first) {
  if (!config_.triple_prefetch) {
    return;
  }
  plan(profile_job_demand(spec, batch_rows, config_.resolved_trunc_mode(),
                          training,
                          WeightMaskUse{config_.reuse_masks, 0}, first,
                          config_.triple_max_depth));
}

void TriplePipeline::retire_versions_before(std::uint64_t version) {
  store_.retire_versions_before(version);
}

std::size_t TriplePipeline::warm() {
  if (!config_.triple_prefetch) {
    return 0;
  }
  obs::ScopedSpan span("triple.warm", party_);
  std::size_t total = 0;
  for (;;) {
    const std::size_t added = store_.refill_toward_targets(kRefillBatch);
    if (added == 0) {
      break;
    }
    total += added;
  }
  return total;
}

std::size_t TriplePipeline::refill_once() {
  if (!config_.triple_prefetch) {
    return 0;
  }
  return store_.refill_toward_targets(kRefillBatch);
}

void TriplePipeline::start() {
  if (!config_.triple_prefetch || producer_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_relaxed);
  producer_ = std::thread([this] { producer_loop(); });
}

void TriplePipeline::producer_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::size_t added = 0;
    for (const mpc::TripleKey& key : store_.keys_below(kLowWater)) {
      if (stop_.load(std::memory_order_relaxed)) {
        break;
      }
      added += store_.refill(key, kRefillBatch);
    }
    if (added == 0) {
      // Nothing under water: idle briefly rather than spin on the
      // owner link.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void TriplePipeline::shutdown() {
  if (producer_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    producer_.join();
  }
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  if (!config_.triple_store_dir.empty()) {
    const std::string path =
        store_path(config_.triple_store_dir, party_, training_);
    store_.save(path, store_provenance(config_, training_));
    TRUSTDDL_LOG_INFO(kLog)
        << "party " << party_ << " persisted " << store_.depth()
        << " prefetched entries to " << path;
  }
}

}  // namespace trustddl::core
