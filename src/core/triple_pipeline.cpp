#include "core/triple_pipeline.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/actors.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.triples";

/// Appends to a plan what the Secure* layers of one step draw.  This
/// walk mirrors the consumption sites in secure_model.cpp — the keys
/// and their order must match the layers' requests exactly, or the
/// store sends ahead what the party does not need next.
/// SecureModelTest.ProfilesListTheDryStoresFetchOrder pins that
/// equivalence against a recording backend.
class StepProfile {
 public:
  StepProfile(DemandPlan& plan, const nn::ModelSpec& spec,
              std::size_t batch_rows, TruncationMode trunc_mode,
              const WeightMaskUse& masks)
      : plan_(plan), spec_(spec), rows_(batch_rows),
        masked_(trunc_mode == TruncationMode::kMaskedOpen), masks_(masks) {}

  void forward() {
    std::size_t features = spec_.input_features;
    for (std::size_t index = 0; index < spec_.layers.size(); ++index) {
      const nn::LayerSpec& layer = spec_.layers[index];
      switch (layer.kind) {
        case nn::LayerSpec::Kind::kDense:
          // x·W and the masked rescale of the product.
          if (masks_.reuse) {
            mask(index, layer.in, layer.out);
            plan_.add(mpc::TripleKey::masked_matmul(
                index, masks_.version, false, rows_, layer.in, layer.out));
          } else {
            plan_.add(mpc::TripleKey::matmul(rows_, layer.in, layer.out));
          }
          trunc(Shape{rows_, layer.out});
          features = layer.out;
          break;
        case nn::LayerSpec::Kind::kConv: {
          const ConvSpec& conv = layer.conv;
          const std::size_t cols = rows_ * conv.col_cols();
          if (masks_.reuse) {
            mask(index, conv.out_channels, conv.col_rows());
            plan_.add(mpc::TripleKey::masked_conv(index, masks_.version,
                                                  rows_, conv));
          } else {
            plan_.add(
                mpc::TripleKey::matmul(conv.out_channels, conv.col_rows(),
                                       cols));
          }
          trunc(Shape{conv.out_channels, cols});
          features = conv.out_channels * conv.col_cols();
          break;
        }
        case nn::LayerSpec::Kind::kRelu:
          // One SecSign on the activation shape.
          comparisons(Shape{rows_, features}, 1);
          break;
        case nn::LayerSpec::Kind::kMaxPool: {
          // Tournament over window^2 candidates: window^2 - 1
          // comparisons, each on the [batch, pools] candidate shape.
          const std::size_t window = layer.pool.window * layer.pool.window;
          comparisons(Shape{rows_, layer.pool.out_features()}, window - 1);
          features = layer.pool.out_features();
          break;
        }
        case nn::LayerSpec::Kind::kSoftmax:
          // Outsourced to the model owner — no dealt material.
          break;
      }
    }
  }

  /// From the layer below the trailing softmax down to layer 0; ReLU
  /// and max-pool backward passes are public-mask products.
  void backward() {
    if (spec_.layers.size() < 2) {
      return;  // only the skipped softmax
    }
    for (std::size_t index = spec_.layers.size() - 1; index-- > 0;) {
      const nn::LayerSpec& layer = spec_.layers[index];
      // With reusable masks nothing reads layer 0's input gradient.
      const bool input_grad = index > 0 || !masks_.reuse;
      if (layer.kind == nn::LayerSpec::Kind::kDense) {
        // Weight grad (in x batch)·(batch x out), then input grad
        // (batch x out)·(out x in), each with its rescale.
        plan_.add(mpc::TripleKey::matmul(layer.in, rows_, layer.out));
        trunc(Shape{layer.in, layer.out});
        if (input_grad) {
          plan_.add(masks_.reuse
                        ? mpc::TripleKey::masked_matmul(
                              index, masks_.version, true, rows_, layer.out,
                              layer.in)
                        : mpc::TripleKey::matmul(rows_, layer.out, layer.in));
          trunc(Shape{rows_, layer.in});
        }
      } else if (layer.kind == nn::LayerSpec::Kind::kConv) {
        const ConvSpec& conv = layer.conv;
        const std::size_t cols = rows_ * conv.col_cols();
        plan_.add(
            mpc::TripleKey::matmul(conv.out_channels, cols, conv.col_rows()));
        trunc(Shape{conv.out_channels, conv.col_rows()});
        if (input_grad) {
          plan_.add(mpc::TripleKey::matmul(conv.col_rows(),
                                           conv.out_channels, cols));
          trunc(Shape{conv.col_rows(), cols});
        }
      }
    }
  }

  /// sgd_step: one masked rescale per parameter, in layer order.
  void sgd() {
    for (const Shape& shape : nn::parameter_shapes(spec_)) {
      trunc(shape);
    }
  }

  void trunc(const Shape& shape) {
    if (masked_) {
      plan_.add(mpc::TripleKey::trunc_pair(shape));
    }
  }

 private:
  /// The version's mask B of a dense or conv layer, drawn with the
  /// layer's first product of the version.
  void mask(std::size_t index, std::size_t rows, std::size_t cols) {
    if (masks_.first_use) {
      plan_.add(mpc::TripleKey::weight_mask(index, masks_.version, rows,
                                            cols));
    }
  }

  void comparisons(const Shape& shape, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      for (const mpc::TripleKey& key :
           mpc::comparison_keys(shape, masks_.reuse)) {
        plan_.add(key);
      }
    }
  }

  DemandPlan& plan_;
  const nn::ModelSpec& spec_;
  std::size_t rows_;
  bool masked_;
  WeightMaskUse masks_;
};

}  // namespace

void DemandPlan::add(const mpc::TripleKey& key, std::size_t count) {
  keys.insert(keys.end(), count, key);
}

void DemandPlan::merge(const DemandPlan& other) {
  keys.insert(keys.end(), other.keys.begin(), other.keys.end());
}

DemandPlan profile_step_demand(const nn::ModelSpec& spec,
                               std::size_t batch_rows,
                               TruncationMode trunc_mode, bool training,
                               const WeightMaskUse& masks) {
  DemandPlan plan;
  StepProfile step(plan, spec, batch_rows, trunc_mode, masks);
  step.forward();
  if (training) {
    step.backward();
    step.sgd();
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
    step_masks.first_use = masks.reuse && (training || step == 0);
    plan.merge(profile_step_demand(spec, batch_rows[step], trunc_mode,
                                   training, step_masks));
  }
  return plan;
}

std::vector<DemandPlan> profile_train_round_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    TruncationMode trunc_mode, const mpc::AggregateOptions& aggregation,
    bool momentum, const WeightMaskUse& masks) {
  std::vector<DemandPlan> units;
  for (std::size_t owner = 0; owner < owner_rows.size(); ++owner) {
    const std::size_t rows = owner_rows[owner];
    WeightMaskUse owner_masks = masks;
    owner_masks.first_use = masks.reuse && owner == 0;
    DemandPlan& unit = units.emplace_back();
    StepProfile step(unit, spec, rows, trunc_mode, owner_masks);
    step.forward();
    // Per-owner logit-gradient normalization: (p - y) * enc(1/rows)
    // rescaled before backward so owner gradients are comparable.
    step.trunc(Shape{rows, spec.classes});
    step.backward();
  }

  DemandPlan& aggregate = units.emplace_back();
  mpc::AggregateOptions options = aggregation;
  options.trunc_mode = trunc_mode;
  // One aggregation per parameter, in SecureModel::parameters() order.
  const std::vector<Shape> shapes = nn::parameter_shapes(spec);
  for (const Shape& shape : shapes) {
    const mpc::AggregateDemand demand =
        mpc::aggregate_demand(owner_rows.size(), shape, options);
    if (demand.needs_trunc_pair) {
      aggregate.add(mpc::TripleKey::trunc_pair(demand.trunc_shape));
    }
    if (demand.needs_comparison) {
      for (const mpc::TripleKey& key :
           mpc::comparison_keys(demand.comparison_shape, masks.reuse)) {
        aggregate.add(key);
      }
    }
  }
  if (momentum && trunc_mode == TruncationMode::kMaskedOpen) {
    // v <- m*v + g: one rescale per parameter.
    for (const Shape& shape : shapes) {
      aggregate.add(mpc::TripleKey::trunc_pair(shape));
    }
  }

  DemandPlan& update = units.emplace_back();
  StepProfile(update, spec, 0, trunc_mode, masks).sgd();
  return units;
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

TriplePipeline::TriplePipeline(const EngineConfig& config,
                               mpc::TripleBackend& backend, int party,
                               bool training)
    : config_(config), party_(party), training_(training),
      store_(backend, party) {
  if (!config_.triple_store_dir.empty()) {
    const std::string path =
        store_path(config_.triple_store_dir, party_, training_);
    if (store_.load(path, store_provenance(config_, training_))) {
      TRUSTDDL_LOG_INFO(kLog)
          << "party " << party_ << " restored " << store_.depth()
          << " dealt entries from " << path;
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

void TriplePipeline::plan_job_step(const nn::ModelSpec& spec,
                                   const std::vector<std::size_t>& batch_rows,
                                   bool training, std::size_t step) {
  plan(profile_job_demand(spec, batch_rows, config_.resolved_trunc_mode(),
                          training, WeightMaskUse{config_.reuse_masks, 0},
                          step, 1));
}

void TriplePipeline::shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  if (!config_.triple_store_dir.empty()) {
    store_.drain();
    const std::string path =
        store_path(config_.triple_store_dir, party_, training_);
    store_.save(path, store_provenance(config_, training_));
    TRUSTDDL_LOG_INFO(kLog)
        << "party " << party_ << " persisted " << store_.depth()
        << " dealt entries to " << path;
  }
}

}  // namespace trustddl::core
