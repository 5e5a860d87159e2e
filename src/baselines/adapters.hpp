// Framework adapters wrapping the TrustDDL engine.
//
// TrustDDL (HbC / malicious) rows of Table II use the engine directly,
// with the paper's per-product opening of W − B unless the extension
// rows ask for reusable weight masks;
// the SafeML row (the authors' predecessor framework, ICDMW'23) is the
// engine in crash-fault mode: replicated shares without commitments,
// plus the per-opening heartbeat round (see SecurityMode::kCrashFault).
#pragma once

#include <memory>

#include "baselines/framework.hpp"
#include "core/engine.hpp"

namespace trustddl::baselines {

class EngineFramework final : public Framework {
 public:
  /// `label` is the framework name printed in Table II.
  EngineFramework(std::string label, nn::ModelSpec spec,
                  core::EngineConfig config);

  std::string name() const override { return label_; }
  std::string adversary_model() const override {
    return mpc::to_string(config_.mode);
  }

  StepCost train(const RealTensor& images, const RealTensor& onehot,
                 double learning_rate, int steps) override;
  StepCost infer(const RealTensor& images, int repeats,
                 std::vector<std::size_t>* predictions = nullptr) override;

  core::TrustDdlEngine& engine() { return engine_; }

 private:
  std::string label_;
  core::EngineConfig config_;
  core::TrustDdlEngine engine_;
};

/// TrustDDL in the requested adversary model: paper-faithful, or with
/// reusable masks (EngineConfig::reuse_masks) for the
/// "TrustDDL + reusable masks" extension rows.
std::unique_ptr<Framework> make_trustddl(nn::ModelSpec spec,
                                         mpc::SecurityMode mode,
                                         std::uint64_t seed = 7,
                                         bool reuse_masks = false);

/// SafeML: crash-fault-tolerant predecessor.
std::unique_ptr<Framework> make_safeml(nn::ModelSpec spec,
                                       std::uint64_t seed = 7);

}  // namespace trustddl::baselines
