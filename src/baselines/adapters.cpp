#include "baselines/adapters.hpp"

#include "nn/loss.hpp"

namespace trustddl::baselines {
namespace {

std::vector<std::size_t> labels_from_onehot(const RealTensor& onehot) {
  std::vector<std::size_t> labels(onehot.rows());
  for (std::size_t row = 0; row < onehot.rows(); ++row) {
    labels[row] = argmax(RealTensor(
        Shape{onehot.cols()},
        std::vector<double>(
            onehot.values().begin() +
                static_cast<std::ptrdiff_t>(row * onehot.cols()),
            onehot.values().begin() +
                static_cast<std::ptrdiff_t>((row + 1) * onehot.cols()))));
  }
  return labels;
}

}  // namespace

EngineFramework::EngineFramework(std::string label, nn::ModelSpec spec,
                                 core::EngineConfig config)
    : label_(std::move(label)),
      config_(config),
      engine_(std::move(spec), config) {}

StepCost EngineFramework::train(const RealTensor& images,
                                const RealTensor& onehot,
                                double learning_rate, int steps) {
  data::Dataset batch;
  batch.images = images;
  batch.labels = labels_from_onehot(onehot);

  core::TrainOptions options;
  options.epochs = static_cast<std::size_t>(steps);  // 1 step per epoch
  options.batch_size = images.rows();
  options.learning_rate = learning_rate;
  options.evaluate_each_epoch = false;
  options.reveal_weights = false;  // isolate per-step protocol cost

  const core::TrainResult result =
      engine_.train(batch, batch, options);
  return StepCost{result.cost.wall_seconds, result.cost.total_bytes,
                  result.cost.total_messages};
}

StepCost EngineFramework::infer(const RealTensor& images, int repeats,
                                std::vector<std::size_t>* predictions) {
  data::Dataset inputs;
  const std::size_t rows = images.rows();
  inputs.images =
      RealTensor(Shape{rows * static_cast<std::size_t>(repeats),
                       images.cols()});
  inputs.labels.assign(rows * static_cast<std::size_t>(repeats), 0);
  for (int repeat = 0; repeat < repeats; ++repeat) {
    for (std::size_t row = 0; row < rows; ++row) {
      for (std::size_t col = 0; col < images.cols(); ++col) {
        inputs.images.at(static_cast<std::size_t>(repeat) * rows + row, col) =
            images.at(row, col);
      }
    }
  }
  const core::InferResult result = engine_.infer(inputs, rows);
  if (predictions != nullptr) {
    predictions->assign(result.labels.end() - static_cast<std::ptrdiff_t>(rows),
                        result.labels.end());
  }
  return StepCost{result.cost.wall_seconds, result.cost.total_bytes,
                  result.cost.total_messages};
}

std::unique_ptr<Framework> make_trustddl(nn::ModelSpec spec,
                                         mpc::SecurityMode mode,
                                         std::uint64_t seed,
                                         bool reuse_masks) {
  core::EngineConfig config;
  config.mode = mode;
  config.seed = seed;
  config.reuse_masks = reuse_masks;
  return std::make_unique<EngineFramework>(
      reuse_masks ? "TrustDDL + reusable masks" : "TrustDDL",
      std::move(spec), config);
}

std::unique_ptr<Framework> make_safeml(nn::ModelSpec spec,
                                       std::uint64_t seed) {
  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kCrashFault;
  config.seed = seed;
  config.reuse_masks = false;
  return std::make_unique<EngineFramework>("SafeML", std::move(spec),
                                           config);
}

}  // namespace trustddl::baselines
