// Tests for the extension features beyond the paper's Table I scope:
// max pooling (plaintext, secure and generic-backend).
#include <gtest/gtest.h>

#include <thread>

#include "baselines/falcon/falcon.hpp"
#include "baselines/securenn/securenn.hpp"
#include "core/engine.hpp"
#include "core/owner_service.hpp"
#include "core/secure_model.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "test_util.hpp"

namespace trustddl {
namespace {

using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

nn::PoolSpec small_pool() {
  nn::PoolSpec spec;
  spec.channels = 2;
  spec.in_height = 4;
  spec.in_width = 4;
  spec.window = 2;
  return spec;
}

TEST(MaxPoolTest, ForwardSelectsWindowMaxima) {
  nn::MaxPoolLayer layer(small_pool());
  RealTensor input(Shape{1, 32});
  for (std::size_t i = 0; i < 32; ++i) {
    input[i] = static_cast<double>(i % 7) - 3.0;
  }
  const RealTensor output = layer.forward(input);
  EXPECT_EQ(output.shape(), (Shape{1, 8}));
  // Manually check one window: channel 0, oy=0, ox=0 covers flat
  // indices {0, 1, 4, 5} -> values {-3, -2, 1, 2} -> max 2.
  EXPECT_DOUBLE_EQ(output.at(0, 0), 2.0);
}

TEST(MaxPoolTest, BackwardRoutesGradientToArgmax) {
  nn::MaxPoolLayer layer(small_pool());
  Rng rng(1);
  const RealTensor input = random_real(Shape{2, 32}, rng, 2.0);
  layer.forward(input);
  RealTensor upstream(Shape{2, 8});
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = 1.0;
  }
  const RealTensor grad = layer.backward(upstream);
  // Gradient mass is conserved and lands only on window maxima.
  EXPECT_DOUBLE_EQ(sum(grad), 16.0);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_TRUE(grad[i] == 0.0 || grad[i] == 1.0);
  }
}

TEST(MaxPoolTest, NumericalGradientCheck) {
  nn::MaxPoolLayer layer(small_pool());
  Rng rng(2);
  RealTensor input = random_real(Shape{1, 32}, rng, 2.0);
  const RealTensor upstream = random_real(Shape{1, 8}, rng, 1.0);

  layer.forward(input);
  const RealTensor analytical = layer.backward(upstream);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double eps = 1e-6;
    const double original = input[i];
    input[i] = original + eps;
    double plus = 0;
    {
      const RealTensor out = layer.forward(input);
      for (std::size_t j = 0; j < out.size(); ++j) {
        plus += out[j] * upstream[j];
      }
    }
    input[i] = original - eps;
    double minus = 0;
    {
      const RealTensor out = layer.forward(input);
      for (std::size_t j = 0; j < out.size(); ++j) {
        minus += out[j] * upstream[j];
      }
    }
    input[i] = original;
    EXPECT_NEAR(analytical[i], (plus - minus) / (2 * eps), 1e-5)
        << "element " << i;
  }
  layer.forward(input);  // restore cache consistency
}

TEST(MaxPoolTest, PooledSpecValidates) {
  const nn::ModelSpec spec = nn::mnist_cnn_pool_spec();
  EXPECT_EQ(spec.layers.size(), 7u);
  Rng rng(3);
  nn::Sequential model = nn::build_model(spec, rng);
  const RealTensor input = random_real(Shape{1, 784}, rng, 0.5);
  EXPECT_EQ(model.forward(input).shape(), (Shape{1, 10}));
}

/// Pooled tiny spec for secure tests.
nn::ModelSpec tiny_pool_spec() {
  nn::ModelSpec spec;
  spec.name = "tiny_pool";
  spec.input_features = 8 * 8;
  spec.classes = 4;
  ConvSpec conv;
  conv.in_channels = 1;
  conv.in_height = 8;
  conv.in_width = 8;
  conv.out_channels = 2;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.pad = 1;
  conv.stride = 1;  // 8x8x2
  nn::PoolSpec pool;
  pool.channels = 2;
  pool.in_height = 8;
  pool.in_width = 8;
  pool.window = 2;  // -> 4x4x2 = 32
  spec.layers = {
      nn::LayerSpec::make_conv(conv),    nn::LayerSpec::make_relu(),
      nn::LayerSpec::make_maxpool(pool), nn::LayerSpec::make_dense(32, 4),
      nn::LayerSpec::make_softmax(),
  };
  nn::validate_spec(spec);
  return spec;
}

TEST(SecureMaxPoolTest, EngineInferenceMatchesPlaintextWithPooling) {
  Rng rng(4);
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  core::TrustDdlEngine engine(tiny_pool_spec(), config);
  data::Dataset inputs;
  inputs.images = random_real(Shape{4, 64}, rng, 0.7);
  inputs.labels.assign(4, 0);
  const auto expected = engine.reference_model().predict(inputs.images);
  const core::InferResult result = engine.infer(inputs, 4);
  EXPECT_EQ(result.labels, expected);
}

TEST(SecureMaxPoolTest, TournamentLevelsShareOpeningRounds) {
  // A 2x2 window runs three comparisons in two tournament levels.  With
  // batch_openings the first level's two comparisons share their two
  // rounds, so the pool opens 4 rounds; without, every comparison takes
  // its own two (6).  Outputs and argmax routing agree bit for bit.
  const nn::PoolSpec pool = tiny_pool_spec().layers[2].pool;
  constexpr std::size_t kRows = 3;
  Rng rng(6);
  const RealTensor input =
      random_real(Shape{kRows, pool.in_features()}, rng, 2.0);
  const auto x_views = mpc::share_secret(to_ring(input, kF), rng);
  const RealTensor upstream =
      random_real(Shape{kRows, pool.out_features()}, rng, 1.0);
  const auto grad_views = mpc::share_secret(to_ring(upstream, kF), rng);

  struct Run {
    std::array<mpc::PartyShare, 3> out;
    std::array<mpc::PartyShare, 3> grad;
    std::array<std::uint64_t, 3> opens{};
  };
  const auto run = [&](bool batch_openings) {
    Run result;
    testing::ThreePartyHarness harness;
    testing::PartyStores stores(31, kF);
    harness.run([&](mpc::PartyContext& pctx) {
      const auto index = static_cast<std::size_t>(pctx.party);
      core::SecureExecContext ctx;
      ctx.mpc = &pctx;
      ctx.triples = &stores[pctx.party];
      ctx.batch_openings = batch_openings;
      core::SecureMaxPool layer(pool);
      result.out[index] = layer.forward(ctx, x_views[index]);
      result.opens[index] = pctx.detections.opens;
      result.grad[index] = layer.backward(ctx, grad_views[index], true);
    });
    return result;
  };
  const Run batched = run(true);
  const Run eager = run(false);
  for (std::size_t party = 0; party < 3; ++party) {
    EXPECT_EQ(batched.opens[party], 4u) << "party " << party;
    EXPECT_EQ(eager.opens[party], 6u) << "party " << party;
    EXPECT_EQ(batched.out[party].primary, eager.out[party].primary);
    EXPECT_EQ(batched.out[party].second, eager.out[party].second);
    EXPECT_EQ(batched.grad[party].primary, eager.grad[party].primary);
    EXPECT_EQ(batched.grad[party].second, eager.grad[party].second);
  }
  nn::MaxPoolLayer plain(pool);
  const RealTensor expected = plain.forward(input);
  EXPECT_LT(max_abs_diff(to_real(mpc::reconstruct(batched.out), kF),
                         expected),
            1e-4);
  EXPECT_LT(max_abs_diff(to_real(mpc::reconstruct(batched.grad), kF),
                         plain.backward(upstream)),
            1e-4);
}

TEST(SecureMaxPoolTest, EngineTrainsPooledModel) {
  data::SyntheticMnistConfig data_config;
  data_config.train_count = 48;
  data_config.test_count = 16;
  const auto split = data::generate_synthetic_mnist(data_config);

  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  core::TrustDdlEngine engine(nn::mnist_cnn_pool_spec(), config);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  options.learning_rate = 0.3;
  const core::TrainResult result =
      engine.train(split.train, split.test, options);
  ASSERT_EQ(result.epoch_test_accuracy.size(), 1u);  // ran to completion
}

TEST(SecureMaxPoolTest, BaselinesEvaluatePooledModel) {
  Rng rng(5);
  const nn::ModelSpec spec = tiny_pool_spec();
  const RealTensor images = random_real(Shape{3, 64}, rng, 0.7);

  baselines::securenn::SecureNnFramework securenn_fw(spec, 9);
  const auto securenn_expected =
      securenn_fw.reference_model().predict(images);
  std::vector<std::size_t> predictions;
  securenn_fw.infer(images, 1, &predictions);
  EXPECT_EQ(predictions, securenn_expected);

  baselines::falcon::FalconFramework falcon_fw(spec, false, 9);
  const auto falcon_expected = falcon_fw.reference_model().predict(images);
  falcon_fw.infer(images, 1, &predictions);
  EXPECT_EQ(predictions, falcon_expected);
}

}  // namespace
}  // namespace trustddl
