#include "core/secure_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>

#include "core/engine.hpp"
#include "core/owner_service.hpp"
#include "mpc/share_serde.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "test_util.hpp"
#include "train/server.hpp"

namespace trustddl::core {
namespace {

using trustddl::testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

/// Full five-actor harness: three computing-party contexts, a running
/// model-owner service thread, and helpers to share/reconstruct.
class FiveActorHarness {
 public:
  explicit FiveActorHarness(
      mpc::SecurityMode mode = mpc::SecurityMode::kMalicious,
      TruncationMode trunc = TruncationMode::kLocal)
      : network_(net::NetworkConfig{.num_parties = kNumActors,
                                    .recv_timeout =
                                        std::chrono::milliseconds(2000)}),
        trunc_(trunc),
        rng_(12345) {
    OwnerServiceConfig config;
    config.frac_bits = kF;
    config.collect_timeout = std::chrono::milliseconds(500);
    service_ =
        std::make_unique<ModelOwnerService>(network_.endpoint(kModelOwner),
                                            config);
    service_thread_ = std::thread([this] { service_->run(); });
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts_[static_cast<std::size_t>(party)];
      ctx.endpoint = network_.endpoint(party);
      ctx.party = party;
      ctx.mode = mode;
      ctx.frac_bits = kF;
    }
  }

  ~FiveActorHarness() {
    // Any party that did not stop explicitly stops now so the service
    // thread exits.
    service_thread_.join();
  }

  /// Run the SPMD body on three party threads; each gets its context,
  /// an OwnerLink and a material store over it.  Sends kStop
  /// automatically afterwards.
  void run(const std::function<void(SecureExecContext&, int)>& body) {
    net::run_parties(3, [&](net::PartyId party) {
      OwnerLink link(network_.endpoint(party), party,
                     std::chrono::seconds(30));
      mpc::TripleStore store(link, party);
      SecureExecContext ctx;
      ctx.mpc = &contexts_[static_cast<std::size_t>(party)];
      ctx.triples = &store;
      ctx.owner = &link;
      ctx.trunc_mode = trunc_;
      try {
        body(ctx, party);
      } catch (...) {
        link.stop();  // let the service thread exit even on failure
        throw;
      }
      link.stop();
    });
  }

  std::array<mpc::PartyShare, 3> share(const RealTensor& value) {
    return mpc::share_secret(to_ring(value, kF), rng_);
  }

  RealTensor reconstruct(const std::array<mpc::PartyShare, 3>& views) {
    return to_real(mpc::reconstruct(views), kF);
  }

  net::Network network_;
  TruncationMode trunc_;
  Rng rng_;
  std::array<mpc::PartyContext, 3> contexts_;
  std::unique_ptr<ModelOwnerService> service_;
  std::thread service_thread_;
};

TEST(SecureDenseTest, ForwardMatchesPlaintext) {
  Rng rng(1);
  nn::DenseLayer plain(6, 4, rng);
  const RealTensor input = random_real(Shape{3, 6}, rng, 1.0);
  const RealTensor expected = plain.forward(input);

  FiveActorHarness harness;
  const auto w_views = harness.share(plain.weights().value);
  const auto b_views = harness.share(plain.bias().value);
  const auto x_views = harness.share(input);
  std::array<mpc::PartyShare, 3> out_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureDense layer(w_views[index], b_views[index]);
    out_views[index] = layer.forward(ctx, x_views[index]);
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected), 1e-3);
}

TEST(SecureDenseTest, BackwardGradientsMatchPlaintext) {
  Rng rng(2);
  nn::DenseLayer plain(5, 3, rng);
  const RealTensor input = random_real(Shape{2, 5}, rng, 1.0);
  const RealTensor upstream = random_real(Shape{2, 3}, rng, 1.0);
  plain.forward(input);
  const RealTensor expected_dx = plain.backward(upstream);

  FiveActorHarness harness;
  const auto w_views = harness.share(plain.weights().value);
  const auto b_views = harness.share(plain.bias().value);
  const auto x_views = harness.share(input);
  const auto g_views = harness.share(upstream);
  std::array<mpc::PartyShare, 3> dx_views;
  std::array<mpc::PartyShare, 3> dw_views;
  std::array<mpc::PartyShare, 3> db_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureDense layer(w_views[index], b_views[index]);
    layer.forward(ctx, x_views[index]);
    dx_views[index] = layer.backward(ctx, g_views[index], /*input_grad=*/true);
    dw_views[index] = layer.parameters()[0]->grad;
    db_views[index] = layer.parameters()[1]->grad;
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(dx_views), expected_dx), 1e-3);
  EXPECT_LT(max_abs_diff(harness.reconstruct(dw_views), plain.weights().grad),
            1e-3);
  EXPECT_LT(max_abs_diff(harness.reconstruct(db_views), plain.bias().grad),
            1e-3);
}

TEST(SecureConvTest, ForwardAndBackwardMatchPlaintext) {
  Rng rng(3);
  ConvSpec spec;
  spec.in_channels = 1;
  spec.in_height = 6;
  spec.in_width = 6;
  spec.out_channels = 2;
  spec.kernel_h = 3;
  spec.kernel_w = 3;
  spec.pad = 1;
  spec.stride = 2;
  nn::ConvLayer plain(spec, rng);
  const std::size_t out_features = 2 * spec.out_height() * spec.out_width();
  const RealTensor input = random_real(Shape{2, 36}, rng, 1.0);
  const RealTensor upstream =
      random_real(Shape{2, out_features}, rng, 1.0);
  const RealTensor expected_out = plain.forward(input);
  const RealTensor expected_dx = plain.backward(upstream);

  FiveActorHarness harness;
  const auto w_views = harness.share(plain.weights().value);
  const auto b_views = harness.share(plain.bias().value);
  const auto x_views = harness.share(input);
  const auto g_views = harness.share(upstream);
  std::array<mpc::PartyShare, 3> out_views;
  std::array<mpc::PartyShare, 3> dx_views;
  std::array<mpc::PartyShare, 3> dw_views;
  std::array<mpc::PartyShare, 3> db_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureConv layer(spec, w_views[index], b_views[index]);
    out_views[index] = layer.forward(ctx, x_views[index]);
    dx_views[index] = layer.backward(ctx, g_views[index], /*input_grad=*/true);
    dw_views[index] = layer.parameters()[0]->grad;
    db_views[index] = layer.parameters()[1]->grad;
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected_out), 1e-3);
  EXPECT_LT(max_abs_diff(harness.reconstruct(dx_views), expected_dx), 1e-3);
  EXPECT_LT(max_abs_diff(harness.reconstruct(dw_views), plain.weights().grad),
            1e-3);
  const RealTensor db = harness.reconstruct(db_views);
  EXPECT_LT(max_abs_diff(db.reshape(plain.bias().grad.shape()),
                         plain.bias().grad),
            1e-3);
}

TEST(SecureReluTest, MaskMatchesPlaintextAndDrivesBackward) {
  Rng rng(4);
  const RealTensor input(Shape{2, 4},
                         {-1.5, 0.25, 3.0, -0.01, 0.7, -2.0, 0.0, 1.0});
  const RealTensor upstream = random_real(Shape{2, 4}, rng, 1.0);
  nn::ReluLayer plain;
  const RealTensor expected_out = plain.forward(input);
  const RealTensor expected_dx = plain.backward(upstream);

  FiveActorHarness harness;
  const auto x_views = harness.share(input);
  const auto g_views = harness.share(upstream);
  std::array<mpc::PartyShare, 3> out_views;
  std::array<mpc::PartyShare, 3> dx_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureRelu layer;
    out_views[index] = layer.forward(ctx, x_views[index]);
    dx_views[index] = layer.backward(ctx, g_views[index], /*input_grad=*/true);
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected_out), 1e-4);
  EXPECT_LT(max_abs_diff(harness.reconstruct(dx_views), expected_dx), 1e-4);
}

TEST(SecureSoftmaxTest, OutsourcedForwardMatchesPlaintext) {
  Rng rng(5);
  const RealTensor logits = random_real(Shape{3, 5}, rng, 3.0);
  const RealTensor expected = nn::softmax_rows(logits);

  FiveActorHarness harness;
  const auto x_views = harness.share(logits);
  std::array<mpc::PartyShare, 3> out_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureSoftmax layer;
    out_views[index] = layer.forward(ctx, x_views[index]);
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected), 1e-4);
}

TEST(SecureSoftmaxTest, OutsourcedBackwardMatchesPlaintext) {
  Rng rng(6);
  const RealTensor logits = random_real(Shape{2, 4}, rng, 2.0);
  const RealTensor upstream = random_real(Shape{2, 4}, rng, 1.0);
  nn::SoftmaxLayer plain;
  plain.forward(logits);
  const RealTensor expected = plain.backward(upstream);

  FiveActorHarness harness;
  const auto x_views = harness.share(logits);
  const auto g_views = harness.share(upstream);
  std::array<mpc::PartyShare, 3> out_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureSoftmax layer;
    layer.forward(ctx, x_views[index]);
    out_views[index] = layer.backward(ctx, g_views[index], /*input_grad=*/true);
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected), 1e-3);
}

/// Shares the parameters of a plaintext model for all parties.
std::array<std::vector<mpc::PartyShare>, 3> share_model_params(
    nn::Sequential& model, FiveActorHarness& harness) {
  std::array<std::vector<mpc::PartyShare>, 3> shares;
  for (nn::Parameter* parameter : model.parameters()) {
    const auto views = harness.share(parameter->value);
    for (int party = 0; party < 3; ++party) {
      shares[static_cast<std::size_t>(party)].push_back(
          views[static_cast<std::size_t>(party)]);
    }
  }
  return shares;
}

class SecureModelModeSweep
    : public ::testing::TestWithParam<std::tuple<mpc::SecurityMode,
                                                 TruncationMode>> {};

TEST_P(SecureModelModeSweep, FullForwardMatchesPlaintext) {
  const auto [mode, trunc] = GetParam();
  Rng rng(7);
  const nn::ModelSpec spec = nn::tiny_cnn_spec();
  nn::Sequential plain = nn::build_model(spec, rng);
  const RealTensor input = random_real(Shape{2, 144}, rng, 0.5);
  const RealTensor expected = plain.forward(input);

  FiveActorHarness harness(mode, trunc);
  auto param_shares = share_model_params(plain, harness);
  const auto x_views = harness.share(input);
  std::array<mpc::PartyShare, 3> out_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureModel model(spec, std::move(param_shares[index]));
    out_views[index] = model.forward(ctx, x_views[index]);
  });
  EXPECT_LT(max_abs_diff(harness.reconstruct(out_views), expected), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SecureModelModeSweep,
    ::testing::Combine(
        ::testing::Values(mpc::SecurityMode::kHonestButCurious,
                          mpc::SecurityMode::kMalicious),
        ::testing::Values(TruncationMode::kLocal,
                          TruncationMode::kMaskedOpen)));

TEST(SecureModelTest, TrainingStepMatchesPlaintextUpdate) {
  Rng rng(8);
  const nn::ModelSpec spec = nn::mnist_mlp_spec();
  nn::Sequential plain = nn::build_model(spec, rng);
  const RealTensor input = random_real(Shape{4, 784}, rng, 0.5);
  const RealTensor targets = nn::one_hot({1, 4, 7, 2}, 10);
  const double lr = 0.2;

  FiveActorHarness harness;
  auto param_shares = share_model_params(plain, harness);
  const auto x_views = harness.share(input);
  const auto y_views = harness.share(targets);

  std::array<std::vector<mpc::PartyShare>, 3> updated;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureModel model(spec, std::move(param_shares[index]));
    const mpc::PartyShare probabilities =
        model.forward(ctx, x_views[index]);
    const mpc::PartyShare grad = probabilities - y_views[index];
    model.backward_from_logit_grad(ctx, grad);
    model.sgd_step(ctx, lr / 4.0, kF);
    for (SecureParameter* parameter : model.parameters()) {
      updated[index].push_back(parameter->value);
    }
  });

  // Plaintext reference step (fused gradient divides by batch).
  nn::SgdOptimizer optimizer(lr);
  plain.train_step(input, targets, optimizer);

  const auto plain_params = plain.parameters();
  for (std::size_t i = 0; i < plain_params.size(); ++i) {
    const RealTensor secure_value = harness.reconstruct(
        {updated[0][i], updated[1][i], updated[2][i]});
    EXPECT_LT(max_abs_diff(secure_value, plain_params[i]->value), 5e-3)
        << plain_params[i]->name;
  }
}

/// Forwards to another backend and records the key of every range
/// sent, and the number of round trips (runs of sends followed by
/// receives); a store that holds nothing sends every entry it hands
/// out.
class RecordingBackend final : public mpc::TripleBackend {
 public:
  explicit RecordingBackend(mpc::TripleBackend& inner) : inner_(inner) {}
  mpc::FillTicket send_fill(const mpc::FillRange& range) override {
    keys.push_back(range.key);
    if (!sending_) {
      sending_ = true;
      ++calls;
    }
    return inner_.send_fill(range);
  }
  mpc::MaterialBatch receive_fill(const mpc::FillTicket& ticket) override {
    sending_ = false;
    return inner_.receive_fill(ticket);
  }
  std::vector<mpc::TripleKey> keys;
  std::size_t calls = 0;

 private:
  mpc::TripleBackend& inner_;
  bool sending_ = false;
};

TEST(SecureModelTest, FirstLayerInputGradientIsNeverRequested) {
  // Nothing reads the conv's input gradient: with reusable masks its
  // Wᵀ·dY triple ({k, outC, batch·P}) and truncation pair are never
  // fetched; the paper's path still fetches them.
  Rng rng(10);
  const nn::ModelSpec spec = nn::tiny_cnn_spec();
  const ConvSpec& conv = spec.layers[0].conv;
  constexpr std::size_t kRows = 2;
  const std::size_t columns = kRows * conv.col_cols();
  const mpc::TripleKey x_grad =
      mpc::TripleKey::matmul(conv.col_rows(), conv.out_channels, columns);
  const mpc::TripleKey x_grad_pair =
      mpc::TripleKey::trunc_pair(Shape{conv.col_rows(), columns});
  nn::Sequential plain = nn::build_model(spec, rng);
  const RealTensor input = random_real(Shape{kRows, 144}, rng, 0.5);
  const RealTensor targets = nn::one_hot({1, 3}, spec.classes);
  for (const bool reuse : {false, true}) {
    FiveActorHarness harness(mpc::SecurityMode::kMalicious,
                             TruncationMode::kMaskedOpen);
    auto param_shares = share_model_params(plain, harness);
    const auto x_views = harness.share(input);
    const auto y_views = harness.share(targets);
    std::array<std::vector<mpc::TripleKey>, 3> requested;
    harness.run([&](SecureExecContext& ctx, int party) {
      const auto index = static_cast<std::size_t>(party);
      RecordingBackend recording(*ctx.owner);
      mpc::TripleStore store(recording, party);
      ctx.triples = &store;
      ctx.reuse_masks = reuse;
      SecureModel model(spec, std::move(param_shares[index]));
      const mpc::PartyShare probabilities =
          model.forward(ctx, x_views[index]);
      model.backward_from_logit_grad(ctx, probabilities - y_views[index]);
      requested[index] = recording.keys;
    });
    for (const auto& keys : requested) {
      const auto count = [&](const mpc::TripleKey& key) {
        return std::count(keys.begin(), keys.end(), key);
      };
      EXPECT_EQ(count(x_grad), reuse ? 0 : 1) << "reuse " << reuse;
      EXPECT_EQ(count(x_grad_pair), reuse ? 0 : 1) << "reuse " << reuse;
      EXPECT_EQ(keys, requested[0]) << "parties request in SPMD order";
    }
  }
}

TEST(SecureModelTest, DryStoreFetchesEachLayerPassInOneCall) {
  // A store with nothing planned holds nothing, so every entry misses:
  // each layer pass's misses still reach the backend in one call, not
  // one per key.
  Rng rng(11);
  const nn::ModelSpec spec = nn::tiny_cnn_spec();
  constexpr std::size_t kRows = 3;
  nn::Sequential plain = nn::build_model(spec, rng);
  const RealTensor input =
      random_real(Shape{kRows, spec.input_features}, rng, 0.5);
  FiveActorHarness harness(mpc::SecurityMode::kMalicious,
                           TruncationMode::kMaskedOpen);
  auto param_shares = share_model_params(plain, harness);
  const auto x_views = harness.share(input);
  // conv, relu, dense, relu, dense: softmax draws no material.
  constexpr std::size_t kPasses = 5;
  std::array<std::size_t, 3> calls{};
  std::array<std::size_t, 3> fetched{};
  std::array<std::size_t, 3> planned{};
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    RecordingBackend recording(*ctx.owner);
    mpc::TripleStore store(recording, party);
    ctx.triples = &store;
    SecureModel model(spec, std::move(param_shares[index]));
    planned[index] =
        model.step_keys(ctx, x_views[index].shape(), 0, /*draw_masks=*/true,
                        /*training=*/false)
            .size();
    (void)model.forward(ctx, x_views[index]);
    calls[index] = recording.calls;
    fetched[index] = recording.keys.size();
    EXPECT_EQ(store.misses(), recording.keys.size());
  });
  for (std::size_t party = 0; party < 3; ++party) {
    EXPECT_EQ(calls[party], kPasses) << "party " << party;
    EXPECT_EQ(fetched[party], planned[party]) << "party " << party;
  }
}

TEST(SecureModelTest, StepKeysMergeAcrossBatchSizes) {
  // The engine plans a job step by step: two same-size steps share
  // shape classes, the partial batch gets its own.
  const nn::ModelSpec spec = nn::mnist_mlp_spec();
  std::vector<mpc::PartyShare> zeros;
  for (const Shape& shape : nn::parameter_shapes(spec)) {
    zeros.push_back(mpc::zero_share(shape));
  }
  const SecureModel model(spec, zeros);
  SecureExecContext ctx;
  ctx.trunc_mode = TruncationMode::kLocal;
  ctx.reuse_masks = false;
  const auto keys = [&](std::size_t rows, bool training) {
    return model.step_keys(ctx, Shape{rows, spec.input_features}, 0,
                           /*draw_masks=*/false, training);
  };
  const std::vector<mpc::TripleKey> one = keys(8, /*training=*/false);
  EXPECT_FALSE(one.empty());
  std::vector<mpc::TripleKey> job;
  for (const std::size_t rows : {8, 8, 4}) {
    const std::vector<mpc::TripleKey> step = keys(rows, false);
    job.insert(job.end(), step.begin(), step.end());
  }
  EXPECT_EQ(job.size(), 2 * one.size() + keys(4, false).size());
  // Masked truncation adds pairs, training adds backward material.
  ctx.trunc_mode = TruncationMode::kMaskedOpen;
  EXPECT_GT(keys(8, /*training=*/true).size(), one.size());
}

TEST(SecureModelTest, ProfilesListTheDryStoresFetchOrder) {
  // The store sends ahead in plan order, so a plan must list what the
  // layers fetch in the order they fetch them — each version's masks
  // first in the layer pass that first uses them.  A dry store fetches
  // every entry when the layers ask, so its backend log IS that order:
  // a training step, two inference batches (the second reuses the armed
  // masks) and a three-owner training-service round with momentum, each
  // planned as its party plans it.  Both material paths (the paper's,
  // with its first-layer input gradient, and reusable masks), both
  // truncation modes, and the Table I CNN as well as its max-pool
  // variant, whose tournament draws a comparison per window slot pair.
  // The openings run honest-but-curious: the security mode does not
  // change what a pass draws, and the malicious round doubles the time.
  const std::vector<std::size_t> owner_rows = {2, 1, 2};
  train::TrainConfig round_config;
  round_config.rule = mpc::AggregationRule::kTrimmedMean;
  round_config.trim = 1;
  round_config.momentum = 0.5;
  using Plan = std::vector<std::vector<mpc::TripleKey>>;
  for (const nn::ModelSpec& spec :
       {nn::mnist_cnn_spec(), nn::mnist_cnn_pool_spec()}) {
    for (const TruncationMode trunc :
         {TruncationMode::kMaskedOpen, TruncationMode::kLocal}) {
      for (const bool reuse : {false, true}) {
        SCOPED_TRACE(spec.name + (trunc == TruncationMode::kLocal
                                      ? ", local truncation"
                                      : ", masked-open truncation") +
                     (reuse ? ", reusable masks" : ", paper path"));
        Rng rng(12);
        nn::Sequential plain = nn::build_model(spec, rng);
        FiveActorHarness harness(mpc::SecurityMode::kHonestButCurious, trunc);
        auto param_shares = share_model_params(plain, harness);
        std::vector<std::array<mpc::PartyShare, 3>> xs;
        std::vector<std::array<mpc::PartyShare, 3>> ys;
        for (const std::size_t rows : {std::size_t{2}, std::size_t{3},
                                       std::size_t{1}, std::size_t{2},
                                       std::size_t{1}, std::size_t{2}}) {
          xs.push_back(harness.share(
              random_real(Shape{rows, spec.input_features}, rng, 0.5)));
          std::vector<std::size_t> labels(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            labels[r] = r % spec.classes;
          }
          ys.push_back(harness.share(nn::one_hot(labels, spec.classes)));
        }

        // Per party: the planned units and the dry store's log of each.
        std::array<Plan, 3> plans;
        std::array<Plan, 3> logs;
        harness.run([&](SecureExecContext& ctx, int party) {
          const auto index = static_cast<std::size_t>(party);
          ctx.reuse_masks = reuse;
          Plan& plan = plans[index];
          const auto record = [&](const std::function<void()>& body) {
            RecordingBackend recording(*ctx.owner);
            mpc::TripleStore store(recording, party);
            ctx.triples = &store;
            body();
            logs[index].push_back(recording.keys);
          };
          // An engine training step at weight version 0.
          SecureModel trained(spec, param_shares[index]);
          plan.push_back(trained.step_keys(ctx, xs[0][index].shape(), 0,
                                           /*draw_masks=*/true,
                                           /*training=*/true));
          record([&] {
            const mpc::PartyShare p = trained.forward(ctx, xs[0][index]);
            trained.backward_from_logit_grad(ctx, p - ys[0][index]);
            trained.sgd_step(ctx, 0.1, kF);
          });
          // Serving: the first batch draws the masks, the second reuses
          // them.
          SecureModel served(spec, param_shares[index]);
          for (const std::size_t batch : {1, 2}) {
            plan.push_back(served.step_keys(ctx, xs[batch][index].shape(),
                                            served.weight_version(),
                                            /*draw_masks=*/batch == 1,
                                            /*training=*/false));
            record([&] { (void)served.forward(ctx, xs[batch][index]); });
          }
          // A training-service round at version 1 (trained's next
          // version): each owner's unit, then the aggregation and the
          // update, which aggregate_and_step draws in one go.
          const Plan round =
              train::round_keys(trained, ctx, spec, owner_rows, round_config);
          std::vector<mpc::TripleKey> tail = round[owner_rows.size()];
          tail.insert(tail.end(), round.back().begin(), round.back().end());
          plan.insert(plan.end(), round.begin(),
                      round.begin() + static_cast<std::ptrdiff_t>(
                                          owner_rows.size()));
          plan.push_back(tail);
          std::vector<mpc::PartyShare> velocity;
          const std::vector<SecureParameter*> params = trained.parameters();
          for (SecureParameter* parameter : params) {
            velocity.push_back(mpc::zero_share(parameter->value.shape()));
          }
          std::vector<std::vector<mpc::PartyShare>> owner_grads(
              params.size());
          for (std::size_t owner = 0; owner < owner_rows.size(); ++owner) {
            record([&] {
              train::owner_gradient(trained, ctx, xs[3 + owner][index],
                                    ys[3 + owner][index]);
            });
            for (std::size_t i = 0; i < params.size(); ++i) {
              owner_grads[i].push_back(params[i]->grad);
            }
          }
          record([&] {
            train::aggregate_and_step(trained, ctx, owner_grads,
                                      round_config, velocity);
          });
        });

        const char* names[] = {"training step", "first inference batch",
                               "second inference batch", "owner 0",
                               "owner 1", "owner 2",
                               "aggregation and update"};
        for (std::size_t party = 0; party < 3; ++party) {
          ASSERT_EQ(logs[party].size(), std::size(names));
          ASSERT_EQ(plans[party].size(), std::size(names));
          for (std::size_t i = 0; i < std::size(names); ++i) {
            EXPECT_EQ(logs[party][i], plans[party][i])
                << names[i] << ", party " << party;
          }
          EXPECT_EQ(plans[party], plans[0]) << "parties plan in SPMD order";
        }
        // The masks lead the version's first forward pass.
        const auto leads_with_mask =
            [](const std::vector<mpc::TripleKey>& keys) {
              return !keys.empty() &&
                     keys.front().kind == mpc::TripleKind::kWeightMask;
            };
        EXPECT_EQ(leads_with_mask(plans[0][0]), reuse);
        EXPECT_EQ(leads_with_mask(plans[0][3]), reuse);
      }
    }
  }
}

TEST(SecureModelTest, ByzantinePartyDoesNotCorruptTraining) {
  Rng rng(9);
  const nn::ModelSpec spec = nn::tiny_cnn_spec();
  nn::Sequential plain = nn::build_model(spec, rng);
  const RealTensor input = random_real(Shape{2, 144}, rng, 0.5);
  const RealTensor expected = plain.forward(input);

  // Masked-open truncation keeps honest parties' adopted values
  // bit-identical under exclusion (see EngineConfig::trunc_mode).
  FiveActorHarness harness(mpc::SecurityMode::kMalicious,
                           TruncationMode::kMaskedOpen);
  mpc::ByzantineConfig byzantine;
  byzantine.behavior = mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  byzantine.probability = 1.0;
  mpc::StandardAdversary adversary(byzantine);
  harness.contexts_[1].adversary = &adversary;

  auto param_shares = share_model_params(plain, harness);
  const auto x_views = harness.share(input);
  std::array<mpc::PartyShare, 3> out_views;
  harness.run([&](SecureExecContext& ctx, int party) {
    const auto index = static_cast<std::size_t>(party);
    SecureModel model(spec, std::move(param_shares[index]));
    out_views[index] = model.forward(ctx, x_views[index]);
  });

  // Verify using a set fully held by the honest parties 0 and 2.
  for (int set = 0; set < mpc::kNumSets; ++set) {
    const int p1 = mpc::holder_of_primary(set);
    const int p2 = mpc::holder_of_second(set);
    if (p1 == 1 || p2 == 1) {
      continue;
    }
    const RealTensor got = to_real(
        out_views[static_cast<std::size_t>(p1)].primary +
            out_views[static_cast<std::size_t>(p2)].second,
        kF);
    EXPECT_LT(max_abs_diff(got, expected), 5e-3);
  }
  EXPECT_GT(adversary.attacks_launched(), 0u);
}

}  // namespace
}  // namespace trustddl::core
