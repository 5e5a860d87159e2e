#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/session.hpp"

#include "net/tcp_transport.hpp"
#include "nn/loss.hpp"
#include "numeric/simd.hpp"

namespace trustddl::core {
namespace {

data::TrainTestSplit small_split(std::size_t train = 300,
                                 std::size_t test = 80) {
  data::SyntheticMnistConfig config;
  config.train_count = train;
  config.test_count = test;
  config.seed = 42;
  return data::generate_synthetic_mnist(config);
}

EngineConfig fast_config() {
  EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  return config;
}

TEST(EngineTest, SecureInferenceMatchesPlaintextPredictions) {
  const auto split = small_split(50, 30);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());

  const data::Dataset sample = data::slice(split.test, 0, 12);
  const auto plain_predictions =
      engine.reference_model().predict(sample.images);
  const InferResult result = engine.infer(sample, /*batch_size=*/4);

  ASSERT_EQ(result.labels.size(), 12u);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    matches += (result.labels[i] == plain_predictions[i]) ? 1 : 0;
  }
  // Fixed-point noise can flip near-ties, but predictions should
  // almost always coincide.
  EXPECT_GE(matches, 11u);
  EXPECT_GT(result.cost.total_bytes, 0u);
  EXPECT_GT(result.cost.total_messages, 0u);
}

TEST(EngineTest, TrainingImprovesTestAccuracy) {
  const auto split = small_split(160, 60);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());
  const double initial_accuracy = engine.reference_model().accuracy(
      split.test.images, split.test.labels);

  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  options.learning_rate = 0.4;
  const TrainResult result =
      engine.train(split.train, split.test, options);

  ASSERT_EQ(result.epoch_test_accuracy.size(), 1u);
  EXPECT_GT(result.epoch_test_accuracy[0], initial_accuracy + 0.2);
  EXPECT_GT(result.cost.total_bytes, 0u);
  EXPECT_EQ(result.cost.commitment_violations, 0u);
  EXPECT_EQ(result.cost.share_auth_failures, 0u);
}

TEST(EngineTest, HbcModeIsCheaperThanMalicious) {
  const auto split = small_split(24, 10);
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.evaluate_each_epoch = false;

  EngineConfig hbc = fast_config();
  hbc.mode = mpc::SecurityMode::kHonestButCurious;
  TrustDdlEngine hbc_engine(nn::mnist_mlp_spec(), hbc);
  const auto hbc_result = hbc_engine.train(split.train, split.test, options);

  EngineConfig malicious = fast_config();
  malicious.mode = mpc::SecurityMode::kMalicious;
  TrustDdlEngine mal_engine(nn::mnist_mlp_spec(), malicious);
  const auto mal_result = mal_engine.train(split.train, split.test, options);

  EXPECT_LT(hbc_result.cost.total_bytes, mal_result.cost.total_bytes);
  EXPECT_LT(hbc_result.cost.total_messages, mal_result.cost.total_messages);
}

TEST(EngineTest, TrainingToleratesByzantineParty) {
  const auto split = small_split(96, 40);
  EngineConfig config = fast_config();
  config.trunc_mode = TruncationMode::kMaskedOpen;  // attack-consistent
  config.byzantine_party = 2;
  config.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  config.byzantine.probability = 0.05;
  TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  const double initial_accuracy = engine.reference_model().accuracy(
      split.test.images, split.test.labels);

  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 12;
  options.learning_rate = 0.3;
  const TrainResult result = engine.train(split.train, split.test, options);

  ASSERT_EQ(result.epoch_test_accuracy.size(), 1u);
  EXPECT_GT(result.epoch_test_accuracy[0], initial_accuracy + 0.2);
  // The attacks were seen and survived.
  EXPECT_GT(result.cost.share_auth_failures, 0u);
}

TEST(EngineTest, InferenceToleratesByzantineParty) {
  const auto split = small_split(30, 16);
  EngineConfig honest_config = fast_config();
  TrustDdlEngine honest_engine(nn::mnist_mlp_spec(), honest_config);
  const data::Dataset sample = data::slice(split.test, 0, 8);
  const auto expected = honest_engine.reference_model().predict(sample.images);

  EngineConfig config = fast_config();
  config.trunc_mode = TruncationMode::kMaskedOpen;  // attack-consistent
  config.byzantine_party = 0;
  config.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kCommitmentViolationGlobal;
  TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  const InferResult result = engine.infer(sample, /*batch_size=*/4);

  std::size_t matches = 0;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    matches += (result.labels[i] == expected[i]) ? 1 : 0;
  }
  EXPECT_GE(matches, 7u);
  EXPECT_GT(result.cost.commitment_violations, 0u);
}

TEST(EngineTest, SecureInferenceOverTcpMatchesInMemory) {
  // The same BT (malicious-mode) inference over real loopback sockets:
  // all randomness is seed-derived, so the reconstructed predictions
  // must be bit-identical to the in-memory engine's, and the metered
  // traffic (counted once per message, at the sender) must agree.
  const auto split = small_split(30, 16);
  const data::Dataset sample = data::slice(split.test, 0, 6);

  TrustDdlEngine in_memory(nn::mnist_mlp_spec(), fast_config());
  const InferResult expected = in_memory.infer(sample, /*batch_size=*/3);

  net::NetworkConfig net_config;
  net_config.num_parties = kNumActors;
  net::TcpFabric fabric(net_config);
  TrustDdlEngine over_tcp(nn::mnist_mlp_spec(), fast_config(), fabric);
  const InferResult actual = over_tcp.infer(sample, /*batch_size=*/3);

  EXPECT_EQ(actual.labels, expected.labels);
  EXPECT_EQ(actual.cost.total_messages, expected.cost.total_messages);
  EXPECT_EQ(actual.cost.total_bytes, expected.cost.total_bytes);
  EXPECT_EQ(actual.cost.opening_rounds, expected.cost.opening_rounds);
  EXPECT_EQ(actual.cost.commitment_violations, 0u);
}

TEST(EngineTest, CostReportSplitsProxyAndOwnerTraffic) {
  const auto split = small_split(20, 10);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());
  const InferResult result =
      engine.infer(data::slice(split.test, 0, 4), /*batch_size=*/4);
  EXPECT_GT(result.cost.proxy_bytes, 0u);
  EXPECT_GT(result.cost.owner_bytes, 0u);
  EXPECT_EQ(result.cost.proxy_bytes + result.cost.owner_bytes,
            result.cost.total_bytes);
}

TEST(EngineTest, MaskedOpenTruncationAlsoTrains) {
  const auto split = small_split(48, 24);
  EngineConfig config = fast_config();
  config.trunc_mode = TruncationMode::kMaskedOpen;
  TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  const double initial_accuracy = engine.reference_model().accuracy(
      split.test.images, split.test.labels);

  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 10;
  options.learning_rate = 0.3;
  const TrainResult result = engine.train(split.train, split.test, options);
  ASSERT_EQ(result.epoch_test_accuracy.size(), 1u);
  EXPECT_GT(result.epoch_test_accuracy[0], initial_accuracy);
}

TEST(KernelDeterminismTest, TrainedWeightsBitIdenticalAcrossBackendsAndThreads) {
  // The kernel determinism contract, end to end: the whole secure
  // training loop (sharing, SecMatMul-BT, truncation, robust openings,
  // weight write-back) must produce BIT-IDENTICAL weights across
  // {scalar, SIMD} backends × {1, 4}-thread pools — the protocol's
  // ring arithmetic is exact mod 2^64, the double SIMD kernels keep
  // the scalar per-element operation order (no FMA contraction), and
  // the blocked/parallel matmuls use thread-count-independent
  // accumulation orders.
  const auto split = small_split(64, 24);
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;

  auto train_with = [&](simd::Backend backend, int threads) {
    EXPECT_TRUE(simd::force_backend(backend));
    EngineConfig config = fast_config();
    // A short collect timeout can expire a reveal group and
    // reconstruct the weights from 2-of-3 shares under heavy machine
    // load; after local truncation the share sets disagree by a few
    // ulps, so the 2-share median differs.  That is crash-tolerance
    // timing, not kernel nondeterminism — keep it out of this test.
    config.collect_timeout = std::chrono::seconds(30);
    config.kernels.threads = threads;
    TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
    (void)engine.train(split.train, split.test, options);
    simd::clear_forced_backend();
    std::vector<RealTensor> weights;
    for (nn::Parameter* parameter : engine.reference_model().parameters()) {
      weights.push_back(parameter->value);
    }
    return weights;
  };

  const std::vector<RealTensor> reference =
      train_with(simd::Backend::kScalar, 1);
  ASSERT_FALSE(reference.empty());

  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  if (simd::detected_backend() != simd::Backend::kScalar) {
    backends.push_back(simd::detected_backend());
  }
  for (simd::Backend backend : backends) {
    for (int threads : {1, 4}) {
      if (backend == simd::Backend::kScalar && threads == 1) {
        continue;  // that is the reference run
      }
      const std::vector<RealTensor> weights = train_with(backend, threads);
      ASSERT_EQ(weights.size(), reference.size());
      for (std::size_t p = 0; p < weights.size(); ++p) {
        // Tensor operator== compares every element exactly (doubles
        // included) — no tolerance.
        EXPECT_EQ(weights[p], reference[p])
            << "backend=" << simd::backend_name(backend)
            << " threads=" << threads << " parameter " << p;
      }
    }
  }
}

TEST(EngineTest, InferBatchLargerThanDatasetRunsOnePartialBatch) {
  const auto split = small_split(50, 30);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());

  const data::Dataset sample = data::slice(split.test, 0, 3);
  const InferResult result = engine.infer(sample, /*batch_size=*/8);

  ASSERT_EQ(result.labels.size(), 3u);
  const auto plain = engine.reference_model().predict(sample.images);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    matches += (result.labels[i] == plain[i]) ? 1 : 0;
  }
  EXPECT_GE(matches, 2u);
}

TEST(EngineTest, InferHandlesPartialFinalBatch) {
  const auto split = small_split(50, 30);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());

  // 10 rows at batch 4: two full batches and a final batch of 2.
  const data::Dataset sample = data::slice(split.test, 0, 10);
  const InferResult result = engine.infer(sample, /*batch_size=*/4);

  ASSERT_EQ(result.labels.size(), 10u);
  const auto plain = engine.reference_model().predict(sample.images);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    matches += (result.labels[i] == plain[i]) ? 1 : 0;
  }
  EXPECT_GE(matches, 9u);
}

TEST(EngineTest, InferRejectsEmptyDataset) {
  const auto split = small_split(50, 30);
  TrustDdlEngine engine(nn::mnist_mlp_spec(), fast_config());
  EXPECT_THROW(engine.infer(data::Dataset{}, /*batch_size=*/4),
               InvalidArgument);
}

TEST(SessionTest, CostRoundsComeFromLowestHonestParty) {
  // Party 0 is the configured Byzantine party; a tolerated failure left
  // its log at the default.  The honest parties' counters agree (SPMD),
  // and the report must take them from party 1, not read 0 rounds.
  PartyLogs logs;
  logs[0].emplace();
  for (const std::size_t party : {1u, 2u}) {
    mpc::DetectionLog log;
    log.opens = 7;
    log.values_opened = 56;
    log.record(mpc::DetectionEvent::Kind::kShareAuthFailure, 3, 0);
    logs[party] = log;
  }
  net::TrafficSnapshot traffic;
  traffic.links.assign(5, std::vector<net::LinkMetrics>(5));
  traffic.links[0][1].bytes = 10;  // party <-> party
  traffic.links[4][2].bytes = 5;   // owner -> party
  traffic.total_bytes = 15;

  const CostReport cost =
      collect_cost(traffic, 1.5, logs, /*byzantine_party=*/0);
  EXPECT_EQ(cost.opening_rounds, 7u);
  EXPECT_EQ(cost.values_opened, 56u);
  EXPECT_EQ(cost.share_auth_failures, 2u);
  EXPECT_EQ(cost.proxy_bytes, 10u);
  EXPECT_EQ(cost.owner_bytes, 5u);
  EXPECT_EQ(cost.total_bytes, 15u);
  EXPECT_DOUBLE_EQ(cost.wall_seconds, 1.5);

  // Every party honest: the lowest id (party 0) reports.
  logs[0]->opens = 9;
  EXPECT_EQ(collect_cost(traffic, 1.5, logs, -1).opening_rounds, 9u);
}

TEST(SessionTest, RoleTableRethrowsCriticalAndToleratesOthers) {
  const std::vector<Role> tolerated = {
      {0, [] { throw Error("byzantine party gave up"); }, false},
      {1, [] {}}};
  EXPECT_NO_THROW(run_roles(tolerated));
  const std::vector<Role> critical = {
      {0, [] { throw Error("tolerated"); }, false},
      {1, [] { throw InvalidArgument("critical"); }}};
  EXPECT_THROW(run_roles(critical), InvalidArgument);
}

TEST(SessionTest, EngineCostTakesRoundsFromHonestPartyWhenPartyZeroAttacks) {
  const auto split = small_split(30, 16);
  const data::Dataset sample = data::slice(split.test, 0, 8);
  EngineConfig honest = fast_config();
  honest.trunc_mode = TruncationMode::kMaskedOpen;
  TrustDdlEngine reference(nn::mnist_mlp_spec(), honest);
  const InferResult expected = reference.infer(sample, 4);

  EngineConfig config = honest;
  config.byzantine_party = 0;
  config.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  const InferResult result = engine.infer(sample, 4);
  EXPECT_EQ(result.labels, expected.labels);
  EXPECT_GT(result.cost.share_auth_failures, 0u);
  EXPECT_EQ(result.cost.opening_rounds, expected.cost.opening_rounds);
  EXPECT_EQ(result.cost.values_opened, expected.cost.values_opened);
}

}  // namespace
}  // namespace trustddl::core
