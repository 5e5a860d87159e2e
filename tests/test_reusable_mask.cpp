// Reusable dense-layer weight masks (DESIGN.md §"Reusable weight
// masks"): the dealer's weight-mask and masked-matmul entries, the
// demand profiler's accounting for them, and the engine- and
// service-level guarantee that opening W − B once per weight version
// changes bytes, never results.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/triple_pipeline.hpp"
#include "data/synthetic_mnist.hpp"
#include "mpc/beaver.hpp"
#include "nn/model_zoo.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/metrics.hpp"
#include "train/harness.hpp"

namespace trustddl {
namespace {

using mpc::TripleKey;
using mpc::TruncationMode;

constexpr int kF = fx::kDefaultFracBits;
constexpr std::uint64_t kSeed = 977;

RingTensor reconstruct_views(const std::array<mpc::PartyShare, 3>& views) {
  return mpc::reconstruct(views);
}

template <typename Member>
RingTensor reconstruct_entry(
    const std::array<mpc::MaterialBatch, mpc::kNumParties>& views,
    std::size_t index, Member member) {
  return reconstruct_views(
      {member(views[0][index]), member(views[1][index]),
       member(views[2][index])});
}

// --- Dealer ------------------------------------------------------------

TEST(ReusableMaskTest, DealtEntriesBindToTheVersionsMask) {
  constexpr std::size_t kLayer = 2;
  constexpr std::uint64_t kVersion = 5;
  constexpr std::size_t kIn = 6;
  constexpr std::size_t kOut = 4;
  constexpr std::size_t kRows = 3;
  const RingTensor b =
      mpc::weight_mask_value(kSeed, kLayer, kVersion, kIn, kOut);
  ASSERT_EQ(b.shape(), (Shape{kIn, kOut}));

  // Every entry of the weight-mask stream re-shares the same B.
  const auto masks = mpc::deal_material(
      TripleKey::weight_mask(kLayer, kVersion, kIn, kOut), 0, 2, kSeed, kF);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(reconstruct_entry(masks, i,
                                [](const auto& e) { return e.share; }),
              b);
    // No single share component may reveal B: the sharing randomness
    // must not replay B's generator.
    for (const auto& view : masks) {
      EXPECT_NE(view[i].share.primary, b);
      EXPECT_NE(view[i].share.duplicate, b);
      EXPECT_NE(view[i].share.second, b);
    }
  }

  // Forward entries: c = a×B; backward entries: c = a×Bᵀ.
  const auto forward = mpc::deal_material(
      TripleKey::masked_matmul(kLayer, kVersion, false, kRows, kIn, kOut), 0,
      2, kSeed, kF);
  const auto backward = mpc::deal_material(
      TripleKey::masked_matmul(kLayer, kVersion, true, kRows, kOut, kIn), 0,
      2, kSeed, kF);
  const auto a_of = [](const auto& e) { return e.triple.a; };
  const auto c_of = [](const auto& e) { return e.triple.c; };
  for (std::size_t i = 0; i < 2; ++i) {
    const RingTensor a = reconstruct_entry(forward, i, a_of);
    EXPECT_EQ(a.shape(), (Shape{kRows, kIn}));
    EXPECT_EQ(reconstruct_entry(forward, i, c_of), matmul(a, b));
    const RingTensor a_t = reconstruct_entry(backward, i, a_of);
    EXPECT_EQ(a_t.shape(), (Shape{kRows, kOut}));
    EXPECT_EQ(reconstruct_entry(backward, i, c_of),
              matmul(a_t, transpose(b)));
    for (const auto& view : forward) {
      EXPECT_EQ(view[i].triple.b.primary.size(), 0u);  // no b payload
    }
  }
  // A fresh a per product: consecutive entries differ.
  EXPECT_NE(reconstruct_entry(forward, 0, a_of),
            reconstruct_entry(forward, 1, a_of));

  // Each (layer, version) gets its own B.
  EXPECT_NE(mpc::weight_mask_value(kSeed, kLayer, kVersion + 1, kIn, kOut),
            b);
  EXPECT_NE(mpc::weight_mask_value(kSeed, kLayer + 1, kVersion, kIn, kOut),
            b);
}

TEST(ReusableMaskTest, MalformedKeysAreRejectedAndCostsSaturate) {
  EXPECT_THROW(mpc::material_cost(TripleKey{mpc::TripleKind::kMatMul,
                                            Shape{2, 3}}),
               SerializationError);
  EXPECT_THROW(mpc::material_cost(TripleKey{mpc::TripleKind::kWeightMask,
                                            Shape{0, 1, 2}}),
               SerializationError);
  EXPECT_THROW(mpc::material_cost(TripleKey{mpc::TripleKind::kMaskedMatMul,
                                            Shape{0, 1, 2, 3, 4, 5}}),
               SerializationError);
  EXPECT_THROW(mpc::material_cost(
                   TripleKey{static_cast<mpc::TripleKind>(9), Shape{1}}),
               SerializationError);
  // Layer, version and flag dims never count toward the cost.
  EXPECT_EQ(mpc::material_cost(TripleKey::weight_mask(7, 1u << 30, 10, 20)),
            200u);
  EXPECT_EQ(mpc::material_cost(
                TripleKey::masked_matmul(7, 1u << 30, true, 2, 3, 4)),
            24u);
  // A product that wraps size_t saturates instead.
  EXPECT_EQ(mpc::material_cost(TripleKey::matmul(std::size_t{1} << 62, 4, 1)),
            std::numeric_limits<std::size_t>::max());
}

// --- Demand profiler ---------------------------------------------------

std::size_t count_kind(const core::DemandPlan& plan, mpc::TripleKind kind) {
  std::size_t total = 0;
  for (const auto& [key, count] : plan.counts) {
    total += key.kind == kind ? count : 0;
  }
  return total;
}

TEST(ReusableMaskTest, ProfilerPlansOneMaskPerVersionAndEntryPerProduct) {
  const nn::ModelSpec spec = nn::mnist_cnn_spec();  // two dense layers
  constexpr std::size_t kDense = 2;
  const core::WeightMaskUse reuse{true, 0};

  // Inference: every step runs at version 0, one mask per dense layer.
  const core::DemandPlan infer = core::profile_job_demand(
      spec, {8, 8, 3}, TruncationMode::kMaskedOpen, false, reuse);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kWeightMask), kDense);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kMaskedMatMul), 3 * kDense);

  // Training: step i runs at version i; forward and backward products.
  const core::DemandPlan train = core::profile_job_demand(
      spec, {8, 8, 3}, TruncationMode::kMaskedOpen, true, reuse);
  EXPECT_EQ(count_kind(train, mpc::TripleKind::kWeightMask), 3 * kDense);
  EXPECT_EQ(count_kind(train, mpc::TripleKind::kMaskedMatMul),
            3 * 2 * kDense);
  for (const auto& [key, count] : train.counts) {
    if (key.versioned()) {
      EXPECT_EQ(count, 1u) << "each version's entry is planned once";
    }
  }

  // A training round: every owner's products share the round's mask.
  const core::DemandPlan round = core::profile_train_round_demand(
      spec, {4, 4, 4}, TruncationMode::kMaskedOpen,
      mpc::AggregateOptions{}, false, core::WeightMaskUse{true, 9});
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kWeightMask), kDense);
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kMaskedMatMul),
            3 * 2 * kDense);

  // Reuse off consumes plain matmul triples only — the paper's path.
  const core::DemandPlan paper = core::profile_job_demand(
      spec, {8}, TruncationMode::kMaskedOpen, true);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kWeightMask), 0u);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kMaskedMatMul), 0u);
}

// --- Engine equivalence ------------------------------------------------

data::TrainTestSplit small_split(std::size_t train, std::size_t test) {
  data::SyntheticMnistConfig config;
  config.train_count = train;
  config.test_count = test;
  config.seed = 31;
  return data::generate_synthetic_mnist(config);
}

core::EngineConfig masked_config(bool reuse) {
  core::EngineConfig config;
  config.trunc_mode = TruncationMode::kMaskedOpen;
  config.collect_timeout = std::chrono::seconds(30);
  config.reuse_weight_masks = reuse;
  return config;
}

core::EngineConfig attacked(core::EngineConfig config) {
  config.byzantine_party = 1;
  config.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  config.byzantine.probability = 1.0;
  return config;
}

void expect_same_detections(const core::CostReport& lhs,
                            const core::CostReport& rhs) {
  EXPECT_EQ(lhs.commitment_violations, rhs.commitment_violations);
  EXPECT_EQ(lhs.distance_anomalies, rhs.distance_anomalies);
  EXPECT_EQ(lhs.share_auth_failures, rhs.share_auth_failures);
  EXPECT_EQ(lhs.recovered_opens, rhs.recovered_opens);
  EXPECT_EQ(lhs.opening_rounds, rhs.opening_rounds);
}

TEST(ReusableMaskTest, InferLabelsMatchPerProductOpening) {
  const auto split = small_split(10, 9);
  for (const bool attack : {false, true}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      const auto run = [&](bool reuse) {
        core::EngineConfig config = masked_config(reuse);
        if (attack) {
          config = attacked(config);
        }
        core::TrustDdlEngine engine(nn::mnist_cnn_spec(), config);
        return engine.infer(split.test, batch);
      };
      const core::InferResult paper = run(false);
      const core::InferResult reused = run(true);
      EXPECT_EQ(reused.labels, paper.labels)
          << "batch " << batch << " attack " << attack;
      // Same rounds; the mask opens once instead of once per batch.
      expect_same_detections(reused.cost, paper.cost);
      if (attack) {
        EXPECT_GT(reused.cost.share_auth_failures +
                      reused.cost.distance_anomalies,
                  0u);
      }
      EXPECT_LT(reused.cost.values_opened, paper.cost.values_opened);
      EXPECT_LT(reused.cost.proxy_bytes, paper.cost.proxy_bytes);
    }
  }
}

std::vector<RealTensor> trained_weights(const core::EngineConfig& config,
                                        core::CostReport* cost) {
  const auto split = small_split(24, 4);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;
  core::TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  *cost = engine.train(split.train, split.test, options).cost;
  std::vector<RealTensor> weights;
  for (nn::Parameter* parameter : engine.reference_model().parameters()) {
    weights.push_back(parameter->value);
  }
  return weights;
}

TEST(ReusableMaskTest, TrainedWeightsMatchPerProductOpening) {
  for (const bool attack : {false, true}) {
    core::CostReport paper_cost;
    core::CostReport reused_cost;
    const auto paper = trained_weights(
        attack ? attacked(masked_config(false)) : masked_config(false),
        &paper_cost);
    const auto reused = trained_weights(
        attack ? attacked(masked_config(true)) : masked_config(true),
        &reused_cost);
    ASSERT_EQ(reused.size(), paper.size());
    for (std::size_t p = 0; p < paper.size(); ++p) {
      EXPECT_EQ(reused[p], paper[p]) << "parameter " << p << " attack "
                                     << attack;
    }
    expect_same_detections(reused_cost, paper_cost);
    EXPECT_LT(reused_cost.proxy_bytes, paper_cost.proxy_bytes);
  }
}

TEST(ReusableMaskTest, PrefetchedTrainingNeverMissesAndBalances) {
  const auto split = small_split(24, 4);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;
  core::EngineConfig config = masked_config(true);
  config.triple_prefetch = true;
  config.triple_max_depth = std::size_t{1} << 40;  // plan the whole job

  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  core::TrustDdlEngine engine(nn::mnist_mlp_spec(), config);
  (void)engine.train(split.train, split.test, options);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), 0u);
  for (const char* kind : {"weight_mask", "masked_matmul"}) {
    const std::string name = kind;
    EXPECT_GT(snapshot.counter_sum("triple.consumed." + name), 0u) << name;
    std::int64_t in_store = 0;
    for (const auto& gauge : snapshot.gauges) {
      if (gauge.name == "triple.store.depth." + name) {
        in_store = gauge.value;
      }
    }
    EXPECT_EQ(snapshot.counter_sum("triple.produced." + name),
              snapshot.counter_sum("triple.consumed." + name) +
                  static_cast<std::uint64_t>(in_store))
        << name;
  }
}

// --- Training service --------------------------------------------------

TEST(ReusableMaskTest, TrainServiceResumeMatchesPerProductOpening) {
  const auto fresh_dir = [](const std::string& stem) {
    const auto dir = std::filesystem::temp_directory_path() /
                     (stem + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  };
  const std::string checkpoint_dir = fresh_dir("trustddl_rm_ckpt_");
  const std::string store_dir = fresh_dir("trustddl_rm_tdst_");

  train::TrainSessionConfig session;
  session.spec = nn::mnist_mlp_spec();
  session.engine = masked_config(false);
  session.engine.seed = 13;
  session.engine.collect_timeout = std::chrono::milliseconds(2000);
  session.engine.triple_prefetch = true;
  session.num_owners = 3;
  session.submissions_per_owner = 4;
  session.owner_batch_rows = 4;
  session.train.trim = 1;
  session.train.quorum = 3;
  session.train.round_window = std::chrono::milliseconds(20);
  session.train.rounds_per_epoch = 4;
  session.train.momentum = 0.5;
  session.dataset = small_split(24, 1).train;

  // Reference: the paper's per-product opening, uninterrupted.
  const train::TrainSessionResult reference =
      train::run_training_session(session);
  ASSERT_TRUE(reference.clean);

  // Reusable masks, suspended after 2 of 4 rounds and resumed: the
  // resumed parties continue at weight version 2.
  train::TrainSessionConfig interrupted = session;
  interrupted.engine.reuse_weight_masks = true;
  interrupted.engine.triple_store_dir = store_dir;
  interrupted.train.checkpoint_dir = checkpoint_dir;
  interrupted.train.max_rounds = 2;
  const train::TrainSessionResult suspended =
      train::run_training_session(interrupted);
  EXPECT_FALSE(suspended.clean);

  train::TrainSessionConfig resumed = interrupted;
  resumed.train.max_rounds = 0;
  const train::TrainSessionResult final_session =
      train::run_training_session(resumed);
  EXPECT_TRUE(final_session.clean);
  ASSERT_FALSE(final_session.revealed.empty());
  EXPECT_EQ(final_session.revealed, reference.revealed);

  std::filesystem::remove_all(checkpoint_dir);
  std::filesystem::remove_all(store_dir);
}

}  // namespace
}  // namespace trustddl
