// Reusable masks (DESIGN.md §"Reusable masks"): the dealer's
// weight-mask, masked-matmul, masked-conv and comparison-triple entries,
// the plans' accounting for them, and the engine- and
// service-level guarantee that opening each masked value once changes
// bytes, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "mpc/beaver.hpp"
#include "nn/model_zoo.hpp"
#include "numeric/conv.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "train/harness.hpp"
#include "train/server.hpp"

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

/// Every share set of an entry member reconstructs the same value, and
/// each duplicate copies its set's share 1; returns that value.
template <typename Member>
RingTensor reconstruct_every_set(
    const std::array<mpc::MaterialBatch, mpc::kNumParties>& views,
    std::size_t index, Member member) {
  const auto share = [&](int party) -> const mpc::PartyShare& {
    return member(views[static_cast<std::size_t>(party)][index]);
  };
  const RingTensor value = share(0).primary + share(1).second;
  for (int set = 0; set < mpc::kNumSets; ++set) {
    EXPECT_EQ(share(mpc::holder_of_primary(set)).primary +
                  share(mpc::holder_of_second(set)).second,
              value)
        << "set " << set;
    EXPECT_EQ(share(mpc::holder_of_duplicate(set)).duplicate,
              share(mpc::holder_of_primary(set)).primary)
        << "set " << set;
  }
  return value;
}

TEST(ReusableMaskTest, ConvAndComparisonEntriesHoldAtEveryShareSet) {
  constexpr std::size_t kLayer = 0;
  constexpr std::uint64_t kVersion = 3;
  constexpr std::size_t kBatch = 2;
  const ConvSpec conv = nn::tiny_cnn_spec().layers[0].conv;
  const RingTensor b = mpc::weight_mask_value(
      kSeed, kLayer, kVersion, conv.out_channels, conv.col_rows());
  const auto a_of = [](const auto& e) -> const auto& { return e.triple.a; };
  const auto b_of = [](const auto& e) -> const auto& { return e.triple.b; };
  const auto c_of = [](const auto& e) -> const auto& { return e.triple.c; };

  // The conv's kWeightMask re-shares the B its masked-conv entries use.
  const auto masks = mpc::deal_material(
      TripleKey::weight_mask(kLayer, kVersion, conv.out_channels,
                             conv.col_rows()),
      0, 1, kSeed, kF);
  EXPECT_EQ(reconstruct_every_set(
                masks, 0, [](const auto& e) -> const auto& { return e.share; }),
            b);

  // C = B × im2col(a_x), with a_x shaped like the raw input.
  const auto convs = mpc::deal_material(
      TripleKey::masked_conv(kLayer, kVersion, kBatch, conv), 0, 2, kSeed,
      kF);
  for (std::size_t i = 0; i < 2; ++i) {
    const RingTensor a_x = reconstruct_every_set(convs, i, a_of);
    EXPECT_EQ(a_x.shape(),
              (Shape{kBatch, conv.in_channels * conv.in_height *
                                 conv.in_width}));
    EXPECT_EQ(reconstruct_every_set(convs, i, c_of),
              matmul(b, batch_im2col(a_x, conv)));
    for (const auto& view : convs) {
      EXPECT_EQ(view[i].triple.b.primary.size(), 0u);  // no b payload
    }
  }
  EXPECT_NE(reconstruct_every_set(convs, 0, a_of),
            reconstruct_every_set(convs, 1, a_of));

  // Comparison triples: c = t ⊙ b with t in [0.5, 2).
  const Shape shape{3, 5};
  const auto comps =
      mpc::deal_material(TripleKey::comp_triple(shape), 0, 2, kSeed, kF);
  for (std::size_t i = 0; i < 2; ++i) {
    const RingTensor t = reconstruct_every_set(comps, i, a_of);
    ASSERT_EQ(t.shape(), shape);
    for (std::size_t e = 0; e < t.size(); ++e) {
      const double value = fx::decode(t[e], kF);
      EXPECT_GE(value, 0.5);
      EXPECT_LT(value, 2.0);
    }
    EXPECT_EQ(reconstruct_every_set(comps, i, c_of),
              hadamard(t, reconstruct_every_set(comps, i, b_of)));
  }
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

  // Masked-conv keys carry the geometry the dealer expands: the Table I
  // conv at batch 1 costs its input mask plus 5 × its 25 × 196 columns.
  const ConvSpec conv = nn::mnist_cnn_spec().layers[0].conv;
  EXPECT_EQ(mpc::material_cost(TripleKey::masked_conv(0, 1u << 30, 1, conv)),
            784u + 5u * 25u * 196u);
  const auto conv_key = [&](auto edit) {
    TripleKey key = TripleKey::masked_conv(0, 0, 1, conv);
    edit(key.dims);
    return key;
  };
  EXPECT_THROW(mpc::material_cost(conv_key([](Shape& d) { d.pop_back(); })),
               SerializationError);  // wrong arity
  EXPECT_THROW(mpc::material_cost(conv_key([](Shape& d) { d[10] = 0; })),
               SerializationError);  // zero stride
  EXPECT_THROW(mpc::material_cost(conv_key([](Shape& d) { d[7] = 33; })),
               SerializationError);  // kernel past 28 + 2·2
  EXPECT_THROW(mpc::material_cost(conv_key([](Shape& d) {
                 d[9] = std::numeric_limits<std::size_t>::max() / 2;
               })),
               SerializationError);  // padding that wraps
  EXPECT_THROW(mpc::material_cost(conv_key([](Shape& d) {
                 d[2] = std::size_t{1} << 50;
                 d[3] = std::size_t{1} << 20;
               })),
               SerializationError);  // im2col size past SIZE_MAX
  // Zero dims count as 1, so the cost still bounds what dealing sizes:
  // zero out_channels cannot hide a 32769² im2col, nor a zero batch a
  // [2^16, 2^14] weight mask.
  EXPECT_GE(mpc::material_cost(
                TripleKey{mpc::TripleKind::kMaskedConv,
                          Shape{0, 0, 1, 1, 1, 1, 0, 1, 1, 16384, 1}}),
            std::size_t{32769} * 32769);
  EXPECT_GE(mpc::material_cost(TripleKey{
                mpc::TripleKind::kMaskedConv,
                Shape{0, 0, 0, 1 << 14, 1, 1, 1 << 16, 1, 1, 0, 1}}),
            std::size_t{1} << 30);
  // Comparison triples are dealt for a vector or a matrix.
  EXPECT_EQ(mpc::material_cost(TripleKey::comp_triple(Shape{4, 5})), 20u);
  EXPECT_THROW(mpc::material_cost(TripleKey::comp_triple(Shape{2, 2, 2})),
               SerializationError);
  EXPECT_THROW(mpc::material_cost(TripleKey::comp_triple(Shape{})),
               SerializationError);
}

// --- Plans ----------------------------------------------------------

std::size_t count_kind(const std::vector<TripleKey>& keys,
                       mpc::TripleKind kind) {
  return static_cast<std::size_t>(
      std::count_if(keys.begin(), keys.end(),
                    [&](const TripleKey& key) { return key.kind == kind; }));
}

/// A model of `spec` with zero parameters: plans read only its shapes.
core::SecureModel zero_model(const nn::ModelSpec& spec) {
  std::vector<mpc::PartyShare> zeros;
  for (const Shape& shape : nn::parameter_shapes(spec)) {
    zeros.push_back(mpc::zero_share(shape));
  }
  return core::SecureModel(spec, std::move(zeros));
}

core::SecureExecContext masked_context(bool reuse) {
  core::SecureExecContext ctx;
  ctx.trunc_mode = TruncationMode::kMaskedOpen;
  ctx.reuse_masks = reuse;
  return ctx;
}

/// An engine job's steps as its parties plan them: inference steps run
/// at weight version 0, whose masks the first step draws; training step
/// s runs at version s and draws its masks.
std::vector<TripleKey> job_keys(const core::SecureModel& model,
                                const core::SecureExecContext& ctx,
                                const nn::ModelSpec& spec,
                                const std::vector<std::size_t>& batch_rows,
                                bool training) {
  std::vector<TripleKey> keys;
  for (std::size_t step = 0; step < batch_rows.size(); ++step) {
    const std::vector<TripleKey> unit = model.step_keys(
        ctx, Shape{batch_rows[step], spec.input_features},
        training ? step : 0, training || step == 0, training);
    keys.insert(keys.end(), unit.begin(), unit.end());
  }
  return keys;
}

TEST(ReusableMaskTest, PlansOneMaskPerVersionAndEntryPerProduct) {
  const nn::ModelSpec spec = nn::mnist_cnn_spec();  // conv + two dense
  constexpr std::size_t kDense = 2;
  constexpr std::size_t kMasked = kDense + 1;  // the conv's mask too
  constexpr std::size_t kRelus = 2;
  const core::SecureModel model = zero_model(spec);
  const core::SecureExecContext reuse = masked_context(true);

  // Inference: every step runs at version 0, one mask per weight layer.
  const std::vector<TripleKey> infer =
      job_keys(model, reuse, spec, {8, 8, 3}, /*training=*/false);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kWeightMask), kMasked);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kMaskedMatMul), 3 * kDense);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kMaskedConv), 3u);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kCompTriple), 3 * kRelus);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kCompAux), 0u);
  EXPECT_EQ(count_kind(infer, mpc::TripleKind::kMul), 0u);

  // Training: step i runs at version i; forward and backward products.
  const std::vector<TripleKey> training =
      job_keys(model, reuse, spec, {8, 8, 3}, /*training=*/true);
  EXPECT_EQ(count_kind(training, mpc::TripleKind::kWeightMask), 3 * kMasked);
  EXPECT_EQ(count_kind(training, mpc::TripleKind::kMaskedMatMul),
            3 * 2 * kDense);
  EXPECT_EQ(count_kind(training, mpc::TripleKind::kMaskedConv), 3u);
  for (const TripleKey& key : training) {
    if (key.versioned()) {
      EXPECT_EQ(std::count(training.begin(), training.end(), key), 1)
          << "each version's entry is planned once";
    }
  }

  // A training round: every owner's products share the round's mask.
  core::SecureModel at_nine = zero_model(spec);
  at_nine.set_weight_version(9);
  std::vector<TripleKey> round;
  for (const std::vector<TripleKey>& unit : train::round_keys(
           at_nine, reuse, spec, {4, 4, 4}, train::TrainConfig{})) {
    round.insert(round.end(), unit.begin(), unit.end());
  }
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kWeightMask), kMasked);
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kMaskedMatMul),
            3 * 2 * kDense);
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kMaskedConv), 3u);
  // Per owner both ReLUs, then one ranking per parameter.
  EXPECT_EQ(count_kind(round, mpc::TripleKind::kCompTriple),
            3 * kRelus + nn::parameter_shapes(spec).size());

  // Reuse off consumes plain matmul triples only — the paper's path.
  const std::vector<TripleKey> paper =
      job_keys(model, masked_context(false), spec, {8}, /*training=*/true);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kWeightMask), 0u);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kMaskedMatMul), 0u);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kMaskedConv), 0u);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kCompTriple), 0u);
  EXPECT_EQ(count_kind(paper, mpc::TripleKind::kCompAux), kRelus);
}

TEST(ReusableMaskTest, FirstLayersInputGradientIsNeverPlanned) {
  const nn::ModelSpec spec = nn::mnist_cnn_spec();
  const ConvSpec& conv = spec.layers[0].conv;
  constexpr std::size_t kRows = 8;
  const std::size_t columns = kRows * conv.col_cols();
  const TripleKey x_grad =
      TripleKey::matmul(conv.col_rows(), conv.out_channels, columns);
  const TripleKey x_grad_pair =
      TripleKey::trunc_pair(Shape{conv.col_rows(), columns});
  const core::SecureModel model = zero_model(spec);
  const auto planned = [&](bool reuse, const TripleKey& key) {
    const std::vector<TripleKey> keys =
        model.step_keys(masked_context(reuse), Shape{kRows, 784}, 0,
                        /*draw_masks=*/true, /*training=*/true);
    return std::count(keys.begin(), keys.end(), key);
  };
  EXPECT_EQ(planned(/*reuse=*/true, x_grad), 0);
  EXPECT_EQ(planned(/*reuse=*/true, x_grad_pair), 0);
  EXPECT_EQ(planned(/*reuse=*/false, x_grad), 1);
  EXPECT_EQ(planned(/*reuse=*/false, x_grad_pair), 1);
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
  config.reuse_masks = reuse;
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

/// The honest parties' detection events name party 1 and nobody else.
void expect_only_party_one_named(const std::string& label) {
  std::array<bool, 3> named{};
  for (const obs::DetectionEventRecord& event :
       obs::EventLog::global().snapshot()) {
    if (event.party == 1 || event.party < 0) {
      continue;  // the attacker's own view
    }
    EXPECT_TRUE(event.suspect == 1 || event.suspect < 0)
        << label << ": party " << event.party << " accused "
        << event.suspect;
    named[static_cast<std::size_t>(event.party)] |= event.suspect == 1;
  }
  EXPECT_TRUE(named[0]) << label;
  EXPECT_TRUE(named[2]) << label;
}

TEST(ReusableMaskTest, CnnStepsUnderAttackMatchPerProductOpening) {
  // Party 1 runs Case 3 on every opening.  Labels and masked-open
  // weights must not depend on the switch: every product is exact in
  // the ring, every truncation-pair stream keeps its order, and a sign
  // does not depend on t.
  const auto split = small_split(6, 4);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 2;  // 3 SGD steps
  options.learning_rate = 0.3;
  for (const nn::ModelSpec& spec :
       {nn::mnist_cnn_spec(), nn::mnist_cnn_pool_spec()}) {
    std::array<std::vector<std::size_t>, 2> labels;
    std::array<std::vector<RealTensor>, 2> weights;
    std::array<core::CostReport, 2> costs;
    for (const bool reuse : {false, true}) {
      const std::string label =
          spec.name + (reuse ? " reused" : " per product");
      obs::MetricsRegistry::global().reset();
      obs::EventLog::global().clear();
      obs::set_metrics_enabled(true);
      core::TrustDdlEngine engine(spec, attacked(masked_config(reuse)));
      labels[reuse] = engine.infer(split.test, 2).labels;
      costs[reuse] = engine.train(split.train, split.test, options).cost;
      obs::set_metrics_enabled(false);
      expect_only_party_one_named(label);
      for (nn::Parameter* parameter : engine.reference_model().parameters()) {
        weights[reuse].push_back(parameter->value);
      }
    }
    EXPECT_EQ(labels[1], labels[0]) << spec.name;
    ASSERT_EQ(weights[1].size(), weights[0].size());
    for (std::size_t p = 0; p < weights[0].size(); ++p) {
      EXPECT_EQ(weights[1][p], weights[0][p])
          << spec.name << " parameter " << p;
    }
    EXPECT_LT(costs[1].values_opened, costs[0].values_opened) << spec.name;
    EXPECT_LT(costs[1].proxy_bytes, costs[0].proxy_bytes) << spec.name;
  }
}

TEST(ReusableMaskTest, PrefetchedTrainingNeverMissesAndBalances) {
  const auto split = small_split(24, 4);
  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.learning_rate = 0.3;
  const core::EngineConfig config = masked_config(true);

  for (const nn::ModelSpec& spec :
       {nn::mnist_mlp_spec(), nn::mnist_cnn_spec()}) {
    obs::MetricsRegistry::global().reset();
    obs::set_metrics_enabled(true);
    core::TrustDdlEngine engine(spec, config);
    (void)engine.train(split.train, split.test, options);
    obs::set_metrics_enabled(false);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();

    EXPECT_EQ(snapshot.counter_sum("triple.store.miss"), 0u) << spec.name;
    const bool conv = spec.layers[0].kind == nn::LayerSpec::Kind::kConv;
    for (const char* kind : {"weight_mask", "masked_matmul", "masked_conv",
                             "comp_triple", "comp_aux", "mul"}) {
      const std::string name = kind;
      const bool used = name == "masked_conv" ? conv
                        : name == "comp_aux" || name == "mul" ? false
                                                              : true;
      EXPECT_EQ(snapshot.counter_sum("triple.consumed." + name) > 0, used)
          << spec.name << " " << name;
      std::int64_t in_store = 0;
      for (const auto& gauge : snapshot.gauges) {
        if (gauge.name == "triple.store.depth." + name) {
          in_store = gauge.value;
        }
      }
      EXPECT_EQ(snapshot.counter_sum("triple.produced." + name),
                snapshot.counter_sum("triple.consumed." + name) +
                    static_cast<std::uint64_t>(in_store))
          << spec.name << " " << name;
    }
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
  interrupted.engine.reuse_masks = true;
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
