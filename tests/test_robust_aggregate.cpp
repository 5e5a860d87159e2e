#include "mpc/robust_aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;
// Scaled averages pay one fixed-point multiply (±1 ulp per summand)
// plus one truncation (±1 ulp, +1 carry under masked open).
constexpr double kAvgTol = 8.0 / (1 << kF);

/// K owner tensors secret-shared to the three parties, plus their
/// material stores.
struct AggFixture {
  std::vector<RealTensor> reals;            ///< decoded (post-to_ring) values
  std::vector<std::array<PartyShare, 3>> views;
  testing::PartyStores stores;

  AggFixture(std::size_t k, const Shape& shape, std::uint64_t seed,
             double bound = 4.0)
      : stores(seed + 4242, kF) {
    Rng rng(seed);
    for (std::size_t owner = 0; owner < k; ++owner) {
      const RingTensor ring = to_ring(random_real(shape, rng, bound), kF);
      reals.push_back(to_real(ring, kF));
      views.push_back(share_secret(ring, rng));
    }
  }

  explicit AggFixture(const std::vector<RealTensor>& values,
                      std::uint64_t seed)
      : stores(seed + 4242, kF) {
    Rng rng(seed);
    for (const RealTensor& value : values) {
      const RingTensor ring = to_ring(value, kF);
      reals.push_back(to_real(ring, kF));
      views.push_back(share_secret(ring, rng));
    }
  }

  std::vector<PartyShare> party_inputs(int party) const {
    std::vector<PartyShare> inputs;
    for (const auto& view : views) {
      inputs.push_back(view[static_cast<std::size_t>(party)]);
    }
    return inputs;
  }
};

/// Run the eager aggregate at every party and open the result, once
/// per comparison path (the paper's t and mul triple, then comparison
/// triples): results [0, 3) and [3, 6) are the parties' openings.
std::array<RealTensor, 6> run_aggregate(const AggFixture& fixture,
                                        const AggregateOptions& options,
                                        AggregateStats* stats = nullptr) {
  std::array<RealTensor, 6> results;
  for (const bool comp_triples : {false, true}) {
    ThreePartyHarness harness;
    harness.run([&](PartyContext& ctx) {
      const auto index = static_cast<std::size_t>(ctx.party);
      TripleStore& source = fixture.stores[ctx.party];
      AggregateStats local_stats;
      PartyShare agg =
          robust_aggregate(ctx, source, fixture.party_inputs(ctx.party),
                           options, comp_triples, &local_stats);
      if (ctx.party == 0 && stats != nullptr) {
        *stats = local_stats;
      }
      results[index + (comp_triples ? 3 : 0)] =
          to_real(open_value(ctx, agg), kF);
    });
  }
  return results;
}

TEST(RobustAggregateTest, TrimmedMeanMatchesReference) {
  AggFixture fixture(5, Shape{3, 4}, 101);
  AggregateOptions options{AggregationRule::kTrimmedMean, 1,
                           TruncationMode::kLocal};
  const RealTensor expected =
      robust_aggregate_reference(fixture.reals, options);
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
}

TEST(RobustAggregateTest, OddMedianSelectsExactValue) {
  AggFixture fixture(5, Shape{7}, 102);
  AggregateOptions options{AggregationRule::kMedian, 0,
                           TruncationMode::kLocal};
  // n_sel == 1: no rescale, so the aggregate IS the selected shared
  // value — decoded result equals the reference exactly.
  const RealTensor expected =
      robust_aggregate_reference(fixture.reals, options);
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-12);
  }
}

TEST(RobustAggregateTest, EvenMedianAveragesMiddlePair) {
  AggFixture fixture(4, Shape{2, 3}, 103);
  AggregateOptions options{AggregationRule::kMedian, 0,
                           TruncationMode::kLocal};
  const RealTensor expected =
      robust_aggregate_reference(fixture.reals, options);
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
}

TEST(RobustAggregateTest, MeanRuleMatchesPlainAverage) {
  AggFixture fixture(4, Shape{6}, 104);
  AggregateOptions options{AggregationRule::kMean, 0, TruncationMode::kLocal};
  RealTensor expected(Shape{6});
  for (std::size_t c = 0; c < expected.size(); ++c) {
    double sum = 0.0;
    for (const RealTensor& value : fixture.reals) {
      sum += value[c];
    }
    expected[c] = sum / 4.0;
  }
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
}

TEST(RobustAggregateTest, TiesBreakByOwnerIndex) {
  // Three owners submit the identical tensor and two submit outliers:
  // every pairwise comparison among the clones opens sign 0, so the
  // rank permutation is decided purely by the index tie-break.
  Rng rng(105);
  const RealTensor base = random_real(Shape{5}, rng, 2.0);
  RealTensor high = base;
  RealTensor low = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    high[i] += 3.0;
    low[i] -= 3.0;
  }
  AggFixture fixture({base, high, base, low, base}, 105);
  AggregateOptions options{AggregationRule::kTrimmedMean, 1,
                           TruncationMode::kLocal};
  const RealTensor expected =
      robust_aggregate_reference(fixture.reals, options);
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
}

TEST(RobustAggregateTest, SingleInputPassesThrough) {
  AggFixture fixture(1, Shape{3}, 106);
  AggregateOptions options{AggregationRule::kTrimmedMean, 2,
                           TruncationMode::kLocal};
  AggregateStats stats;
  for (const auto& result : run_aggregate(fixture, options, &stats)) {
    EXPECT_LT(max_abs_diff(result, fixture.reals[0]), 1e-12);
  }
  EXPECT_EQ(stats.selected_per_coord, 1u);
  EXPECT_EQ(stats.comparisons, 0u);
}

TEST(RobustAggregateTest, TwoInputsClampTrimToPlainMean) {
  // (K-1)/2 == 0 clamps the trim, so K=2 degenerates to the mean and
  // must not spend any comparison material.
  AggFixture fixture(2, Shape{1}, 107);
  AggregateOptions options{AggregationRule::kTrimmedMean, 1,
                           TruncationMode::kLocal};
  AggregateStats stats;
  RealTensor expected(Shape{1});
  expected[0] = (fixture.reals[0][0] + fixture.reals[1][0]) / 2.0;
  for (const auto& result : run_aggregate(fixture, options, &stats)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
  EXPECT_EQ(stats.comparisons, 0u);
  EXPECT_EQ(stats.selected_per_coord, 2u);
}

TEST(RobustAggregateTest, MaskedOpenTruncationMatchesReference) {
  AggFixture fixture(5, Shape{4}, 108);
  AggregateOptions options{AggregationRule::kTrimmedMean, 1,
                           TruncationMode::kMaskedOpen};
  const RealTensor expected =
      robust_aggregate_reference(fixture.reals, options);
  for (const auto& result : run_aggregate(fixture, options)) {
    EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
  }
}

TEST(RobustAggregateTest, PoisonersAreOutvotedAcrossKAndTrim) {
  // K = 3..7 with 0..2 poisoners (never more than the trim can
  // absorb): the trimmed mean must stay inside the honest envelope.
  for (std::size_t k = 3; k <= 7; ++k) {
    const std::size_t max_poisoners = std::min<std::size_t>(2, (k - 1) / 2);
    for (std::size_t poisoners = 0; poisoners <= max_poisoners; ++poisoners) {
      Rng rng(1000 + k * 10 + poisoners);
      const Shape shape{6};
      const RealTensor base = random_real(shape, rng, 1.0);
      std::vector<RealTensor> values;
      for (std::size_t owner = 0; owner < k; ++owner) {
        RealTensor value = base;
        for (std::size_t i = 0; i < value.size(); ++i) {
          value[i] += rng.next_double(-0.05, 0.05);
        }
        if (owner < poisoners) {
          // Alternate scaling directions so poisoners attack both
          // tails of the per-coordinate order.
          const double factor = (owner % 2 == 0) ? 40.0 : -40.0;
          for (std::size_t i = 0; i < value.size(); ++i) {
            value[i] *= factor;
          }
        }
        values.push_back(value);
      }
      AggFixture fixture(values, 2000 + k * 10 + poisoners);
      AggregateOptions options{AggregationRule::kTrimmedMean,
                               std::max<std::size_t>(poisoners, 1),
                               TruncationMode::kLocal};
      const RealTensor expected =
          robust_aggregate_reference(fixture.reals, options);
      const auto results = run_aggregate(fixture, options);
      for (const auto& result : results) {
        EXPECT_LT(max_abs_diff(result, expected), kAvgTol)
            << "k=" << k << " poisoners=" << poisoners;
        for (std::size_t c = 0; c < result.size(); ++c) {
          double honest_lo = 1e30;
          double honest_hi = -1e30;
          for (std::size_t owner = poisoners; owner < k; ++owner) {
            honest_lo = std::min(honest_lo, fixture.reals[owner][c]);
            honest_hi = std::max(honest_hi, fixture.reals[owner][c]);
          }
          EXPECT_GE(result[c], honest_lo - kAvgTol)
              << "k=" << k << " poisoners=" << poisoners << " c=" << c;
          EXPECT_LE(result[c], honest_hi + kAvgTol)
              << "k=" << k << " poisoners=" << poisoners << " c=" << c;
        }
      }
    }
  }
}

TEST(RobustAggregateTest, PreparedAggregatesShareOpeningRounds) {
  // Three parameters aggregated against ONE batch must flush exactly
  // twice under local truncation (Beaver masks, then β) and three
  // times under masked-open (… then the truncation openings).
  AggFixture fx_a(5, Shape{3, 2}, 110);
  AggFixture fx_b(5, Shape{4}, 111);
  AggFixture fx_c(5, Shape{2, 2}, 112);
  for (const auto& [mode, comp_triples] :
       {std::pair{TruncationMode::kLocal, false},
        std::pair{TruncationMode::kMaskedOpen, false},
        std::pair{TruncationMode::kLocal, true},
        std::pair{TruncationMode::kMaskedOpen, true}}) {
    const std::uint64_t expected_flushes =
        mode == TruncationMode::kLocal ? 2u : 3u;
    AggregateOptions options{AggregationRule::kTrimmedMean, 1, mode};
    ThreePartyHarness harness;
    std::array<std::array<RealTensor, 3>, 3> results;
    harness.run([&](PartyContext& ctx) {
      const auto index = static_cast<std::size_t>(ctx.party);
      OpenBatch batch(ctx);
      std::array<DeferredShare, 3> deferred;
      std::array<const AggFixture*, 3> fixtures{&fx_a, &fx_b, &fx_c};
      for (std::size_t i = 0; i < 3; ++i) {
        deferred[i] = robust_aggregate_prepare(
            batch, fixtures[i]->stores[ctx.party],
            fixtures[i]->party_inputs(ctx.party),
            options, comp_triples);
      }
      batch.flush_all();
      EXPECT_EQ(batch.flushes(), expected_flushes);
      for (std::size_t i = 0; i < 3; ++i) {
        results[i][index] = to_real(open_value(ctx, deferred[i].take()), kF);
      }
    });
    for (std::size_t i = 0; i < 3; ++i) {
      std::array<const AggFixture*, 3> fixtures{&fx_a, &fx_b, &fx_c};
      const RealTensor expected =
          robust_aggregate_reference(fixtures[i]->reals, options);
      for (const auto& result : results[i]) {
        EXPECT_LT(max_abs_diff(result, expected), kAvgTol);
      }
    }
  }
}

TEST(RobustAggregateTest, StatsFormAClosedLedger) {
  AggFixture fixture(6, Shape{3, 3}, 113);
  AggregateOptions options{AggregationRule::kTrimmedMean, 2,
                           TruncationMode::kLocal};
  AggregateStats stats;
  run_aggregate(fixture, options, &stats);
  EXPECT_EQ(stats.values_submitted, 6u * 9u);
  EXPECT_EQ(stats.values_aggregated + stats.values_trimmed,
            stats.values_submitted);
  EXPECT_EQ(stats.selected_per_coord, 2u);
  EXPECT_EQ(stats.comparisons, 15u * 9u);
}

TEST(RobustAggregateTest, DemandMirrorsConsumption) {
  // aggregate_keys is what robust_aggregate_prepare fetches and what a
  // party plans ahead of it, for each rule.
  const Shape shape{3, 4};
  const Shape comparison_shape{10, 12};  // {K(K-1)/2, numel} for K = 5
  AggregateOptions trimmed{AggregationRule::kTrimmedMean, 1,
                           TruncationMode::kMaskedOpen};
  EXPECT_EQ(aggregate_keys(5, shape, trimmed, /*comp_triples=*/true),
            (std::vector<TripleKey>{TripleKey::trunc_pair(shape),
                                    TripleKey::comp_triple(comparison_shape)}));
  EXPECT_EQ(aggregate_keys(5, shape, trimmed, /*comp_triples=*/false),
            (std::vector<TripleKey>{TripleKey::trunc_pair(shape),
                                    TripleKey::comp_aux(comparison_shape),
                                    TripleKey::mul(comparison_shape)}));

  AggregateOptions median{AggregationRule::kMedian, 0,
                          TruncationMode::kMaskedOpen};
  // n_sel == 1: no rescale.
  EXPECT_EQ(aggregate_keys(5, shape, median, true),
            comparison_keys(comparison_shape, true));

  AggregateOptions mean{AggregationRule::kMean, 0, TruncationMode::kLocal};
  EXPECT_TRUE(aggregate_keys(5, shape, mean, true).empty());

  EXPECT_TRUE(aggregate_keys(1, shape, trimmed, true).empty());
}

TEST(RobustAggregateReferenceTest, MedianOfKnownValues) {
  std::vector<RealTensor> values;
  for (const double v : {3.0, 1.0, 2.0}) {
    RealTensor t(Shape{1});
    t[0] = v;
    values.push_back(t);
  }
  AggregateOptions options{AggregationRule::kMedian, 0,
                           TruncationMode::kLocal};
  const RealTensor median = robust_aggregate_reference(values, options);
  EXPECT_DOUBLE_EQ(median[0], 2.0);
}

}  // namespace
}  // namespace trustddl::mpc
