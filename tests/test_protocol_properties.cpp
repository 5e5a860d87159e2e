// Randomized property sweeps over the Byzantine-tolerant protocols:
// correctness of SecMatMul-BT for random dimensions, accumulation
// through chained operations, comparison edge cases, and robustness of
// the malicious opening under randomized corruption patterns.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mpc/adversary.hpp"
#include "mpc/protocols_bt.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

class MatMulDimensionSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatMulDimensionSweep, RandomDimensionsMatchPlaintext) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 5);
  const std::size_t m = 1 + rng.next_below(6);
  const std::size_t k = 1 + rng.next_below(10);
  const std::size_t n = 1 + rng.next_below(6);
  const RealTensor x = random_real(Shape{m, k}, rng, 2.0);
  const RealTensor y = random_real(Shape{k, n}, rng, 2.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyStores stores(
      static_cast<std::uint64_t>(GetParam()) + 1000, kF);

  ThreePartyHarness harness;
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    TripleStore& source = stores[ctx.party];
    PartyShare z = sec_matmul_bt(
        ctx, x_views[static_cast<std::size_t>(ctx.party)],
        y_views[static_cast<std::size_t>(ctx.party)],
        source.matmul_triple(m, k, n));
    z = truncate_product_local(z, kF);
    results[static_cast<std::size_t>(ctx.party)] =
        to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = matmul(x, y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected),
              static_cast<double>(k) * 4e-4)
        << "dims " << m << "x" << k << "x" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulDimensionSweep,
                         ::testing::Range(0, 10));

TEST(ProtocolPropertyTest, LinearCombinationThenMultiply) {
  // (2x - 3y + c) (.) w exercises share addition, public constants,
  // scalar multiplication and SecMul in one pipeline.
  Rng rng(41);
  const Shape shape{7};
  const RealTensor x = random_real(shape, rng, 1.5);
  const RealTensor y = random_real(shape, rng, 1.5);
  const RealTensor w = random_real(shape, rng, 1.5);
  const double constant = 0.75;
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  const auto w_views = share_secret(to_ring(w, kF), rng);
  testing::PartyStores stores(4242, kF);

  ThreePartyHarness harness;
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    // u = 2x - 3y + c, all local: raw-integer scalars preserve the
    // fixed-point scale.
    PartyShare u = x_views[index].scaled(2) - y_views[index].scaled(3);
    u.add_public(
        RingTensor::full(shape, fx::encode(constant, kF)));
    PartyShare z =
        sec_mul_bt(ctx, u, w_views[index], source.mul_triple(shape));
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });

  RealTensor expected(shape);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = (2 * x[i] - 3 * y[i] + constant) * w[i];
  }
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-3);
  }
}

TEST(ProtocolPropertyTest, ComparisonEdgeCases) {
  Rng rng(43);
  const RealTensor x(Shape{6}, {0.0, 1e-5, -1e-5, 1000.0, -1000.0, 0.5});
  const RealTensor y(Shape{6}, {0.0, 0.0, 0.0, 999.0, -999.0, 0.5});
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyStores stores(77, kF);

  ThreePartyHarness harness;
  std::array<RingTensor, 3> signs;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    signs[index] =
        sec_comp_bt(ctx, x_views[index], y_views[index],
                    {source.comp_aux(Shape{6}), source.mul_triple(Shape{6})});
  });
  const std::vector<int> expected{0, 1, -1, 1, -1, 0};
  for (const auto& result : signs) {
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(static_cast<std::int64_t>(result[i]), expected[i])
          << "element " << i;
    }
  }
}

TEST(ProtocolPropertyTest, ReluMaskIdempotentOnGradients) {
  // relu backward mask equals forward mask: mask (.) mask == mask.
  Rng rng(47);
  const Shape shape{12};
  const RealTensor x = random_real(shape, rng, 3.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  testing::PartyStores stores(99, kF);

  ThreePartyHarness harness;
  std::array<RingTensor, 3> masks;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    const RingTensor signs =
        sec_sign_bt(ctx, x_views[index],
                    {source.comp_aux(shape), source.mul_triple(shape)});
    masks[index] = positive_mask(signs);
  });
  EXPECT_EQ(masks[0], masks[1]);
  EXPECT_EQ(masks[1], masks[2]);
  const RingTensor squared = hadamard(masks[0], masks[0]);
  EXPECT_EQ(squared, masks[0]);
}

class RandomCorruption : public ::testing::TestWithParam<int> {};

TEST_P(RandomCorruption, AlwaysDeliversCorrectValueToHonest) {
  // Randomized single-party corruption pattern per seed: behaviour,
  // Byzantine index and probability drawn from the seed.
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const int byzantine = static_cast<int>(meta.next_below(3));
  const ByzantineConfig::Behavior behaviors[] = {
      ByzantineConfig::Behavior::kConsistentCorruption,
      ByzantineConfig::Behavior::kCommitmentViolationGlobal,
      ByzantineConfig::Behavior::kCommitmentViolationSingle,
      ByzantineConfig::Behavior::kCoordinatedDelta,
  };
  ByzantineConfig config;
  config.behavior = behaviors[meta.next_below(4)];
  config.target_peer = (byzantine + 1 + static_cast<int>(meta.next_below(2))) % 3;
  config.probability = 0.5 + 0.5 * meta.next_double();
  config.seed = meta.next_u64();

  ThreePartyHarness harness;
  harness.make_byzantine(byzantine, config);

  Rng rng(meta.next_u64());
  const int rounds = 4;
  std::vector<RingTensor> secrets;
  std::vector<std::array<PartyShare, 3>> views;
  for (int round = 0; round < rounds; ++round) {
    secrets.push_back(testing::random_ring(Shape{5}, rng));
    views.push_back(share_secret(secrets.back(), rng));
  }
  std::array<std::vector<RingTensor>, 3> results;
  harness.run([&](PartyContext& ctx) {
    for (int round = 0; round < rounds; ++round) {
      results[static_cast<std::size_t>(ctx.party)].push_back(open_value(
          ctx, views[static_cast<std::size_t>(round)]
                    [static_cast<std::size_t>(ctx.party)]));
    }
  });
  for (int party = 0; party < 3; ++party) {
    if (party == byzantine) {
      continue;
    }
    for (int round = 0; round < rounds; ++round) {
      EXPECT_EQ(results[static_cast<std::size_t>(party)]
                       [static_cast<std::size_t>(round)],
                secrets[static_cast<std::size_t>(round)])
          << "party " << party << " round " << round << " behavior "
          << static_cast<int>(config.behavior);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCorruption,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace trustddl::mpc
