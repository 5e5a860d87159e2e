#include "mpc/protocols_bt.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mpc/adversary.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

struct MulFixture {
  RealTensor x;
  RealTensor y;
  std::array<PartyShare, 3> x_views;
  std::array<PartyShare, 3> y_views;
  testing::PartyStores stores;

  MulFixture(const Shape& shape, std::uint64_t seed, double bound = 4.0)
      : stores(seed + 999, kF) {
    Rng rng(seed);
    x = random_real(shape, rng, bound);
    y = random_real(shape, rng, bound);
    x_views = share_secret(to_ring(x, kF), rng);
    y_views = share_secret(to_ring(y, kF), rng);
  }
};

TEST(SecMulBtTest, ElementwiseProductMatchesPlaintext) {
  ThreePartyHarness harness;
  MulFixture fixture(Shape{3, 4}, 21);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = fixture.stores[ctx.party];
    const auto triple = source.mul_triple(Shape{3, 4});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-4);
  }
}

TEST(SecMatMulBtTest, MatrixProductMatchesPlaintext) {
  ThreePartyHarness harness;
  Rng rng(22);
  const RealTensor x = random_real(Shape{4, 6}, rng, 2.0);
  const RealTensor y = random_real(Shape{6, 5}, rng, 2.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyStores stores(777, kF);

  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    const auto triple = source.matmul_triple(4, 6, 5);
    PartyShare z =
        sec_matmul_bt(ctx, x_views[index], y_views[index], triple);
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = matmul(x, y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-3);
  }
}

TEST(SecMulBtTest, MaskedOpenTruncationIsExact) {
  ThreePartyHarness harness;
  MulFixture fixture(Shape{8}, 23);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = fixture.stores[ctx.party];
    const auto triple = source.mul_triple(Shape{8});
    const auto pair = source.trunc_pair(Shape{8});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    z = truncate_product_masked(ctx, z, pair);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 4.0 / (1 << kF));
  }
}

TEST(SecCompBtTest, SignsMatchPlaintextComparison) {
  ThreePartyHarness harness;
  Rng rng(24);
  const Shape shape{10};
  RealTensor x = random_real(shape, rng);
  RealTensor y = random_real(shape, rng);
  x[0] = y[0];  // include an exact tie
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyStores stores(555, kF);

  // Both dealt forms: the paper's t and mul triple, and a comparison
  // triple (t, b, t ⊙ b).
  std::array<RingTensor, 6> signs;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    for (const bool comp_triples : {false, true}) {
      std::vector<MaterialEntry> entries =
          source.next_many(comparison_keys(shape, comp_triples));
      std::size_t at = 0;
      signs[index + (comp_triples ? 3 : 0)] =
          sec_comp_bt(ctx, x_views[index], y_views[index],
                      take_comparison(entries, &at, comp_triples));
    }
  });
  for (const auto& result : signs) {
    for (std::size_t i = 0; i < result.size(); ++i) {
      const double diff = x[i] - y[i];
      const auto got = static_cast<std::int64_t>(result[i]);
      if (diff > 1e-5) {
        EXPECT_EQ(got, 1) << "element " << i;
      } else if (diff < -1e-5) {
        EXPECT_EQ(got, -1) << "element " << i;
      } else {
        EXPECT_EQ(got, 0) << "element " << i;
      }
    }
  }
}

TEST(SecCompBtTest, SignAgainstZeroAndPositiveMask) {
  ThreePartyHarness harness;
  Rng rng(25);
  const Shape shape{6};
  const RealTensor x(Shape{6}, {-2.0, -0.5, 0.0, 0.5, 2.0, 7.0});
  const auto x_views = share_secret(to_ring(x, kF), rng);
  testing::PartyStores stores(444, kF);

  std::array<RingTensor, 3> masks;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    const auto signs =
        sec_sign_bt(ctx, x_views[index],
                    {source.comp_aux(shape), source.mul_triple(shape)});
    masks[index] = positive_mask(signs);
  });
  const AlignedVector<std::uint64_t> expected{0, 0, 0, 1, 1, 1};
  for (const auto& mask : masks) {
    EXPECT_EQ(mask.values(), expected);
  }
}

class SecMulByzantineSweep
    : public ::testing::TestWithParam<
          std::tuple<int, ByzantineConfig::Behavior>> {};

TEST_P(SecMulByzantineSweep, HonestPartiesComputeCorrectProduct) {
  const auto [byzantine_party, behavior] = GetParam();
  ThreePartyHarness harness;
  ByzantineConfig config;
  config.behavior = behavior;
  config.target_peer = (byzantine_party + 2) % 3;
  harness.make_byzantine(byzantine_party, config);

  MulFixture fixture(Shape{4}, 26);
  std::array<PartyShare, 3> product_shares;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = fixture.stores[ctx.party];
    const auto triple = source.mul_triple(Shape{4});
    PartyShare z = sec_mul_bt(ctx, fixture.x_views[index],
                              fixture.y_views[index], triple);
    product_shares[index] = truncate_product_local(z, kF);
  });

  // Verify via the shares of the two honest parties: reconstruct the
  // set whose both halves are honest-held.
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (int set = 0; set < kNumSets; ++set) {
    const int p1 = holder_of_primary(set);
    const int p2 = holder_of_second(set);
    if (p1 == byzantine_party || p2 == byzantine_party) {
      continue;
    }
    const RealTensor got = to_real(
        product_shares[static_cast<std::size_t>(p1)].primary +
            product_shares[static_cast<std::size_t>(p2)].second,
        kF);
    EXPECT_LT(max_abs_diff(got, expected), 1e-4)
        << "set " << set << " behavior " << static_cast<int>(behavior);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SecMulByzantineSweep,
    ::testing::Combine(
        ::testing::Values(0, 1, 2),
        ::testing::Values(
            ByzantineConfig::Behavior::kConsistentCorruption,
            ByzantineConfig::Behavior::kCommitmentViolationGlobal,
            ByzantineConfig::Behavior::kCommitmentViolationSingle)));

TEST(SecMulBtTest, ChainedMultiplicationsStayAccurate) {
  // x * y * w with re-truncation between steps: exercises triple reuse
  // ordering and accumulation of fixed-point error.
  ThreePartyHarness harness;
  Rng rng(27);
  const Shape shape{5};
  const RealTensor x = random_real(shape, rng, 2.0);
  const RealTensor y = random_real(shape, rng, 2.0);
  const RealTensor w = random_real(shape, rng, 2.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  const auto w_views = share_secret(to_ring(w, kF), rng);
  testing::PartyStores stores(321, kF);

  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    PartyShare xy = sec_mul_bt(ctx, x_views[index], y_views[index],
                               source.mul_triple(shape));
    xy = truncate_product_local(xy, kF);
    PartyShare xyw =
        sec_mul_bt(ctx, xy, w_views[index], source.mul_triple(shape));
    xyw = truncate_product_local(xyw, kF);
    results[index] = to_real(open_value(ctx, xyw), kF);
  });
  const RealTensor expected = hadamard(hadamard(x, y), w);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-3);
  }
}

TEST(SecMulBtTest, HbcModeProducesSameResult) {
  ThreePartyHarness harness(SecurityMode::kHonestButCurious);
  MulFixture fixture(Shape{3, 3}, 28);
  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = fixture.stores[ctx.party];
    PartyShare z =
        sec_mul_bt(ctx, fixture.x_views[index], fixture.y_views[index],
                   source.mul_triple(Shape{3, 3}));
    z = truncate_product_local(z, kF);
    results[index] = to_real(open_value(ctx, z), kF);
  });
  const RealTensor expected = hadamard(fixture.x, fixture.y);
  for (const auto& result : results) {
    EXPECT_LT(max_abs_diff(result, expected), 1e-4);
  }
}

}  // namespace
}  // namespace trustddl::mpc
