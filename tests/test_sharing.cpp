#include "mpc/sharing.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::random_real;
using testing::random_ring;

TEST(SharingLayoutTest, Fig1IndexMapping) {
  // P1 (index 0) holds {[s]_1^1, [ŝ]_1^2, [s]_2^3} etc. (paper §III-A).
  EXPECT_EQ(set_primary(0), 0);
  EXPECT_EQ(set_duplicate(0), 1);
  EXPECT_EQ(set_second(0), 2);
  EXPECT_EQ(set_primary(1), 1);
  EXPECT_EQ(set_duplicate(1), 2);
  EXPECT_EQ(set_second(1), 0);
  EXPECT_EQ(set_primary(2), 2);
  EXPECT_EQ(set_duplicate(2), 0);
  EXPECT_EQ(set_second(2), 1);
}

TEST(SharingLayoutTest, HolderFunctionsAreInverses) {
  for (int set = 0; set < kNumSets; ++set) {
    EXPECT_EQ(set_primary(holder_of_primary(set)), set);
    EXPECT_EQ(set_duplicate(holder_of_duplicate(set)), set);
    EXPECT_EQ(set_second(holder_of_second(set)), set);
  }
}

TEST(SharingTest, EverySetReconstructsSecret) {
  Rng rng(1);
  const RingTensor secret = random_ring(Shape{3, 4}, rng);
  const ReplicatedSecret dealer = create_replicated(secret, rng);
  for (int set = 0; set < kNumSets; ++set) {
    EXPECT_EQ(dealer.reconstruct_set(set), secret) << "set " << set;
  }
}

TEST(SharingTest, SetsAreIndependentSharings) {
  Rng rng(2);
  const RingTensor secret = random_ring(Shape{4}, rng);
  const ReplicatedSecret dealer = create_replicated(secret, rng);
  // Share 1 of different sets must differ (they are independent
  // random masks) even though each set sums to the same secret.
  EXPECT_NE(dealer.sets[0][0], dealer.sets[1][0]);
  EXPECT_NE(dealer.sets[1][0], dealer.sets[2][0]);
}

TEST(SharingTest, PartyViewMatchesFig1) {
  Rng rng(3);
  const RingTensor secret = random_ring(Shape{2}, rng);
  const ReplicatedSecret dealer = create_replicated(secret, rng);
  for (int party = 0; party < kNumParties; ++party) {
    const PartyShare view = party_view(dealer, party);
    EXPECT_EQ(view.primary,
              dealer.sets[static_cast<std::size_t>(set_primary(party))][0]);
    EXPECT_EQ(view.duplicate,
              dealer.sets[static_cast<std::size_t>(set_duplicate(party))][0]);
    EXPECT_EQ(view.second,
              dealer.sets[static_cast<std::size_t>(set_second(party))][1]);
  }
}

TEST(SharingTest, DuplicateIsExactCopyOfAnotherPrimary) {
  Rng rng(4);
  const auto views = share_secret(random_ring(Shape{3}, rng), rng);
  for (int party = 0; party < kNumParties; ++party) {
    const int source = (party + 1) % kNumParties;  // primary holder of
                                                   // the duplicated set
    EXPECT_EQ(views[static_cast<std::size_t>(party)].duplicate,
              views[static_cast<std::size_t>(source)].primary);
  }
}

TEST(SharingTest, NoPartyHoldsACompleteSet) {
  // Privacy requirement of §III-A: a single party's three components
  // must come from three different sets, so no set is complete.
  for (int party = 0; party < kNumParties; ++party) {
    EXPECT_NE(set_primary(party), set_second(party));
    EXPECT_NE(set_duplicate(party), set_second(party));
    EXPECT_NE(set_primary(party), set_duplicate(party));
  }
}

TEST(SharingTest, ReconstructFromTriples) {
  Rng rng(5);
  const RingTensor secret = random_ring(Shape{5, 2}, rng);
  const auto views = share_secret(secret, rng);
  EXPECT_EQ(reconstruct(views), secret);
}

TEST(SharingTest, LinearityOfShareAddition) {
  Rng rng(6);
  const RingTensor x = random_ring(Shape{4}, rng);
  const RingTensor y = random_ring(Shape{4}, rng);
  const auto x_views = share_secret(x, rng);
  const auto y_views = share_secret(y, rng);
  std::array<PartyShare, kNumParties> sum_views;
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    sum_views[index] = x_views[index] + y_views[index];
  }
  EXPECT_EQ(reconstruct(sum_views), x + y);
}

TEST(SharingTest, SubtractionAndPublicConstant) {
  Rng rng(7);
  const RingTensor x = random_ring(Shape{4}, rng);
  const RingTensor y = random_ring(Shape{4}, rng);
  const RingTensor constant = random_ring(Shape{4}, rng);
  auto x_views = share_secret(x, rng);
  const auto y_views = share_secret(y, rng);
  for (int party = 0; party < kNumParties; ++party) {
    const auto index = static_cast<std::size_t>(party);
    x_views[index] -= y_views[index];
    x_views[index].add_public(constant);
  }
  EXPECT_EQ(reconstruct(x_views), x - y + constant);
}

TEST(SharingTest, PublicConstantReachesEverySet) {
  // add_public must shift ALL three sets, not just one: verify by
  // reconstructing each set from the updated views.
  Rng rng(8);
  const RingTensor x = random_ring(Shape{2}, rng);
  const RingTensor constant = random_ring(Shape{2}, rng);
  auto views = share_secret(x, rng);
  for (auto& view : views) {
    view.add_public(constant);
  }
  for (int set = 0; set < kNumSets; ++set) {
    const auto& share1 =
        views[static_cast<std::size_t>(holder_of_primary(set))].primary;
    const auto& share2 =
        views[static_cast<std::size_t>(holder_of_second(set))].second;
    EXPECT_EQ(share1 + share2, x + constant) << "set " << set;
  }
}

TEST(SharingTest, PublicMaskMultiplication) {
  Rng rng(9);
  const RealTensor x = random_real(Shape{6}, rng);
  RingTensor mask(Shape{6});
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = (i % 2 == 0) ? 1 : 0;
  }
  auto views = share_secret(to_ring(x, 20), rng);
  for (auto& view : views) {
    view.mul_public(mask);
  }
  const RealTensor result = to_real(reconstruct(views), 20);
  for (std::size_t i = 0; i < result.size(); ++i) {
    const double expected = (i % 2 == 0) ? x[i] : 0.0;
    EXPECT_NEAR(result[i], expected, 1e-5);
  }
}

TEST(SharingTest, LocalTruncationRescalesProducts) {
  Rng rng(10);
  const RealTensor x = random_real(Shape{8}, rng, 2.0);
  const RealTensor y = random_real(Shape{8}, rng, 2.0);
  // Share x, multiply shares elementwise by the PUBLIC encoding of y
  // (scale 2^40), then locally truncate back to 2^20.
  auto views = share_secret(to_ring(x, 20), rng);
  const RingTensor y_ring = to_ring(y, 20);
  for (auto& view : views) {
    view.primary.hadamard_inplace(y_ring);
    view.duplicate.hadamard_inplace(y_ring);
    view.second.hadamard_inplace(y_ring);
    view.truncate_local(20);
  }
  const RealTensor result = to_real(reconstruct(views), 20);
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_NEAR(result[i], x[i] * y[i], 1e-4);
  }
}

TEST(SharingTest, ZeroShareIsValidSharingOfZero) {
  const PartyShare zero = zero_share(Shape{3});
  std::array<PartyShare, kNumParties> views = {zero, zero, zero};
  EXPECT_EQ(reconstruct(views), RingTensor(Shape{3}));
}

class SharingPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SharingPropertySweep, ReconstructionIdentity) {
  const auto [seed, dim] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const RingTensor secret =
      random_ring(Shape{static_cast<std::size_t>(dim),
                        static_cast<std::size_t>(dim)},
                  rng);
  const auto views = share_secret(secret, rng);
  EXPECT_EQ(reconstruct(views), secret);
  // Every set independently reconstructs via its holders.
  for (int set = 0; set < kNumSets; ++set) {
    const auto& share1 =
        views[static_cast<std::size_t>(holder_of_primary(set))].primary;
    const auto& share2 =
        views[static_cast<std::size_t>(holder_of_second(set))].second;
    EXPECT_EQ(share1 + share2, secret);
    const auto& dup =
        views[static_cast<std::size_t>(holder_of_duplicate(set))].duplicate;
    EXPECT_EQ(dup + share2, secret);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SharingPropertySweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 3, 8, 17)));

}  // namespace
}  // namespace trustddl::mpc
