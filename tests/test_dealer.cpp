// Dealer-side preprocessing material (mpc/beaver.hpp): triple algebra,
// auxiliary values, truncation pairs, and the cross-party consistency
// of per-party stores over DealerBackends under concurrent access.
#include "mpc/beaver.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "mpc/open.hpp"
#include "mpc/protocols_bt.hpp"
#include "numeric/fixed_point.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

constexpr int kF = fx::kDefaultFracBits;

RingTensor reconstruct_member(
    const std::array<BeaverTripleShare, 3>& triples,
    PartyShare BeaverTripleShare::*member) {
  std::array<PartyShare, 3> views = {triples[0].*member, triples[1].*member,
                                     triples[2].*member};
  return reconstruct(views);
}

TEST(DealerTest, MulTripleSatisfiesBeaverRelation) {
  Rng rng(1);
  const auto triples = deal_mul_triple(Shape{4, 3}, rng);
  const RingTensor a = reconstruct_member(triples, &BeaverTripleShare::a);
  const RingTensor b = reconstruct_member(triples, &BeaverTripleShare::b);
  const RingTensor c = reconstruct_member(triples, &BeaverTripleShare::c);
  EXPECT_EQ(hadamard(a, b), c);
}

TEST(DealerTest, MatMulTripleSatisfiesBeaverRelation) {
  Rng rng(2);
  const auto triples = deal_matmul_triple(3, 5, 2, rng);
  const RingTensor a = reconstruct_member(triples, &BeaverTripleShare::a);
  const RingTensor b = reconstruct_member(triples, &BeaverTripleShare::b);
  const RingTensor c = reconstruct_member(triples, &BeaverTripleShare::c);
  EXPECT_EQ(a.shape(), (Shape{3, 5}));
  EXPECT_EQ(b.shape(), (Shape{5, 2}));
  EXPECT_EQ(matmul(a, b), c);
}

TEST(DealerTest, PositiveAuxIsPositive) {
  Rng rng(3);
  const auto views = deal_positive_aux(Shape{64}, kF, rng);
  std::array<PartyShare, 3> shares = {views[0], views[1], views[2]};
  const RealTensor t = to_real(reconstruct(shares), kF);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GT(t[i], 0.0);
    EXPECT_LT(t[i], 2.0 + 1e-6);
  }
}

TEST(DealerTest, TruncPairRelation) {
  Rng rng(4);
  const auto pairs = deal_trunc_pair(Shape{32}, kF, rng);
  std::array<PartyShare, 3> r_views = {pairs[0].r, pairs[1].r, pairs[2].r};
  std::array<PartyShare, 3> s_views = {pairs[0].r_shifted,
                                       pairs[1].r_shifted,
                                       pairs[2].r_shifted};
  const RingTensor r = reconstruct(r_views);
  const RingTensor r_shifted = reconstruct(s_views);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_LT(r[i], 1ull << 62) << "mask must be bounded";
    EXPECT_EQ(r_shifted[i], r[i] >> kF);
  }
}

TEST(DealerTest, PartyStoresServeConsistentViews) {
  testing::PartyStores stores(99, kF);
  std::array<BeaverTripleShare, 3> triples;
  std::array<TruncPairShare, 3> pairs;
  std::vector<std::thread> threads;
  for (int party = 0; party < 3; ++party) {
    threads.emplace_back([&, party] {
      triples[static_cast<std::size_t>(party)] =
          stores[party].matmul_triple(2, 4, 3);
      pairs[static_cast<std::size_t>(party)] =
          stores[party].trunc_pair(Shape{5});
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const RingTensor a = reconstruct_member(triples, &BeaverTripleShare::a);
  const RingTensor b = reconstruct_member(triples, &BeaverTripleShare::b);
  const RingTensor c = reconstruct_member(triples, &BeaverTripleShare::c);
  EXPECT_EQ(matmul(a, b), c);

  std::array<PartyShare, 3> r_views = {pairs[0].r, pairs[1].r, pairs[2].r};
  std::array<PartyShare, 3> s_views = {pairs[0].r_shifted,
                                       pairs[1].r_shifted,
                                       pairs[2].r_shifted};
  const RingTensor r = reconstruct(r_views);
  EXPECT_EQ(reconstruct(s_views)[0], r[0] >> kF);
}

TEST(DealerTest, SequentialRequestsYieldIndependentTriples) {
  testing::PartyStores stores(5, kF);
  const auto first = stores[0].mul_triple(Shape{4});
  (void)stores[1].mul_triple(Shape{4});
  (void)stores[2].mul_triple(Shape{4});
  const auto second_p0 = stores[0].mul_triple(Shape{4});
  EXPECT_NE(first.a.primary, second_p0.a.primary);
}

TEST(DealerTest, MaskedTruncationUsesPairExactly) {
  // End-to-end check of the pair relation through the masked opening:
  // documented error bound is <= 2 ulp (one masking carry + one
  // dealer-pair carry).
  Rng rng(6);
  testing::ThreePartyHarness harness;
  const RealTensor x = testing::random_real(Shape{16}, rng, 3.0);
  const RealTensor y = testing::random_real(Shape{16}, rng, 3.0);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  testing::PartyStores stores(7, kF);

  std::array<RealTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = stores[ctx.party];
    PartyShare z = sec_mul_bt(ctx, x_views[index], y_views[index],
                              source.mul_triple(Shape{16}));
    z = truncate_product_masked(ctx, z, source.trunc_pair(Shape{16}));
    results[index] = to_real(open_value(ctx, z), kF);
  });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(results[0][i], x[i] * y[i], 3.0 * fx::epsilon(kF) * 2);
  }
}

}  // namespace
}  // namespace trustddl::mpc
