// Model-owner service (core/owner_service.hpp): triple-dealing
// consistency, collective Softmax/reveal handling, straggler and
// garbage tolerance, shutdown semantics.
#include "core/owner_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/owner_link.hpp"
#include "mpc/robust_reconstruct.hpp"
#include "mpc/share_serde.hpp"
#include "net/runtime.hpp"
#include "nn/layers.hpp"
#include "test_util.hpp"

namespace trustddl::core {
namespace {

using testing::random_real;

constexpr int kF = fx::kDefaultFracBits;

struct ServiceHarness {
  net::Network network;
  ModelOwnerService service;
  std::thread thread;

  explicit ServiceHarness(std::chrono::milliseconds collect =
                              std::chrono::milliseconds(300))
      : network(net::NetworkConfig{.num_parties = kNumActors,
                                   .recv_timeout =
                                       std::chrono::milliseconds(2000)}),
        service(network.endpoint(kModelOwner), [&] {
          OwnerServiceConfig config;
          config.frac_bits = kF;
          config.collect_timeout = collect;
          return config;
        }()) {
    thread = std::thread([this] { service.run(); });
  }

  /// Wait for the service loop to finish (call before asserting on
  /// service state; the destructor joins too if not already joined).
  void join() {
    if (thread.joinable()) {
      thread.join();
    }
  }

  ~ServiceHarness() { join(); }
};

TEST(OwnerServiceTest, DealsConsistentTriplesToAllParties) {
  ServiceHarness harness;
  std::array<mpc::BeaverTripleShare, 3> triples;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    triples[static_cast<std::size_t>(party)] =
        link.fill(mpc::TripleKey::matmul(2, 3, 2), 0, 1).at(0).triple;
    link.stop();
  });
  // The dealt views must reconstruct a consistent triple: c == a x b.
  const auto reconstruct = [&](auto member) {
    std::array<mpc::PartyShare, 3> views = {member(triples[0]),
                                            member(triples[1]),
                                            member(triples[2])};
    return mpc::reconstruct(views);
  };
  const RingTensor a =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.a; });
  const RingTensor b =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.b; });
  const RingTensor c =
      reconstruct([](const mpc::BeaverTripleShare& t) { return t.c; });
  EXPECT_EQ(matmul(a, b), c);
}

TEST(OwnerServiceTest, SoftmaxCollectiveMatchesPlaintext) {
  ServiceHarness harness;
  Rng rng(1);
  const RealTensor logits = random_real(Shape{2, 5}, rng, 3.0);
  const auto views = mpc::share_secret(to_ring(logits, kF), rng);

  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  const RealTensor probabilities =
      to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-4);
}

TEST(OwnerServiceTest, SoftmaxToleratesOneGarbageSender) {
  ServiceHarness harness;
  Rng rng(2);
  const RealTensor logits = random_real(Shape{1, 4}, rng, 2.0);
  auto views = mpc::share_secret(to_ring(logits, kF), rng);
  // Party 2 sends garbage shares to the owner.
  for (std::size_t i = 0; i < views[2].second.size(); ++i) {
    views[2].second[i] += (1ull << 50) + i;
  }
  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  const RealTensor probabilities = to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-4);
  EXPECT_GE(harness.service.reconstruction_anomalies(), 1u);
}

TEST(OwnerServiceTest, RevealStoredUnderKey) {
  Rng rng(3);
  const RealTensor secret = random_real(Shape{3}, rng, 5.0);
  const auto views = mpc::share_secret(to_ring(secret, kF), rng);
  ServiceHarness harness;
  net::run_parties(3, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    link.reveal("weights/final", views[static_cast<std::size_t>(party)]);
    link.stop();
  });
  harness.join();  // the service must have drained the reveal group
  const auto it = harness.service.revealed().find("weights/final");
  ASSERT_NE(it, harness.service.revealed().end());
  EXPECT_LT(max_abs_diff(to_real(it->second, kF), secret), 1e-5);
}

TEST(OwnerServiceTest, ShutsDownWithTwoStopsAndSilentThirdParty) {
  ServiceHarness harness(std::chrono::milliseconds(150));
  net::run_parties(2, [&](net::PartyId party) {
    OwnerLink link(harness.network.endpoint(party), party);
    (void)link.fill(mpc::TripleKey::mul(Shape{2}), 0, 1);
    link.stop();
  });
  // The harness destructor joins; reaching here without hanging IS the
  // assertion (party 2 never spoke).
  SUCCEED();
}

TEST(OwnerServiceTest, StragglerServedFromProcessedGroupCache) {
  ServiceHarness harness(std::chrono::milliseconds(100));
  Rng rng(4);
  const RealTensor logits = random_real(Shape{1, 3}, rng, 1.0);
  const auto views = mpc::share_secret(to_ring(logits, kF), rng);

  // Parties 0 and 1 delay their stop until the straggler is served, so
  // the scenario isolates the group cache rather than the shutdown
  // grace window.
  std::atomic<int> finished{0};
  std::array<mpc::PartyShare, 3> p_views;
  net::run_parties(3, [&](net::PartyId party) {
    if (party == 2) {
      // Arrive after the collect deadline: the group is processed with
      // two members, and the straggler must still get its cached view.
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    OwnerLink link(harness.network.endpoint(party), party);
    p_views[static_cast<std::size_t>(party)] =
        link.softmax_forward(views[static_cast<std::size_t>(party)]);
    finished.fetch_add(1);
    while (finished.load() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    link.stop();
  });
  const RealTensor probabilities = to_real(mpc::reconstruct(p_views), kF);
  EXPECT_LT(max_abs_diff(probabilities, nn::softmax_rows(logits)), 1e-3);
}

/// A raw kBatchFill payload, as OwnerLink::send_fill encodes one.
Bytes fill_request(std::uint8_t kind, const std::vector<std::uint64_t>& dims,
                   std::uint32_t count) {
  ByteWriter writer;
  writer.write_u8(static_cast<std::uint8_t>(OwnerOp::kBatchFill));
  writer.write_u8(kind);
  writer.write_u64(dims.size());
  for (std::uint64_t dim : dims) {
    writer.write_u64(dim);
  }
  writer.write_u64(0);  // start
  writer.write_u32(count);
  return writer.take();
}

TEST(OwnerServiceTest, HostileFillsNeitherKillTheDealerNorStarveOthers) {
  ServiceHarness harness;
  const auto matmul = static_cast<std::uint8_t>(mpc::TripleKind::kMatMul);
  const auto conv = static_cast<std::uint8_t>(mpc::TripleKind::kMaskedConv);
  const auto comparison =
      static_cast<std::uint8_t>(mpc::TripleKind::kCompTriple);
  const std::vector<Bytes> hostile = {
      // 46 bytes whose dims product wraps size_t to 0.
      fill_request(matmul, {std::uint64_t{1} << 62, 4, 1}, 1),
      fill_request(matmul, {std::uint64_t{1} << 20, 1 << 10, 1}, 1),
      fill_request(matmul, {1 << 14, 1 << 14, 1}, 8),  // 2^28 x 8
      fill_request(matmul, {4, 4}, 1),                 // wrong arity
      fill_request(static_cast<std::uint8_t>(mpc::TripleKind::kMaskedMatMul),
                   {0, 0, 2, 1, 1, 1}, 1),             // flag not 0/1
      fill_request(static_cast<std::uint8_t>(mpc::TripleKind::kWeightMask),
                   {0, 0, 1}, 1),                      // wrong arity
      fill_request(42, {1}, 1),                        // unknown kind
      // Masked-conv keys {layer, version, batch, C, H, W, outC, kh, kw,
      // pad, stride}: wrong arity, zero stride, a kernel past the
      // padded input, an input size past SIZE_MAX, one too costly, and
      // two whose zero out_channels or batch would have hidden a 32769²
      // im2col or a [2^16, 2^14] weight mask.
      fill_request(conv, {0, 0, 1, 1, 4, 4, 1, 3, 3, 1}, 1),
      fill_request(conv, {0, 0, 1, 1, 4, 4, 1, 3, 3, 1, 0}, 1),
      fill_request(conv, {0, 0, 1, 1, 4, 4, 1, 3, 9, 1, 1}, 1),
      fill_request(conv,
                   {0, 0, std::uint64_t{1} << 40, 1, std::uint64_t{1} << 20,
                    std::uint64_t{1} << 20, 1, 1, 1, 0, 1},
                   1),
      fill_request(conv, {0, 0, 1 << 12, 1, 64, 64, 64, 5, 5, 2, 1}, 1),
      fill_request(conv, {0, 0, 1, 1, 1, 1, 0, 1, 1, 16384, 1}, 1),
      fill_request(conv, {0, 0, 0, 1 << 14, 1, 1, 1 << 16, 1, 1, 0, 1}, 1),
      fill_request(comparison, {2, 2, 2}, 1),          // wrong arity
      fill_request(comparison, {}, 1),
  };
  ASSERT_EQ(hostile[0].size(), 46u);
  net::Endpoint attacker = harness.network.endpoint(0);
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    attacker.send(kModelOwner, "req/" + std::to_string(i), hostile[i]);
  }

  // The service handles at most one request per party per loop pass,
  // so more sequential fills than hostile requests guarantee all of
  // them were processed before the honest parties finish.
  std::vector<std::thread> honest;
  for (int party = 1; party < 3; ++party) {
    honest.emplace_back([&, party] {
      OwnerLink link(harness.network.endpoint(party), party);
      for (std::size_t i = 0; i < hostile.size() + 1; ++i) {
        // Legitimate fills at huge versions: layer and version dims do
        // not count toward the size bound.
        const mpc::PartyShare mask =
            link.fill(mpc::TripleKey::weight_mask(1, std::uint64_t{1} << 40,
                                                  8, 4),
                      i, 1)
                .at(0)
                .share;
        EXPECT_EQ(mask.shape(), (Shape{8, 4}));
      }
      link.stop();
    });
  }
  for (auto& thread : honest) {
    thread.join();
  }
  harness.join();
  EXPECT_EQ(harness.service.fills_served(), 2 * (hostile.size() + 1));
  Bytes reply;
  EXPECT_FALSE(attacker.try_recv(kModelOwner, "rsp/0", reply));
}

TEST(OwnerServiceTest, ResentFillIsDealtAgainIdentically) {
  // The dealer moves a party's response out of its cache when it sends
  // it.  A party that asks again for a range it already took — before
  // or after the other parties took theirs — must get the same entries
  // dealt afresh, not an empty reply.
  ServiceHarness harness;
  const mpc::TripleKey key = mpc::TripleKey::matmul(2, 3, 2);
  const Bytes request = fill_request(
      static_cast<std::uint8_t>(key.kind), {2, 3, 2}, /*count=*/2);
  net::Endpoint party0 = harness.network.endpoint(0);
  std::vector<Bytes> replies;
  const auto ask = [&] {
    const std::string id = std::to_string(replies.size());
    party0.send(kModelOwner, "req/" + id, request);
    replies.push_back(
        party0.recv(kModelOwner, "rsp/" + id, std::chrono::seconds(10)));
  };
  ask();
  ask();  // the cached entry still holds parties 1 and 2's responses
  for (int party = 1; party < 3; ++party) {
    OwnerLink link(harness.network.endpoint(party), party);
    EXPECT_EQ(link.fill(key, 0, 2).size(), 2u);
    link.stop();
  }
  ask();  // every party took the range: the entry is gone
  OwnerLink(party0, 0).stop();
  harness.join();

  ASSERT_EQ(replies.size(), 3u);
  EXPECT_GT(replies[0].size(), 4u);
  EXPECT_EQ(replies[1], replies[0]);
  EXPECT_EQ(replies[2], replies[0]);
  const auto dealt = mpc::deal_material(key, 0, 2, OwnerServiceConfig{}.seed,
                                        kF);
  ByteReader reader(replies[0]);
  ASSERT_EQ(reader.read_u32(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const mpc::MaterialEntry entry =
        mpc::read_material_entry(reader, key.kind);
    EXPECT_EQ(entry.triple.c.primary, dealt[0][i].triple.c.primary)
        << "entry " << i;
  }
  EXPECT_EQ(harness.service.fills_served(), 5u);
}

}  // namespace
}  // namespace trustddl::core
