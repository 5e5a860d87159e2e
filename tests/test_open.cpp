#include "mpc/open.hpp"

#include <barrier>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "mpc/adversary.hpp"
#include "numeric/serde.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_ring;

/// Run a single opening of `secret` across three parties and return
/// each party's opened value.
std::array<RingTensor, 3> open_once(ThreePartyHarness& harness,
                                    const RingTensor& secret,
                                    std::uint64_t seed = 42) {
  Rng rng(seed);
  const auto views = share_secret(secret, rng);
  std::array<RingTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    results[static_cast<std::size_t>(ctx.party)] =
        open_value(ctx, views[static_cast<std::size_t>(ctx.party)]);
  });
  return results;
}

TEST(OpenTest, HonestMaliciousModeAllAgree) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  Rng rng(1);
  const RingTensor secret = random_ring(Shape{4, 3}, rng);
  const auto results = open_once(harness, secret);
  for (const auto& result : results) {
    EXPECT_EQ(result, secret);
  }
  for (const auto& ctx : harness.contexts) {
    EXPECT_TRUE(ctx.detections.events.empty());
    EXPECT_EQ(ctx.detections.opens, 1u);
  }
}

TEST(OpenTest, HonestHbcModeAllAgree) {
  ThreePartyHarness harness(SecurityMode::kHonestButCurious);
  Rng rng(2);
  const RingTensor secret = random_ring(Shape{5}, rng);
  const auto results = open_once(harness, secret);
  for (const auto& result : results) {
    EXPECT_EQ(result, secret);
  }
}

TEST(OpenTest, OpensSeveralValuesInOneStep) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  Rng rng(3);
  const RingTensor a = random_ring(Shape{2, 2}, rng);
  const RingTensor b = random_ring(Shape{7}, rng);
  const auto a_views = share_secret(a, rng);
  const auto b_views = share_secret(b, rng);
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    const auto opened =
        open_values(ctx, {a_views[index], b_views[index]});
    EXPECT_EQ(opened[0], a);
    EXPECT_EQ(opened[1], b);
  });
}

TEST(OpenTest, HbcCheaperThanMalicious) {
  Rng rng(4);
  const RingTensor secret = random_ring(Shape{16, 16}, rng);

  ThreePartyHarness hbc(SecurityMode::kHonestButCurious);
  open_once(hbc, secret);
  const auto hbc_traffic = hbc.network.traffic();

  ThreePartyHarness malicious(SecurityMode::kMalicious);
  open_once(malicious, secret);
  const auto malicious_traffic = malicious.network.traffic();

  EXPECT_LT(hbc_traffic.total_bytes, malicious_traffic.total_bytes);
  EXPECT_LT(hbc_traffic.total_messages, malicious_traffic.total_messages);
}

class OpenByzantineCase
    : public ::testing::TestWithParam<std::tuple<int, ByzantineConfig::Behavior>> {};

TEST_P(OpenByzantineCase, HonestPartiesRecoverCorrectValue) {
  const auto [byzantine_party, behavior] = GetParam();
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = behavior;
  config.target_peer = (byzantine_party + 1) % 3;  // for the single case
  harness.make_byzantine(byzantine_party, config);

  Rng rng(5);
  const RingTensor secret = random_ring(Shape{6, 2}, rng);
  const auto views = share_secret(secret, rng);
  std::array<RingTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    results[static_cast<std::size_t>(ctx.party)] =
        open_value(ctx, views[static_cast<std::size_t>(ctx.party)]);
  });

  // Every HONEST party must still open the correct value (guaranteed
  // output delivery).
  for (int party = 0; party < 3; ++party) {
    if (party == byzantine_party) {
      continue;
    }
    EXPECT_EQ(results[static_cast<std::size_t>(party)], secret)
        << "honest party " << party << " behavior "
        << static_cast<int>(behavior);
  }
  EXPECT_GE(harness.adversary->attacks_launched(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartiesAllBehaviors, OpenByzantineCase,
    ::testing::Combine(
        ::testing::Values(0, 1, 2),
        ::testing::Values(
            ByzantineConfig::Behavior::kConsistentCorruption,
            ByzantineConfig::Behavior::kCommitmentViolationGlobal,
            ByzantineConfig::Behavior::kCommitmentViolationSingle,
            ByzantineConfig::Behavior::kDropMessages)));

TEST(OpenTest, Case1GlobalViolationDetectedByBothHonestParties) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCommitmentViolationGlobal;
  harness.make_byzantine(1, config);
  Rng rng(6);
  open_once(harness, random_ring(Shape{4}, rng));
  for (int party : {0, 2}) {
    const auto& log = harness.contexts[static_cast<std::size_t>(party)]
                          .detections;
    EXPECT_EQ(log.count(DetectionEvent::Kind::kCommitmentViolation), 1u)
        << "party " << party;
    // The violator is correctly identified.
    for (const auto& event : log.events) {
      if (event.kind == DetectionEvent::Kind::kCommitmentViolation) {
        EXPECT_EQ(event.suspect, 1);
      }
    }
  }
}

TEST(OpenTest, Case2TargetedViolationDetectedOnlyByVictim) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCommitmentViolationSingle;
  config.target_peer = 0;
  harness.make_byzantine(1, config);
  Rng rng(7);
  open_once(harness, random_ring(Shape{4}, rng));
  const auto& victim = harness.contexts[0].detections;
  const auto& bystander = harness.contexts[2].detections;
  EXPECT_EQ(victim.count(DetectionEvent::Kind::kCommitmentViolation), 1u);
  EXPECT_EQ(bystander.count(DetectionEvent::Kind::kCommitmentViolation), 0u);
}

TEST(OpenTest, Case3ConsistentCorruptionCaughtByDistanceRule) {
  // Exercise the paper's bare decision rule: share authentication off.
  ThreePartyHarness harness(SecurityMode::kMalicious);
  for (auto& ctx : harness.contexts) {
    ctx.share_authentication = false;
  }
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kConsistentCorruption;
  harness.make_byzantine(2, config);
  Rng rng(8);
  open_once(harness, random_ring(Shape{4}, rng));
  for (int party : {0, 1}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    // No commitment violation (the hashes matched)...
    EXPECT_EQ(log.count(DetectionEvent::Kind::kCommitmentViolation), 0u);
    // ...but the distance rule flags and attributes the anomaly.
    EXPECT_EQ(log.count(DetectionEvent::Kind::kDistanceAnomaly), 1u);
    EXPECT_EQ(log.count(DetectionEvent::Kind::kByzantineSuspected), 1u);
    for (const auto& event : log.events) {
      if (event.kind == DetectionEvent::Kind::kByzantineSuspected) {
        EXPECT_EQ(event.suspect, 2);
      }
    }
  }
}

TEST(OpenTest, CoordinatedDeltaForgesAgreementUnderBareMinDistRule) {
  // The attack the paper's §III-B argument misses: the Byzantine party
  // holds copies of two share-1 values, so adding the SAME delta to
  // all its components forges a reconstruction pair (s^j, ŝ^k), j!=k,
  // that agrees exactly and ties with the honest pair.  With share
  // authentication disabled (paper-faithful mode) honest parties adopt
  // the shifted value.
  ThreePartyHarness harness(SecurityMode::kMalicious);
  for (auto& ctx : harness.contexts) {
    ctx.share_authentication = false;
  }
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCoordinatedDelta;
  harness.make_byzantine(1, config);
  Rng rng(31);
  const RingTensor secret = random_ring(Shape{4}, rng);
  const auto results = open_once(harness, secret);
  // Both honest parties are fooled into the same (wrong) value: the
  // forged pair (s^1, ŝ^2-of-the-byzantine-set) is scanned before the
  // honest pair and has distance zero.
  EXPECT_NE(results[0], secret);
  EXPECT_NE(results[2], secret);
  EXPECT_EQ(results[0], results[2]);
}

TEST(OpenTest, ShareAuthenticationDefeatsCoordinatedDelta) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCoordinatedDelta;
  harness.make_byzantine(1, config);
  Rng rng(32);
  const RingTensor secret = random_ring(Shape{4}, rng);
  const auto results = open_once(harness, secret);
  EXPECT_EQ(results[0], secret);
  EXPECT_EQ(results[2], secret);
  // Each honest observer attributes the tamper to party 1 via its own
  // share copy.
  for (int party : {0, 2}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    EXPECT_GE(log.count(DetectionEvent::Kind::kShareAuthFailure), 1u)
        << "party " << party;
    for (const auto& event : log.events) {
      if (event.kind == DetectionEvent::Kind::kShareAuthFailure) {
        EXPECT_EQ(event.suspect, 1);
      }
    }
  }
}

TEST(OpenTest, StealthyDupSecondAttackAttributedByOneObserver) {
  // Tampering only the duplicate + second components evades the
  // own-primary check at one observer.  The observer holding the
  // primary copy of the tampered duplicate attributes the attack and
  // recovers; the other observer can only detect the copy conflict
  // (documented limitation; classic RSS with replicated share-2 would
  // close it).
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kStealthyDupSecond;
  harness.make_byzantine(1, config);
  Rng rng(33);
  const RingTensor secret = random_ring(Shape{4}, rng);
  const auto results = open_once(harness, secret);
  // Party 2 owns the primary copy of party 1's duplicated share-1
  // (set 2), so it attributes and recovers.
  EXPECT_EQ(results[2], secret);
  EXPECT_GE(harness.contexts[2].detections.count(
                DetectionEvent::Kind::kShareAuthFailure),
            1u);
  // Party 0 sees conflicting copies of set 2's share-1 and flags the
  // ambiguity.
  EXPECT_GE(harness.contexts[0].detections.count(
                DetectionEvent::Kind::kShareCopyConflict),
            1u);
}

TEST(OpenTest, SilentPartyToleratedViaTimeouts) {
  net::NetworkConfig net_config;
  net_config.recv_timeout = std::chrono::milliseconds(80);
  ThreePartyHarness harness(SecurityMode::kMalicious, net_config);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kDropMessages;
  harness.make_byzantine(0, config);
  Rng rng(9);
  const RingTensor secret = random_ring(Shape{3}, rng);
  const auto results = open_once(harness, secret);
  EXPECT_EQ(results[1], secret);
  EXPECT_EQ(results[2], secret);
  EXPECT_GE(harness.contexts[1].detections.count(
                DetectionEvent::Kind::kMissingMessage),
            1u);
}

TEST(OpenTest, MalformedPayloadInvalidatesSenderOnly) {
  // A Byzantine party sending structurally bogus bytes must not crash
  // honest parties.
  class GarbageAdversary final : public AdversaryHooks {
   public:
    std::optional<std::vector<PartyShare>> replace_shares_for(
        std::uint64_t, int, const std::vector<PartyShare>&) override {
      // Send one tiny wrong-shaped share vector.
      std::vector<PartyShare> bogus(1);
      bogus[0] = zero_share(Shape{1});
      return bogus;
    }
  };
  ThreePartyHarness harness(SecurityMode::kMalicious);
  GarbageAdversary garbage;
  harness.contexts[1].adversary = &garbage;
  Rng rng(10);
  const RingTensor secret = random_ring(Shape{4, 4}, rng);
  const auto results = open_once(harness, secret);
  EXPECT_EQ(results[0], secret);
  EXPECT_EQ(results[2], secret);
}

TEST(OpenTest, ToleranceAcceptsOffByOneUlpReconstructions) {
  // Share-local truncation perturbs different sets by ±1 ulp; the
  // decision rule must treat those as equal.  Emulate by nudging one
  // share by 1.
  ThreePartyHarness harness(SecurityMode::kMalicious);
  Rng rng(11);
  const RingTensor secret = random_ring(Shape{4}, rng);
  auto views = share_secret(secret, rng);
  views[0].primary[0] += 1;  // set 0 reconstructs secret+1
  std::array<RingTensor, 3> results;
  harness.run([&](PartyContext& ctx) {
    results[static_cast<std::size_t>(ctx.party)] =
        open_value(ctx, views[static_cast<std::size_t>(ctx.party)]);
  });
  for (int party = 0; party < 3; ++party) {
    EXPECT_LE(ring_distance(results[static_cast<std::size_t>(party)], secret),
              1u);
    EXPECT_EQ(harness.contexts[static_cast<std::size_t>(party)]
                  .detections.count(DetectionEvent::Kind::kDistanceAnomaly),
              0u);
  }
}

TEST(OpenTest, Case3ConsistentCorruptionAttributedByShareAuthentication) {
  // Same attack with the hardening enabled: the copy checks attribute
  // it before the distance rule even runs.
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kConsistentCorruption;
  harness.make_byzantine(2, config);
  Rng rng(8);
  const RingTensor secret = random_ring(Shape{4}, rng);
  const auto results = open_once(harness, secret);
  EXPECT_EQ(results[0], secret);
  EXPECT_EQ(results[1], secret);
  for (int party : {0, 1}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    EXPECT_GE(log.count(DetectionEvent::Kind::kShareAuthFailure), 1u);
    for (const auto& event : log.events) {
      if (event.kind == DetectionEvent::Kind::kShareAuthFailure) {
        EXPECT_EQ(event.suspect, 2);
      }
    }
  }
}

TEST(OpenTest, ProbabilisticAttackerCaughtOnAttackedSteps) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  for (auto& ctx : harness.contexts) {
    ctx.share_authentication = false;  // count distance-rule catches
  }
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kConsistentCorruption;
  config.probability = 0.5;
  harness.make_byzantine(1, config);
  Rng rng(12);
  const int rounds = 20;
  std::vector<std::array<PartyShare, 3>> all_views;
  std::vector<RingTensor> secrets;
  for (int round = 0; round < rounds; ++round) {
    secrets.push_back(random_ring(Shape{3}, rng));
    all_views.push_back(share_secret(secrets.back(), rng));
  }
  std::array<std::vector<RingTensor>, 3> results;
  harness.run([&](PartyContext& ctx) {
    for (int round = 0; round < rounds; ++round) {
      results[static_cast<std::size_t>(ctx.party)].push_back(open_value(
          ctx,
          all_views[static_cast<std::size_t>(round)]
                   [static_cast<std::size_t>(ctx.party)]));
    }
  });
  for (int round = 0; round < rounds; ++round) {
    EXPECT_EQ(results[0][static_cast<std::size_t>(round)],
              secrets[static_cast<std::size_t>(round)]);
    EXPECT_EQ(results[2][static_cast<std::size_t>(round)],
              secrets[static_cast<std::size_t>(round)]);
  }
  const auto attacks = harness.adversary->attacks_launched();
  EXPECT_GT(attacks, 0u);
  EXPECT_LT(attacks, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(harness.contexts[0].detections.count(
                DetectionEvent::Kind::kDistanceAnomaly),
            attacks);
}

TEST(OpenTest, MissesMustBeConsecutiveToExclude) {
  // Party 0 drops everything at steps 0 and 3 only.  The openings in
  // between prove it alive, so its miss counter restarts and it is
  // never excluded.  A barrier after each opening keeps the dropper in
  // step with the honest parties' timeouts.
  class DropAtSteps final : public AdversaryHooks {
   public:
    bool drop_messages_to(std::uint64_t step, int) override {
      return step == 0 || step == 3;
    }
  };
  net::NetworkConfig net_config;
  net_config.recv_timeout = std::chrono::milliseconds(80);
  ThreePartyHarness harness(SecurityMode::kMalicious, net_config);
  DropAtSteps dropper;
  harness.contexts[0].adversary = &dropper;

  constexpr std::size_t kOpenings = 8;
  Rng rng(41);
  std::vector<RingTensor> secrets;
  std::vector<std::array<PartyShare, 3>> views;
  for (std::size_t i = 0; i < kOpenings; ++i) {
    secrets.push_back(random_ring(Shape{16}, rng));
    views.push_back(share_secret(secrets.back(), rng));
  }
  std::array<std::vector<RingTensor>, 3> results;
  std::barrier sync(3);
  harness.run([&](PartyContext& ctx) {
    const auto party = static_cast<std::size_t>(ctx.party);
    for (const auto& view : views) {
      try {
        results[party].push_back(open_value(ctx, view[party]));
      } catch (const ProtocolError&) {
        if (party != 0) {
          throw;
        }
      }
      sync.arrive_and_wait();
    }
  });
  for (const std::size_t party : {1u, 2u}) {
    const PartyContext& ctx = harness.contexts[party];
    EXPECT_FALSE(ctx.excluded[0]) << "party " << party;
    EXPECT_EQ(results[party], secrets) << "party " << party;
  }
}

// ---------------------------------------------------------------------------
// Characterization of every opening mode: its wire cost and its whole
// transcript under each stock party-1 behaviour, pinned so that any
// restructuring of the opening round reproduces them exactly.

/// The three openings: HbC, crash-fault and the full malicious one.
enum class OpenMode { kHbc, kCrashFault, kFull };

const char* to_string(OpenMode mode) {
  switch (mode) {
    case OpenMode::kHbc:
      return "HbC";
    case OpenMode::kCrashFault:
      return "CrashFault";
    case OpenMode::kFull:
      return "Full";
  }
  return "?";
}

SecurityMode security_mode(OpenMode mode) {
  switch (mode) {
    case OpenMode::kHbc:
      return SecurityMode::kHonestButCurious;
    case OpenMode::kCrashFault:
      return SecurityMode::kCrashFault;
    default:
      return SecurityMode::kMalicious;
  }
}

TEST(OpenWireCostTest, OneOpeningOf4096ElementsPerMode) {
  struct Expected {
    OpenMode mode;
    std::uint64_t messages;
    std::uint64_t bytes;
  };
  for (const Expected& expected :
       {Expected{OpenMode::kHbc, 6, 393570},
        Expected{OpenMode::kCrashFault, 12, 393696},
        Expected{OpenMode::kFull, 18, 590700}}) {
    ThreePartyHarness harness(security_mode(expected.mode));
    Rng rng(13);
    const RingTensor secret = random_ring(Shape{4096}, rng);
    for (const auto& result : open_once(harness, secret)) {
      EXPECT_EQ(result, secret) << to_string(expected.mode);
    }
    const auto traffic = harness.network.traffic();
    EXPECT_EQ(traffic.total_messages, expected.messages)
        << to_string(expected.mode);
    EXPECT_EQ(traffic.total_bytes, expected.bytes) << to_string(expected.mode);
  }
}

using Behavior = ByzantineConfig::Behavior;

struct TranscriptCell {
  OpenMode mode;
  Behavior behavior;
  /// First 16 hex digits of the SHA-256 over the transcript.
  const char* digest;
};

/// Three OpenBatch flushes, each a 2-value and a 1-value group, with
/// party 1 running `behavior` (Case 2 targets party 0).  The digest
/// covers every honest party's opened values, detection log and
/// exclusion flags, and the per-link message and byte counts.
std::string transcript_digest(OpenMode mode, Behavior behavior) {
  net::NetworkConfig net_config;
  net_config.num_parties = 3;
  net_config.recv_timeout = std::chrono::milliseconds(80);
  ThreePartyHarness harness(security_mode(mode), net_config);
  const bool attacked = behavior != Behavior::kNone;
  if (attacked) {
    ByzantineConfig config;
    config.behavior = behavior;
    config.target_peer = 0;
    harness.make_byzantine(1, config);
  }

  constexpr int kFlushes = 3;
  Rng rng(77);
  // views[flush][value][party]
  std::vector<std::array<std::array<PartyShare, 3>, 3>> views(kFlushes);
  for (auto& flush : views) {
    const Shape shapes[3] = {Shape{3}, Shape{2, 2}, Shape{5}};
    for (std::size_t value = 0; value < 3; ++value) {
      flush[value] = share_secret(random_ring(shapes[value], rng), rng);
    }
  }
  std::array<std::vector<RingTensor>, 3> opened;
  harness.run([&](PartyContext& ctx) {
    const auto party = static_cast<std::size_t>(ctx.party);
    const auto keep = [&opened, party](std::vector<RingTensor> values) {
      for (auto& value : values) {
        opened[party].push_back(std::move(value));
      }
    };
    OpenBatch batch(ctx);
    for (const auto& flush : views) {
      batch.enqueue({flush[0][party], flush[1][party]}, keep);
      batch.enqueue({flush[2][party]}, keep);
      try {
        batch.flush();
      } catch (const ProtocolError&) {
        // A dropping attacker may time out on the honest parties' late
        // commitments and fail its own opening; it still takes part in
        // the next flush, so what it sends stays the same.
        if (!attacked || party != 1) {
          throw;
        }
      }
    }
  });

  ByteWriter transcript;
  for (int party = 0; party < 3; ++party) {
    if (attacked && party == 1) {
      continue;
    }
    const auto& ctx = harness.contexts[static_cast<std::size_t>(party)];
    transcript.write_u64(opened[static_cast<std::size_t>(party)].size());
    for (const auto& value : opened[static_cast<std::size_t>(party)]) {
      write_tensor(transcript, value);
    }
    const DetectionLog& log = ctx.detections;
    transcript.write_u64(log.events.size());
    for (const auto& event : log.events) {
      transcript.write_string(to_string(event.kind));
      transcript.write_u64(event.step);
      transcript.write_i64(event.suspect);
      transcript.write_string(event.phase);
      transcript.write_string(event.recovery);
    }
    transcript.write_u64(log.opens);
    transcript.write_u64(log.values_opened);
    transcript.write_u64(log.recovered_opens);
    for (const bool excluded : ctx.excluded) {
      transcript.write_u8(excluded ? 1 : 0);
    }
  }
  for (const auto& row : harness.network.traffic().links) {
    for (const auto& link : row) {
      transcript.write_u64(link.messages);
      transcript.write_u64(link.bytes);
    }
  }
  return Sha256::hex(Sha256::hash(transcript.bytes())).substr(0, 16);
}

class OpenTranscriptTest : public ::testing::TestWithParam<TranscriptCell> {};

TEST_P(OpenTranscriptTest, MatchesPinnedDigest) {
  const TranscriptCell& cell = GetParam();
  EXPECT_EQ(transcript_digest(cell.mode, cell.behavior), cell.digest);
}

constexpr TranscriptCell kTranscripts[] = {
    {OpenMode::kHbc, Behavior::kNone, "6a45315a3bb41bcd"},
    {OpenMode::kHbc, Behavior::kCommitmentViolationGlobal, "27e4aad8535ace68"},
    {OpenMode::kHbc, Behavior::kCommitmentViolationSingle, "27e4aad8535ace68"},
    {OpenMode::kHbc, Behavior::kConsistentCorruption, "27e4aad8535ace68"},
    {OpenMode::kHbc, Behavior::kDropMessages, "27e4aad8535ace68"},
    {OpenMode::kHbc, Behavior::kCoordinatedDelta, "27e4aad8535ace68"},
    {OpenMode::kHbc, Behavior::kStealthyDupSecond, "27e4aad8535ace68"},
    {OpenMode::kCrashFault, Behavior::kNone, "ca6e69ae2c7df98c"},
    {OpenMode::kCrashFault, Behavior::kCommitmentViolationGlobal,
     "ac53486069159c2f"},
    {OpenMode::kCrashFault, Behavior::kCommitmentViolationSingle,
     "ac53486069159c2f"},
    {OpenMode::kCrashFault, Behavior::kConsistentCorruption,
     "ac53486069159c2f"},
    {OpenMode::kCrashFault, Behavior::kDropMessages, "ac53486069159c2f"},
    {OpenMode::kCrashFault, Behavior::kCoordinatedDelta, "ac53486069159c2f"},
    {OpenMode::kCrashFault, Behavior::kStealthyDupSecond, "ac53486069159c2f"},
    {OpenMode::kFull, Behavior::kNone, "5cc88b853dee7771"},
    {OpenMode::kFull, Behavior::kCommitmentViolationGlobal, "886a148a14e11dea"},
    {OpenMode::kFull, Behavior::kCommitmentViolationSingle, "88afe4ecc7a117be"},
    {OpenMode::kFull, Behavior::kConsistentCorruption, "52157df4590217fd"},
    {OpenMode::kFull, Behavior::kDropMessages, "cd92243c3e620574"},
    {OpenMode::kFull, Behavior::kCoordinatedDelta, "52157df4590217fd"},
    {OpenMode::kFull, Behavior::kStealthyDupSecond, "41524023e0c5bdd1"},
};

std::string behavior_name(Behavior behavior) {
  switch (behavior) {
    case Behavior::kNone:
      return "None";
    case Behavior::kConsistentCorruption:
      return "Case3";
    case Behavior::kCommitmentViolationGlobal:
      return "Case1";
    case Behavior::kCommitmentViolationSingle:
      return "Case2";
    case Behavior::kDropMessages:
      return "Drop";
    case Behavior::kCoordinatedDelta:
      return "CoordinatedDelta";
    case Behavior::kStealthyDupSecond:
      return "StealthyDupSecond";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    ModesByBehaviors, OpenTranscriptTest, ::testing::ValuesIn(kTranscripts),
    [](const ::testing::TestParamInfo<TranscriptCell>& info) {
      return std::string(to_string(info.param.mode)) + "_" +
             behavior_name(info.param.behavior);
    });

}  // namespace
}  // namespace trustddl::mpc
