// Deferred-opening round scheduler (mpc::OpenBatch): batched openings
// must reconstruct exactly what sequential openings do, in fewer
// rounds, without weakening any of the Byzantine detection machinery —
// and the engine-level toggle must save the promised round trips on
// the paper's Table I network with bit-identical trained weights.
#include "mpc/open.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "mpc/adversary.hpp"
#include "mpc/protocols_bt.hpp"
#include "numeric/fixed_point.hpp"
#include "serve/client.hpp"
#include "test_util.hpp"

namespace trustddl::mpc {
namespace {

using testing::ThreePartyHarness;
using testing::random_real;
using testing::random_ring;

constexpr int kF = fx::kDefaultFracBits;

std::vector<RingTensor> make_secrets(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RingTensor> secrets;
  secrets.push_back(random_ring(Shape{4, 3}, rng));
  secrets.push_back(random_ring(Shape{7}, rng));
  secrets.push_back(random_ring(Shape{2, 2}, rng));
  return secrets;
}

std::vector<std::array<PartyShare, 3>> share_all(
    const std::vector<RingTensor>& secrets, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<PartyShare, 3>> views;
  views.reserve(secrets.size());
  for (const auto& secret : secrets) {
    views.push_back(share_secret(secret, rng));
  }
  return views;
}

class OpenBatchAllModes : public ::testing::TestWithParam<SecurityMode> {};

TEST_P(OpenBatchAllModes, BatchedMatchesSequentialBitIdentically) {
  const SecurityMode mode = GetParam();
  const auto secrets = make_secrets(51);
  const auto views = share_all(secrets, 52);

  // Sequential: one robust opening round per value.
  ThreePartyHarness sequential(mode);
  std::array<std::vector<RingTensor>, 3> seq_results;
  sequential.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    for (const auto& view : views) {
      seq_results[index].push_back(open_value(ctx, view[index]));
    }
  });

  // Batched: all values in ONE round.
  ThreePartyHarness batched(mode);
  std::array<std::vector<RingTensor>, 3> batch_results;
  batched.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    OpenBatch batch(ctx);
    std::vector<DeferredTensor> handles;
    for (const auto& view : views) {
      handles.push_back(batch.enqueue_value(view[index]));
    }
    EXPECT_EQ(batch.pending(), secrets.size());
    batch.flush();
    EXPECT_EQ(batch.pending(), 0u);
    EXPECT_EQ(batch.flushes(), 1u);
    for (auto& handle : handles) {
      batch_results[index].push_back(handle.take());
    }
  });

  for (std::size_t party = 0; party < 3; ++party) {
    ASSERT_EQ(seq_results[party].size(), secrets.size());
    ASSERT_EQ(batch_results[party].size(), secrets.size());
    for (std::size_t i = 0; i < secrets.size(); ++i) {
      EXPECT_EQ(seq_results[party][i], secrets[i]);
      EXPECT_EQ(batch_results[party][i], seq_results[party][i]);
    }
  }
  for (const auto& ctx : sequential.contexts) {
    EXPECT_EQ(ctx.detections.opens, secrets.size());
    EXPECT_EQ(ctx.detections.values_opened, secrets.size());
  }
  for (const auto& ctx : batched.contexts) {
    EXPECT_EQ(ctx.detections.opens, 1u);
    EXPECT_EQ(ctx.detections.values_opened, secrets.size());
  }
}

TEST_P(OpenBatchAllModes, BatchingStrictlyReducesMessageCount) {
  const SecurityMode mode = GetParam();
  const auto secrets = make_secrets(53);
  const auto views = share_all(secrets, 54);

  ThreePartyHarness sequential(mode);
  sequential.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    for (const auto& view : views) {
      open_value(ctx, view[index]);
    }
  });

  ThreePartyHarness batched(mode);
  batched.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    OpenBatch batch(ctx);
    for (const auto& view : views) {
      batch.enqueue_value(view[index]);
    }
    batch.flush();
  });

  const auto seq_traffic = sequential.network.traffic();
  const auto batch_traffic = batched.network.traffic();
  EXPECT_LT(batch_traffic.total_messages, seq_traffic.total_messages);
  // Per-round messages are mode-dependent but value-count independent,
  // so N values batch into exactly the traffic of ONE opening.
  EXPECT_EQ(batch_traffic.total_messages * secrets.size(),
            seq_traffic.total_messages);
}

INSTANTIATE_TEST_SUITE_P(AllSecurityModes, OpenBatchAllModes,
                         ::testing::Values(SecurityMode::kMalicious,
                                           SecurityMode::kHonestButCurious,
                                           SecurityMode::kCrashFault));

TEST(OpenBatchTest, FlushOnEmptyBatchIsFree) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  harness.run([&](PartyContext& ctx) {
    OpenBatch batch(ctx);
    batch.flush();
    batch.flush_all();
    EXPECT_EQ(batch.flushes(), 0u);
    EXPECT_EQ(ctx.detections.opens, 0u);
  });
  EXPECT_EQ(harness.network.traffic().total_messages, 0u);
}

TEST(OpenBatchTest, DeferredGuardsAgainstUseBeforeFlush) {
  DeferredTensor handle;
  EXPECT_FALSE(handle.ready());
  EXPECT_THROW(handle.get(), Error);
  handle.set(RingTensor(Shape{1}));
  EXPECT_TRUE(handle.ready());
}

// --- Detection semantics inside a batch ---------------------------------

TEST(OpenBatchDetectionTest, CommitmentViolationAttributedToBatchStep) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCommitmentViolationGlobal;
  harness.make_byzantine(1, config);

  Rng rng(55);
  const RingTensor eager_secret = random_ring(Shape{3}, rng);
  const auto eager_views = share_secret(eager_secret, rng);
  const auto secrets = make_secrets(56);
  const auto views = share_all(secrets, 57);

  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    // Step 0: an eager opening.  Step 1: one batched round.
    const RingTensor eager = open_value(ctx, eager_views[index]);
    OpenBatch batch(ctx);
    std::vector<DeferredTensor> handles;
    for (const auto& view : views) {
      handles.push_back(batch.enqueue_value(view[index]));
    }
    batch.flush();
    if (ctx.party != 1) {
      EXPECT_EQ(eager, eager_secret);
      for (std::size_t i = 0; i < secrets.size(); ++i) {
        EXPECT_EQ(handles[i].take(), secrets[i]);
      }
    }
  });

  for (int party : {0, 2}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    // One violation per opening ROUND — batching does not multiply or
    // swallow them — each attributed to the round's own step.
    EXPECT_EQ(log.count(DetectionEvent::Kind::kCommitmentViolation), 2u)
        << "party " << party;
    std::size_t step0 = 0;
    std::size_t step1 = 0;
    for (const auto& event : log.events) {
      if (event.kind != DetectionEvent::Kind::kCommitmentViolation) {
        continue;
      }
      EXPECT_EQ(event.suspect, 1);
      step0 += event.step == 0 ? 1 : 0;
      step1 += event.step == 1 ? 1 : 0;
    }
    EXPECT_EQ(step0, 1u);
    EXPECT_EQ(step1, 1u);
  }
}

TEST(OpenBatchDetectionTest, DistanceAnomalyStillFiresInsideBatch) {
  // Bare decision rule (share authentication off), consistently
  // corrupting adversary: the distance rule must flag the batched
  // round and attribute the suspect exactly as it does eagerly.
  ThreePartyHarness harness(SecurityMode::kMalicious);
  for (auto& ctx : harness.contexts) {
    ctx.share_authentication = false;
  }
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kConsistentCorruption;
  harness.make_byzantine(2, config);

  const auto secrets = make_secrets(58);
  const auto views = share_all(secrets, 59);
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    OpenBatch batch(ctx);
    std::vector<DeferredTensor> handles;
    for (const auto& view : views) {
      handles.push_back(batch.enqueue_value(view[index]));
    }
    batch.flush();
    if (ctx.party != 2) {
      for (std::size_t i = 0; i < secrets.size(); ++i) {
        EXPECT_EQ(handles[i].take(), secrets[i]);
      }
    }
  });

  for (int party : {0, 1}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    EXPECT_GE(log.count(DetectionEvent::Kind::kDistanceAnomaly), 1u)
        << "party " << party;
    EXPECT_GE(log.count(DetectionEvent::Kind::kByzantineSuspected), 1u);
    for (const auto& event : log.events) {
      EXPECT_EQ(event.step, 0u);  // the single batched round
      if (event.kind == DetectionEvent::Kind::kByzantineSuspected) {
        EXPECT_EQ(event.suspect, 2);
      }
    }
  }
}

TEST(OpenBatchDetectionTest, ShareAuthFailureStillFiresInsideBatch) {
  ThreePartyHarness harness(SecurityMode::kMalicious);
  ByzantineConfig config;
  config.behavior = ByzantineConfig::Behavior::kCoordinatedDelta;
  harness.make_byzantine(1, config);

  const auto secrets = make_secrets(60);
  const auto views = share_all(secrets, 61);
  harness.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    OpenBatch batch(ctx);
    std::vector<DeferredTensor> handles;
    for (const auto& view : views) {
      handles.push_back(batch.enqueue_value(view[index]));
    }
    batch.flush();
    if (ctx.party != 1) {
      for (std::size_t i = 0; i < secrets.size(); ++i) {
        EXPECT_EQ(handles[i].take(), secrets[i]);
      }
    }
  });

  for (int party : {0, 2}) {
    const auto& log =
        harness.contexts[static_cast<std::size_t>(party)].detections;
    EXPECT_GE(log.count(DetectionEvent::Kind::kShareAuthFailure), 1u)
        << "party " << party;
    for (const auto& event : log.events) {
      EXPECT_EQ(event.step, 0u);
      if (event.kind == DetectionEvent::Kind::kShareAuthFailure) {
        EXPECT_EQ(event.suspect, 1);
      }
    }
  }
}

// --- Prepare variants vs eager protocols --------------------------------

TEST(OpenBatchProtocolTest, PreparedCallsMatchEagerBitIdentically) {
  // Two independent matmuls (with masked-open rescale) and a
  // comparison, all against one batch: two flushes total, identical
  // outputs to the eager calls on identical dealer material.
  Rng rng(62);
  const RealTensor x = random_real(Shape{3, 4}, rng, 2.0);
  const RealTensor y = random_real(Shape{4, 2}, rng, 2.0);
  const RealTensor u = random_real(Shape{6}, rng);
  const RealTensor v = random_real(Shape{6}, rng);
  const auto x_views = share_secret(to_ring(x, kF), rng);
  const auto y_views = share_secret(to_ring(y, kF), rng);
  const auto u_views = share_secret(to_ring(u, kF), rng);
  const auto v_views = share_secret(to_ring(v, kF), rng);

  std::array<RingTensor, 3> eager_products;
  std::array<RingTensor, 3> eager_signs;
  ThreePartyHarness eager(SecurityMode::kMalicious);
  testing::PartyStores eager_stores(4242, kF);
  eager.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = eager_stores[ctx.party];
    const auto triple = source.matmul_triple(3, 4, 2);
    const auto pair = source.trunc_pair(Shape{3, 2});
    PartyShare z = sec_matmul_bt(ctx, x_views[index], y_views[index], triple);
    z = truncate_product_masked(ctx, z, pair);
    const auto comp_triple = source.mul_triple(Shape{6});
    const auto t_aux = source.comp_aux(Shape{6});
    eager_signs[index] = sec_comp_bt(ctx, u_views[index], v_views[index],
                                     {t_aux, comp_triple});
    eager_products[index] = open_value(ctx, z);
  });

  std::array<RingTensor, 3> batch_products;
  std::array<RingTensor, 3> batch_signs;
  ThreePartyHarness batched(SecurityMode::kMalicious);
  testing::PartyStores batched_stores(4242, kF);
  batched.run([&](PartyContext& ctx) {
    const auto index = static_cast<std::size_t>(ctx.party);
    TripleStore& source = batched_stores[ctx.party];
    OpenBatch batch(ctx);
    const auto triple = source.matmul_triple(3, 4, 2);
    const auto pair = source.trunc_pair(Shape{3, 2});
    DeferredShare z = sec_matmul_bt_rescaled_prepare(
        batch, x_views[index], y_views[index], triple,
        TruncationMode::kMaskedOpen, pair);
    const auto comp_triple = source.mul_triple(Shape{6});
    const auto t_aux = source.comp_aux(Shape{6});
    DeferredTensor signs = sec_comp_bt_prepare(
        batch, u_views[index], v_views[index], {t_aux, comp_triple});
    EXPECT_FALSE(z.ready());
    batch.flush_all();
    // Flush 1: Beaver masks of matmul + comparison.  Flush 2: the
    // chained truncation and β openings.
    EXPECT_EQ(batch.flushes(), 2u);
    batch_signs[index] = signs.take();
    batch_products[index] = open_value(ctx, z.take());
  });

  for (std::size_t party = 0; party < 3; ++party) {
    EXPECT_EQ(batch_products[party], eager_products[party]);
    EXPECT_EQ(batch_signs[party], eager_signs[party]);
  }
  // Eager: 4 opening rounds before the final reveal (matmul masks,
  // truncation, comparison masks, β); batched: 2.
  EXPECT_LT(batched.network.traffic().total_messages,
            eager.network.traffic().total_messages);
}

}  // namespace
}  // namespace trustddl::mpc

namespace trustddl::core {
namespace {

TEST(EngineConfigTest, DefaultToleranceMatchesPartyContextDefault) {
  // One documented project-wide default: a hand-rolled PartyContext,
  // owner service or serving client must judge reconstructions exactly
  // like an engine-built one.
  EXPECT_EQ(EngineConfig{}.dist_tolerance, mpc::PartyContext{}.dist_tolerance);
  EXPECT_EQ(OwnerServiceConfig{}.dist_tolerance,
            mpc::PartyContext{}.dist_tolerance);
  EXPECT_EQ(OwnerServiceConfig{}.frac_bits, mpc::PartyContext{}.frac_bits);
  EXPECT_EQ(serve::ClientOptions{}.dist_tolerance,
            mpc::PartyContext{}.dist_tolerance);
  EXPECT_EQ(serve::ClientOptions{}.frac_bits, mpc::PartyContext{}.frac_bits);
}

TEST(EngineConfigTest, MakePartyContextPropagatesEveryKnob) {
  net::NetworkConfig net_config;
  net::Network network(net_config);

  EngineConfig config;
  config.mode = mpc::SecurityMode::kHonestButCurious;
  config.frac_bits = 12;
  config.dist_tolerance = 5;
  config.byzantine_party = 1;
  mpc::StandardAdversary adversary(config.byzantine);

  for (int party = 0; party < 3; ++party) {
    const mpc::PartyContext ctx =
        make_party_context(config, party, network.endpoint(party), &adversary);
    EXPECT_EQ(ctx.party, party);
    EXPECT_EQ(ctx.mode, config.mode);
    EXPECT_EQ(ctx.frac_bits, config.frac_bits);
    EXPECT_EQ(ctx.dist_tolerance, config.dist_tolerance);
    // The adversary lands only on the configured Byzantine party.
    EXPECT_EQ(ctx.adversary, party == 1 ? &adversary : nullptr);
  }
}

TEST(EngineConfigTest, ExecContextCarriesBatchingToggle) {
  net::NetworkConfig net_config;
  net::Network network(net_config);
  EngineConfig config;
  config.trunc_mode = TruncationMode::kMaskedOpen;
  config.batch_openings = false;
  mpc::PartyContext pctx = make_party_context(config, 0, network.endpoint(0));
  OwnerLink link(network.endpoint(0), 0, std::chrono::seconds(1));
  mpc::TripleStore store(link, 0);
  const SecureExecContext sctx = make_exec_context(config, pctx, link, store);
  EXPECT_EQ(sctx.mpc, &pctx);
  EXPECT_EQ(sctx.triples, &store);
  EXPECT_EQ(sctx.owner, &link);
  EXPECT_EQ(sctx.trunc_mode, TruncationMode::kMaskedOpen);
  EXPECT_FALSE(sctx.batch_openings);
}

TEST(EngineBatchingTest, TableOneCnnStepSavesQuarterOfMessagesBitIdentically) {
  // The acceptance measurement of the deferred-opening scheduler: one
  // training step of the paper's Table I CNN, malicious mode with
  // masked-open truncation, must cost >= 25% fewer messages with round
  // scheduling on — and train to bit-identical weights, since batching
  // only merges rounds and never changes reconstructed values.  Both
  // the paper's per-product openings and the default reusable masks
  // must save the quarter against the paper's unbatched step.  Against
  // their own unbatched step reusable masks only have to save messages:
  // they drop the first layer's input gradient, whose openings the
  // scheduler used to merge with its weight gradient's.
  data::SyntheticMnistConfig data_config;
  data_config.train_count = 2;
  data_config.test_count = 4;
  data_config.seed = 42;
  const auto split = data::generate_synthetic_mnist(data_config);

  const auto run = [&](bool batch_openings, bool reuse_masks) {
    EngineConfig config;
    config.mode = mpc::SecurityMode::kMalicious;
    config.trunc_mode = TruncationMode::kMaskedOpen;
    config.batch_openings = batch_openings;
    config.reuse_masks = reuse_masks;
    config.emulate_latency = true;
    config.link_latency = std::chrono::microseconds(1);
    config.collect_timeout = std::chrono::milliseconds(300);
    TrustDdlEngine engine(nn::mnist_cnn_spec(), config);
    TrainOptions options;
    options.epochs = 1;
    options.batch_size = split.train.size();  // exactly one SGD step
    options.learning_rate = 0.2;
    const TrainResult result = engine.train(split.train, split.test, options);
    std::vector<RealTensor> weights;
    for (const auto* parameter : engine.reference_model().parameters()) {
      weights.push_back(parameter->value);
    }
    return std::make_pair(result, weights);
  };

  const auto [paper_unbatched, reference_weights] = run(false, false);
  for (const bool reuse_masks : {false, true}) {
    const auto [unbatched, unbatched_weights] =
        reuse_masks ? run(false, true)
                    : std::make_pair(paper_unbatched, reference_weights);
    const auto [batched, batched_weights] = run(true, reuse_masks);

    EXPECT_EQ(unbatched.cost.commitment_violations, 0u);
    EXPECT_EQ(batched.cost.commitment_violations, 0u);
    EXPECT_LE(batched.cost.total_messages,
              paper_unbatched.cost.total_messages * 3 / 4)
        << "batched " << batched.cost.total_messages << " vs unbatched "
        << paper_unbatched.cost.total_messages << " reuse " << reuse_masks;
    EXPECT_LT(batched.cost.total_messages, unbatched.cost.total_messages);

    for (const auto* weights : {&unbatched_weights, &batched_weights}) {
      ASSERT_EQ(weights->size(), reference_weights.size());
      for (std::size_t p = 0; p < weights->size(); ++p) {
        ASSERT_EQ((*weights)[p].size(), reference_weights[p].size());
        for (std::size_t i = 0; i < (*weights)[p].size(); ++i) {
          ASSERT_EQ((*weights)[p][i], reference_weights[p][i])
              << "parameter " << p << " element " << i << " reuse "
              << reuse_masks;
        }
      }
    }
  }
}

TEST(EngineBatchingTest, ByzantineTrainingStillRecoversWithBatching) {
  // The injected-fault scenario of EngineTest, with batching explicitly
  // on: detection and recovery must survive round scheduling.
  data::SyntheticMnistConfig data_config;
  data_config.train_count = 96;
  data_config.test_count = 40;
  data_config.seed = 42;
  const auto split = data::generate_synthetic_mnist(data_config);

  EngineConfig config;
  config.trunc_mode = TruncationMode::kMaskedOpen;
  config.batch_openings = true;
  config.collect_timeout = std::chrono::milliseconds(300);
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
  EXPECT_GT(result.cost.share_auth_failures, 0u);
}

}  // namespace
}  // namespace trustddl::core
