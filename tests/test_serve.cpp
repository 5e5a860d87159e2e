// Serving-layer tests: BatchQueue policy, wire framing, and full
// in-process serving sessions (three party servers + owner scheduler +
// clients over one in-memory network), including the Byzantine and
// crash degradations at the serving edge.
#include <atomic>
#include <cstdio>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "serve/batch_queue.hpp"
#include "net/network.hpp"
#include "nn/model_zoo.hpp"
#include "serve/harness.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {
namespace {

using Clock = BatchQueue::Clock;
using std::chrono::milliseconds;

BatchQueue::Entry entry(net::PartyId client, std::uint64_t seq,
                        std::size_t rows, Clock::time_point admitted,
                        milliseconds deadline = milliseconds(60000)) {
  BatchQueue::Entry e;
  e.client = client;
  e.seq = seq;
  e.rows = rows;
  e.admitted = admitted;
  e.deadline = admitted + deadline;
  return e;
}

// ---------------------------------------------------------------------------
// BatchQueue: the clock-injected flush/expiry/backpressure state
// machine, unit-tested deterministically.

TEST(BatchQueueTest, FlushesWhenMaxRowsPending) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(1000));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 3, now)));
  EXPECT_FALSE(queue.should_flush(now));
  ASSERT_TRUE(queue.push(entry(5, 1, 5, now)));
  EXPECT_TRUE(queue.should_flush(now));  // 8 rows pending, window not up
}

TEST(BatchQueueTest, FlushesWhenWindowExpires) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(20));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 1, now)));
  EXPECT_FALSE(queue.should_flush(now + milliseconds(19)));
  EXPECT_TRUE(queue.should_flush(now + milliseconds(20)));
}

TEST(BatchQueueTest, RejectsWhenFull) {
  BatchQueue queue(/*capacity=*/2, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(20));
  const auto now = Clock::now();
  EXPECT_TRUE(queue.push(entry(5, 0, 1, now)));
  EXPECT_TRUE(queue.push(entry(6, 0, 1, now)));
  EXPECT_FALSE(queue.push(entry(7, 0, 1, now)));  // backpressure
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BatchQueueTest, ExpiresPastDeadlineEntries) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(1000));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 2, now, milliseconds(10))));
  ASSERT_TRUE(queue.push(entry(6, 0, 3, now, milliseconds(10000))));
  const auto expired = queue.expire(now + milliseconds(11));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].client, 5);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pending_rows(), 3u);
}

TEST(BatchQueueTest, PopBatchRespectsMaxRowsAndArrivalOrder) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(0));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 3, now)));
  ASSERT_TRUE(queue.push(entry(6, 0, 4, now)));
  ASSERT_TRUE(queue.push(entry(7, 0, 2, now)));  // 3+4+2 > 8: next batch
  const auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].client, 5);
  EXPECT_EQ(batch[1].client, 6);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pending_rows(), 2u);
}

TEST(BatchQueueTest, OversizedRequestDispatchesAlone) {
  BatchQueue queue(/*capacity=*/16, /*max_batch_rows=*/8,
                   /*window=*/milliseconds(0));
  const auto now = Clock::now();
  ASSERT_TRUE(queue.push(entry(5, 0, 16, now)));
  ASSERT_TRUE(queue.push(entry(6, 0, 1, now)));
  const auto batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].rows, 16u);
  EXPECT_EQ(queue.pending_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Wire framing round-trips.

TEST(ServeWireTest, NoticeRoundTrip) {
  RequestNotice notice;
  notice.kind = NoticeKind::kRequest;
  notice.seq = 41;
  notice.rows = 7;
  notice.deadline_ms = 1234;
  const RequestNotice decoded = decode_notice(encode_notice(notice));
  EXPECT_EQ(decoded.kind, notice.kind);
  EXPECT_EQ(decoded.seq, notice.seq);
  EXPECT_EQ(decoded.rows, notice.rows);
  EXPECT_EQ(decoded.deadline_ms, notice.deadline_ms);

  RequestNotice stop;
  stop.kind = NoticeKind::kStop;
  stop.seq = 42;
  EXPECT_EQ(decode_notice(encode_notice(stop)).kind, NoticeKind::kStop);
}

TEST(ServeWireTest, ManifestRoundTrip) {
  BatchManifest manifest;
  manifest.index = 9;
  manifest.entries = {{kFirstClientId, 3, 2}, {kFirstClientId + 1, 0, 5}};
  const BatchManifest decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.index, 9u);
  EXPECT_FALSE(decoded.shutdown);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].client, kFirstClientId);
  EXPECT_EQ(decoded.entries[1].rows, 5u);
  EXPECT_EQ(decoded.total_rows(), 7u);

  BatchManifest shutdown;
  shutdown.index = 10;
  shutdown.shutdown = true;
  EXPECT_TRUE(decode_manifest(encode_manifest(shutdown)).shutdown);
}

TEST(ServeWireTest, ControlRoundTrip) {
  ControlResponse control;
  control.status = Status::kDeadlineMissed;
  control.seq = 17;
  const ControlResponse decoded = decode_control(encode_control(control));
  EXPECT_EQ(decoded.status, Status::kDeadlineMissed);
  EXPECT_EQ(decoded.seq, 17u);
}

TEST(ServeWireTest, ShareRoundTrip) {
  Rng rng(7);
  RingTensor secret({3, 4});
  for (auto& v : secret.values()) {
    v = rng.next_u64();
  }
  const auto triples = mpc::share_secret(secret, rng);
  for (const auto& triple : triples) {
    const mpc::PartyShare decoded = decode_share(encode_share(triple));
    EXPECT_EQ(decoded.primary, triple.primary);
    EXPECT_EQ(decoded.duplicate, triple.duplicate);
    EXPECT_EQ(decoded.second, triple.second);
  }
}

TEST(ServeWireTest, ConcatThenSliceRoundTrip) {
  Rng rng(11);
  RingTensor a({2, 5});
  RingTensor b({3, 5});
  for (auto& v : a.values()) {
    v = rng.next_u64();
  }
  for (auto& v : b.values()) {
    v = rng.next_u64();
  }
  const auto shares_a = mpc::share_secret(a, rng);
  const auto shares_b = mpc::share_secret(b, rng);
  for (int party = 0; party < mpc::kNumParties; ++party) {
    const mpc::PartyShare coalesced = concat_rows(
        {shares_a[static_cast<std::size_t>(party)],
         shares_b[static_cast<std::size_t>(party)]});
    EXPECT_EQ(coalesced.primary.shape(), (Shape{5, 5}));
    const mpc::PartyShare back_a = slice_rows(coalesced, 0, 2);
    const mpc::PartyShare back_b = slice_rows(coalesced, 2, 3);
    EXPECT_EQ(back_a.primary, shares_a[static_cast<std::size_t>(party)].primary);
    EXPECT_EQ(back_a.second, shares_a[static_cast<std::size_t>(party)].second);
    EXPECT_EQ(back_b.duplicate,
              shares_b[static_cast<std::size_t>(party)].duplicate);
    EXPECT_EQ(back_b.second, shares_b[static_cast<std::size_t>(party)].second);
  }
}

// ---------------------------------------------------------------------------
// Full in-process serving sessions.

core::EngineConfig fast_engine() {
  core::EngineConfig config;
  config.collect_timeout = std::chrono::milliseconds(300);
  return config;
}

data::TrainTestSplit query_split(std::size_t rows) {
  data::SyntheticMnistConfig config;
  config.train_count = 1;
  config.test_count = rows;
  config.seed = 42;
  return data::generate_synthetic_mnist(config);
}

/// Labels the in-memory engine (same spec/config seeds as the serving
/// session) computes for `sample` — the correctness reference:
/// serving coalesces different batch shapes, but predictions must not
/// change.
std::vector<std::size_t> reference_labels(const nn::ModelSpec& spec,
                                          const core::EngineConfig& config,
                                          const data::Dataset& sample) {
  core::TrustDdlEngine engine(spec, config);
  return engine.infer(sample, /*batch_size=*/4).labels;
}

TEST(ServeModelOwnerTest, RejectsAModelTheSpecDoesNotDescribe) {
  // The parties load SecureModel(spec, …): a model of other shapes
  // must fail at the owner, before any parameter share is sent, rather
  // than leave every party blocked in receive_parameters.
  net::Network network(net::NetworkConfig{.num_parties = core::kNumActors});
  Rng rng(3);
  nn::Sequential tiny = nn::build_model(nn::tiny_cnn_spec(), rng);
  try {
    serve_model_owner_body(nn::mnist_cnn_spec(), core::EngineConfig{}, tiny,
                           network.endpoint(core::kModelOwner), ServeConfig{},
                           /*num_clients=*/1);
    FAIL() << "owner body accepted a tiny-CNN model for the Table I spec";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("parameter 0"),
              std::string::npos)
        << error.what();
  }
  for (int party = 0; party < core::kComputingParties; ++party) {
    Bytes share;
    EXPECT_FALSE(
        network.endpoint(party).try_recv(core::kModelOwner, "init/0", share))
        << "party " << party;
  }
}

TEST(ServeSessionTest, ConcurrentClientsMatchSequentialInference) {
  constexpr int kClients = 2;
  constexpr std::size_t kRequests = 4;
  const auto split = query_split(kClients * kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 4;
  config.serve.batch_window = milliseconds(10);
  config.num_clients = kClients;

  std::vector<std::vector<InferenceResult>> results(
      kClients, std::vector<InferenceResult>(kRequests));
  const SessionResult session = run_serving_session(
      config, [&](int index, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const data::Dataset row = data::slice(
              split.test, static_cast<std::size_t>(index) * kRequests + r, 1);
          results[static_cast<std::size_t>(index)][r] =
              client.infer(row.images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine,
      data::slice(split.test, 0, kClients * kRequests));
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const auto& result = results[static_cast<std::size_t>(c)][r];
      ASSERT_EQ(result.status, Status::kOk) << "client " << c << " seq " << r;
      ASSERT_EQ(result.labels.size(), 1u);
      EXPECT_EQ(result.labels[0],
                expected[static_cast<std::size_t>(c) * kRequests + r]);
      EXPECT_GE(result.responders, 2);
      EXPECT_FALSE(result.anomaly);
    }
  }
  EXPECT_EQ(session.scheduler.admitted, kClients * kRequests);
  EXPECT_EQ(session.scheduler.completed, kClients * kRequests);
}

TEST(ServeSessionTest, CoalescesConcurrentRequestsIntoBatches) {
  constexpr std::size_t kRequests = 8;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 4;
  config.serve.batch_window = milliseconds(50);

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        // Submit everything up front so the owner sees a full queue,
        // then await: the batcher must coalesce, not serialize.
        std::vector<std::uint64_t> seqs(kRequests);
        for (std::size_t r = 0; r < kRequests; ++r) {
          seqs[r] = client.submit(data::slice(split.test, r, 1).images);
        }
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.await(seqs[r], 1);
        }
      });

  const auto expected =
      reference_labels(config.spec, config.engine,
                       data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]);
  }
  EXPECT_LT(session.scheduler.batches, kRequests);  // real coalescing
  EXPECT_EQ(session.scheduler.batched_rows, kRequests);
  for (const std::size_t batches : session.party_batches) {
    EXPECT_EQ(batches, session.scheduler.batches);
  }
}

TEST(ServeSessionTest, LedgerEquationHolds) {
  const auto split = query_split(4);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);

  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < 4; ++r) {
          client.infer(data::slice(split.test, r, 1).images);
        }
      });
  EXPECT_EQ(session.scheduler.admitted,
            session.scheduler.completed + session.scheduler.rejected +
                session.scheduler.deadline_missed);
  EXPECT_EQ(session.scheduler.admitted, 4u);
  EXPECT_GT(session.scheduler.batches, 0u);
}

TEST(ServeSessionTest, QueueFullRejectsThenRetrySucceeds) {
  const auto split = query_split(4);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // Nothing flushes for 150ms and only two requests fit: the third
  // must bounce with kRejected, and a retried request must land once
  // the window expires the backlog.
  config.serve.max_batch_rows = 64;
  config.serve.batch_window = milliseconds(150);
  config.serve.queue_capacity = 2;
  config.client.max_retries = 8;
  config.client.retry_backoff = milliseconds(50);

  InferenceResult rejected;
  InferenceResult retried;
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        const auto seq_a = client.submit(data::slice(split.test, 0, 1).images);
        const auto seq_b = client.submit(data::slice(split.test, 1, 1).images);
        const auto seq_c = client.submit(data::slice(split.test, 2, 1).images);
        rejected = client.await(seq_c, 1);
        // infer() retries rejected submissions with backoff until the
        // window flushes the two admitted requests.
        retried = client.infer(data::slice(split.test, 3, 1).images);
        client.await(seq_a, 1);
        client.await(seq_b, 1);
      });

  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_EQ(retried.status, Status::kOk);
  EXPECT_GE(session.scheduler.rejected, 1u);
  EXPECT_EQ(session.scheduler.admitted,
            session.scheduler.completed + session.scheduler.rejected +
                session.scheduler.deadline_missed);
}

TEST(ServeSessionTest, ExpiredDeadlineIsReported) {
  const auto split = query_split(1);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // A 1ms queue deadline under a 500ms batch window: the owner's
  // deadline sweep must answer before any batch forms.
  config.serve.max_batch_rows = 64;
  config.serve.batch_window = milliseconds(500);
  config.client.deadline = milliseconds(1);

  InferenceResult result;
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        result = client.infer(split.test.images);
      });

  EXPECT_EQ(result.status, Status::kDeadlineMissed);
  EXPECT_EQ(session.scheduler.deadline_missed, 1u);
  EXPECT_EQ(session.scheduler.completed, 0u);
  EXPECT_EQ(session.scheduler.admitted, 1u);
}

TEST(ServeSessionTest, ReconstructsWithPartyCrashedMidService) {
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  // Short protocol timeouts so the surviving parties detect the dead
  // peer quickly; generous client budget so degraded batches finish.
  config.engine.recv_timeout = milliseconds(150);
  config.serve.max_batch_rows = 1;  // one batch per request
  config.serve.batch_window = milliseconds(5);
  config.client.response_timeout = milliseconds(60000);
  config.client.deadline = milliseconds(60000);
  config.crash_party = 2;
  config.crash_after_batches = 1;

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine, data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]) << "seq " << r;
  }
  // The crashed party executed exactly one batch; requests after the
  // crash were answered from the two survivors (2-of-3).
  EXPECT_EQ(session.party_batches[2], 1u);
  EXPECT_EQ(session.party_batches[0], kRequests);
  EXPECT_LE(results[kRequests - 1].responders, 2);
}

TEST(ServeSessionTest, OutvotesCorruptedResultShares) {
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kRequests);

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);
  config.corrupt_party = 1;

  std::vector<InferenceResult> results(kRequests);
  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          results[r] = client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const auto expected = reference_labels(
      config.spec, config.engine, data::slice(split.test, 0, kRequests));
  for (std::size_t r = 0; r < kRequests; ++r) {
    ASSERT_EQ(results[r].status, Status::kOk) << "seq " << r;
    EXPECT_EQ(results[r].labels[0], expected[r]) << "seq " << r;
    // The corrupted share set must be noticed, never believed.
    EXPECT_TRUE(results[r].anomaly) << "seq " << r;
  }
  EXPECT_EQ(session.scheduler.completed, kRequests);
}

TEST(ServeSessionTest, RecordsServeMetrics) {
  const auto split = query_split(4);

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();

  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);

  const SessionResult session = run_serving_session(
      config, [&](int, InferenceClient& client) {
        for (std::size_t r = 0; r < 4; ++r) {
          client.infer(data::slice(split.test, r, 1).images);
        }
      });

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  obs::set_metrics_enabled(false);

  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [counter_name, value] : snapshot.counters) {
      if (counter_name == name) {
        return value;
      }
    }
    return 0;
  };
  EXPECT_EQ(counter("serve.requests.admitted"), session.scheduler.admitted);
  EXPECT_EQ(counter("serve.requests.admitted"),
            counter("serve.requests.completed") +
                counter("serve.requests.rejected") +
                counter("serve.requests.deadline_missed"));
  EXPECT_EQ(counter("serve.batches"), session.scheduler.batches);

  bool found_rows_histogram = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "serve.batch.rows") {
      found_rows_histogram = true;
      EXPECT_EQ(histogram.count, session.scheduler.batches);
    }
  }
  EXPECT_TRUE(found_rows_histogram);
}

TEST(ServeSessionTest, ProtocolAdversaryLeavesLabelsBitIdentical) {
  // Case 3 at computing party 1: every opening carries commitment-
  // consistent but corrupted shares.  Under masked-open truncation the
  // honest parties' openings stay value-exact, so every served label
  // must equal the honest session's, and every detection the honest
  // parties record must name party 1.
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kRequests);
  SessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.engine.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  config.serve.max_batch_rows = 2;
  config.serve.batch_window = milliseconds(10);
  const auto serve_all = [&](const SessionConfig& session_config,
                             SessionResult* session) {
    std::vector<std::size_t> labels;
    *session = run_serving_session(
        session_config, [&](int, InferenceClient& client) {
          for (std::size_t r = 0; r < kRequests; ++r) {
            const InferenceResult result =
                client.infer(data::slice(split.test, r, 1).images);
            ASSERT_EQ(result.status, Status::kOk) << "seq " << r;
            labels.push_back(result.labels[0]);
          }
        });
    return labels;
  };
  SessionResult honest_session;
  const std::vector<std::size_t> honest = serve_all(config, &honest_session);
  EXPECT_EQ(honest_session.cost.share_auth_failures, 0u);

  SessionConfig attacked = config;
  attacked.engine.byzantine_party = 1;
  attacked.engine.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  attacked.engine.metrics_out =
      ::testing::TempDir() + "serve_adversary_metrics.json";
  SessionResult session;
  EXPECT_EQ(serve_all(attacked, &session), honest);
  EXPECT_GT(session.cost.share_auth_failures, 0u);
  EXPECT_GT(session.cost.opening_rounds, 0u);
  std::size_t honest_events = 0;
  for (const auto& event : obs::EventLog::global().snapshot()) {
    if (event.party != 1) {
      ++honest_events;
      EXPECT_EQ(event.suspect, 1) << event.kind << " seen by " << event.party;
    }
  }
  EXPECT_GT(honest_events, 0u);
  obs::set_metrics_enabled(false);
  std::remove(attacked.engine.metrics_out.c_str());
}

}  // namespace
}  // namespace trustddl::serve
