// Fleet-layer tests: topology parsing, rendezvous routing, pod-labeled
// metrics, and full in-process fleet sessions (N pods × owner + three
// parties, routed FleetClients), including the whole-pod-crash chaos
// drill where clients must fail over with zero lost requests.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "fleet/harness.hpp"
#include "fleet/router.hpp"
#include "fleet/topology.hpp"
#include "obs/admin_server.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"

namespace trustddl::fleet {
namespace {

using std::chrono::milliseconds;

constexpr const char* kTopologyJson = R"({
  "schema": "trustddl.fleet.v1",
  "clients": 4,
  "pods": [
    {"name": "pod0", "host": "127.0.0.1", "port_base": 29500,
     "admin_ports": [28700, 28701, 28702]},
    {"name": "pod1", "host": "10.0.0.2", "port_base": 29520,
     "admin_ports": [28710]}
  ]
})";

// ---------------------------------------------------------------------------
// Topology file parsing.

TEST(FleetTopologyTest, ParsesCanonicalJson) {
  const FleetTopology topology = parse_topology(kTopologyJson);
  ASSERT_EQ(topology.pods.size(), 2u);
  EXPECT_EQ(topology.clients, 4);
  EXPECT_EQ(topology.pods[0].name, "pod0");
  EXPECT_EQ(topology.pods[0].host, "127.0.0.1");
  EXPECT_EQ(topology.pods[0].port_base, 29500);
  ASSERT_EQ(topology.pods[0].admin_ports.size(), 3u);
  EXPECT_EQ(topology.pods[0].admin_ports[1], 28701);
  EXPECT_EQ(topology.pods[1].host, "10.0.0.2");
  EXPECT_EQ(topology.pods[1].admin_ports.size(), 1u);
  EXPECT_EQ(topology.pod_index("pod1"), 1u);
  EXPECT_EQ(topology.pods[1].address_of(core::kModelOwner),
            "10.0.0.2:29524");
  const std::vector<std::string> names = topology.pod_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "pod0");
  EXPECT_EQ(names[1], "pod1");
}

TEST(FleetTopologyTest, RoundTripsThroughToJson) {
  const FleetTopology topology = parse_topology(kTopologyJson);
  const FleetTopology again = parse_topology(topology.to_json());
  ASSERT_EQ(again.pods.size(), topology.pods.size());
  EXPECT_EQ(again.clients, topology.clients);
  for (std::size_t p = 0; p < topology.pods.size(); ++p) {
    EXPECT_EQ(again.pods[p].name, topology.pods[p].name);
    EXPECT_EQ(again.pods[p].host, topology.pods[p].host);
    EXPECT_EQ(again.pods[p].port_base, topology.pods[p].port_base);
    EXPECT_EQ(again.pods[p].admin_ports, topology.pods[p].admin_ports);
  }
}

TEST(FleetTopologyTest, RejectsMalformedInput) {
  // Not JSON at all.
  EXPECT_THROW(parse_topology("not json"), InvalidArgument);
  // Empty pod list.
  EXPECT_THROW(parse_topology(R"({"pods": []})"), InvalidArgument);
  // Pod without a name.
  EXPECT_THROW(parse_topology(R"({"pods": [{"port_base": 29500}]})"),
               InvalidArgument);
  // Pod without a port base.
  EXPECT_THROW(parse_topology(R"({"pods": [{"name": "pod0"}]})"),
               InvalidArgument);
  // Duplicate pod names.
  EXPECT_THROW(
      parse_topology(R"({"pods": [{"name": "a", "port_base": 1000},
                                  {"name": "a", "port_base": 2000}]})"),
      InvalidArgument);
  // Trailing garbage after the document.
  EXPECT_THROW(
      parse_topology(R"({"pods": [{"name": "a", "port_base": 1000}]} x)"),
      InvalidArgument);
  // Unknown pod is an error on lookup, not a silent default.
  const FleetTopology topology = parse_topology(kTopologyJson);
  EXPECT_THROW(topology.pod_index("pod9"), InvalidArgument);
}

TEST(FleetTopologyTest, SkipsUnknownKeysForForwardCompatibility) {
  const FleetTopology topology = parse_topology(R"({
    "schema": "trustddl.fleet.v2-draft",
    "region": "local",
    "pods": [{"name": "pod0", "port_base": 29500,
              "weights": [1, 2], "zone": "a"}]
  })");
  ASSERT_EQ(topology.pods.size(), 1u);
  EXPECT_EQ(topology.pods[0].name, "pod0");
  EXPECT_EQ(topology.pods[0].host, "127.0.0.1");  // default
}

// ---------------------------------------------------------------------------
// Rendezvous routing.

TEST(FleetRouterTest, PreferenceOrderIsDeterministicPermutation) {
  const std::vector<std::string> names = {"pod0", "pod1", "pod2"};
  const PodRouter a(names);
  const PodRouter b(names);
  for (std::uint64_t key = 5; key < 21; ++key) {
    const auto order = a.preference_order(key);
    EXPECT_EQ(order, b.preference_order(key)) << "key " << key;
    ASSERT_EQ(order.size(), names.size());
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t p = 0; p < names.size(); ++p) {
      EXPECT_EQ(sorted[p], p);  // a permutation of every pod
    }
    EXPECT_EQ(a.home_pod(key), order[0]);
  }
}

TEST(FleetRouterTest, SpreadsKeysAcrossPods) {
  const std::vector<std::string> names = {"pod0", "pod1", "pod2", "pod3"};
  const PodRouter router(names);
  std::vector<std::size_t> load(names.size(), 0);
  constexpr std::uint64_t kKeys = 256;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ++load[router.home_pod(key)];
  }
  for (std::size_t p = 0; p < names.size(); ++p) {
    // Perfectly even would be 64 each; demand each pod gets at least
    // a quarter of its fair share (hash-quality smoke, not exactness).
    EXPECT_GE(load[p], kKeys / 16) << "pod " << p << " starved";
  }
}

TEST(FleetRouterTest, RemovingAPodOnlyRemapsItsOwnClients) {
  const std::vector<std::string> all = {"pod0", "pod1", "pod2"};
  const std::vector<std::string> survivors = {"pod0", "pod1"};
  const PodRouter full(all);
  const PodRouter reduced(survivors);
  for (std::uint64_t key = 0; key < 128; ++key) {
    const std::size_t before = full.home_pod(key);
    if (before != 2) {
      // Clients not homed on the removed pod keep their assignment —
      // the rendezvous-hash stability property the fleet relies on.
      EXPECT_EQ(reduced.home_pod(key), before) << "key " << key;
    }
  }
}

TEST(FleetRouterTest, FailoverSkipsDownPodUntilCooldown) {
  RouterOptions options;
  options.retry_cooldown = milliseconds(60);
  const PodRouter probe({"pod0", "pod1"});
  PodRouter router({"pod0", "pod1"}, options);
  const std::uint64_t key = 5;
  const auto order = probe.preference_order(key);
  const std::size_t home = order[0];
  const std::size_t backup = order[1];

  EXPECT_EQ(router.route(key), home);
  router.mark_down(home);
  EXPECT_TRUE(router.is_down(home));
  EXPECT_EQ(router.route(key), backup);

  router.mark_up(home);
  EXPECT_EQ(router.route(key), home);

  router.mark_down(home);
  std::this_thread::sleep_for(milliseconds(80));
  // Cooldown expired: the pod is eligible again and one client's
  // next request acts as the probe.
  EXPECT_TRUE(router.eligible(home));
  EXPECT_EQ(router.route(key), home);

  // Both pods down: route still yields a deterministic target.
  router.mark_down(home);
  router.mark_down(backup);
  EXPECT_EQ(router.route(key), home);
}

TEST(FleetRouterTest, AllDownProbeCyclesFromTheLongestDownPod) {
  // A crashed home pod and a live backup that answered one request
  // late are both inside a long cooldown.  The forced probe must reach
  // the backup too, not retry the dead home pod on every request.
  RouterOptions options;
  options.retry_cooldown = milliseconds(60000);
  PodRouter router({"pod0", "pod1", "pod2"}, options);
  const std::vector<std::size_t> order = router.preference_order(7);
  const std::size_t home = order[0];
  EXPECT_EQ(router.longest_down(order), home) << "all up: the home pod";
  const auto mark_down = [&](std::size_t pod) {
    std::this_thread::sleep_for(milliseconds(2));  // distinct timestamps
    router.mark_down(pod);
  };
  mark_down(order[1]);
  EXPECT_EQ(router.longest_down(order), home) << "an up pod first";

  mark_down(home);
  mark_down(order[2]);
  // order[1] went down first, then the home pod, then order[2].
  EXPECT_EQ(router.longest_down(order), order[1]);
  mark_down(order[1]);  // the probe failed: its cooldown restarts
  EXPECT_EQ(router.longest_down(order), home);
  mark_down(home);
  EXPECT_EQ(router.longest_down(order), order[2]);
  router.mark_up(order[2]);  // the probe succeeded
  EXPECT_EQ(router.longest_down(order), order[2]);
}

// ---------------------------------------------------------------------------
// Pod-labeled Prometheus exposition.

TEST(FleetMetricsTest, PrometheusLabelsServeFamiliesWithPod) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset();
  obs::HealthState::global().set_pod("podz");
  obs::count("serve.test.requests", 3);
  obs::count("net.test.frames", 2);
  obs::observe("serve.test.us", 9);
  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::global().snapshot());
  obs::HealthState::global().set_pod("");
  obs::set_metrics_enabled(false);

  // serve.* families carry the pod label; other families stay bare.
  EXPECT_NE(text.find("trustddl_serve_test_requests{pod=\"podz\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("trustddl_net_test_frames 2"), std::string::npos)
      << text;
  // Histogram buckets compose pod-then-le.
  EXPECT_NE(text.find("trustddl_serve_test_us_bucket{pod=\"podz\",le="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("trustddl_serve_test_us_count{pod=\"podz\"} 1"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Full in-process fleet sessions.

core::EngineConfig fast_engine() {
  core::EngineConfig config;
  config.collect_timeout = milliseconds(300);
  return config;
}

data::TrainTestSplit query_split(std::size_t rows) {
  data::SyntheticMnistConfig config;
  config.train_count = 1;
  config.test_count = rows;
  config.seed = 42;
  return data::generate_synthetic_mnist(config);
}

std::vector<std::size_t> reference_labels(const nn::ModelSpec& spec,
                                          const core::EngineConfig& config,
                                          const data::Dataset& sample) {
  core::TrustDdlEngine engine(spec, config);
  return engine.infer(sample, /*batch_size=*/4).labels;
}

TEST(FleetSessionTest, RoutedClientsMatchEngineAcrossPods) {
  constexpr int kClients = 2;
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kClients * kRequests);

  FleetSessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 4;
  config.num_pods = 2;
  config.num_clients = kClients;

  std::vector<std::vector<FleetResult>> results(
      kClients, std::vector<FleetResult>(kRequests));
  const FleetSessionResult session = run_fleet_session(
      config, [&](int index, FleetClient& client) {
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
  PodRouter router({"pod0", "pod1"});
  for (int c = 0; c < kClients; ++c) {
    const std::size_t home = router.home_pod(
        static_cast<std::uint64_t>(serve::kFirstClientId + c));
    for (std::size_t r = 0; r < kRequests; ++r) {
      const auto& entry = results[static_cast<std::size_t>(c)][r];
      ASSERT_EQ(entry.result.status, serve::Status::kOk)
          << "client " << c << " request " << r;
      ASSERT_EQ(entry.result.labels.size(), 1u);
      EXPECT_EQ(entry.result.labels[0],
                expected[static_cast<std::size_t>(c) * kRequests + r]);
      // A healthy fleet serves every request from the home pod.
      EXPECT_EQ(entry.pod, home);
      EXPECT_EQ(entry.failovers, 0);
    }
  }
  EXPECT_EQ(session.failovers, 0u);
  std::size_t served = 0;
  std::size_t admitted = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    served += session.served_by_pod[p];
    admitted += session.scheduler[p].admitted;
  }
  EXPECT_EQ(served, static_cast<std::size_t>(kClients) * kRequests);
  EXPECT_EQ(admitted, static_cast<std::size_t>(kClients) * kRequests);
}

TEST(FleetSessionTest, PodCrashFailsOverWithZeroLostRequests) {
  constexpr int kClients = 2;
  constexpr std::size_t kRequests = 3;
  const auto split = query_split(kClients * kRequests);

  FleetSessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.serve.max_batch_rows = 1;  // every request is its own batch
  config.num_pods = 2;
  config.num_clients = kClients;
  // Kill client 0's home pod after it dispatched one batch: requests
  // already in flight there must time out and resubmit elsewhere.
  PodRouter router({"pod0", "pod1"});
  config.crash_pod = static_cast<int>(
      router.home_pod(static_cast<std::uint64_t>(serve::kFirstClientId)));
  config.crash_pod_after_batches = 1;
  // Fail over quickly — the dead pod never answers, so the response
  // timeout is the failover latency.  The short engine recv timeout
  // also lets the crashed pod's stranded parties exit promptly.
  config.client.response_timeout = milliseconds(800);
  config.engine.recv_timeout = milliseconds(600);
  config.router.retry_cooldown = milliseconds(60000);  // stay away

  std::vector<std::vector<FleetResult>> results(
      kClients, std::vector<FleetResult>(kRequests));
  const FleetSessionResult session = run_fleet_session(
      config, [&](int index, FleetClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const data::Dataset row = data::slice(
              split.test, static_cast<std::size_t>(index) * kRequests + r, 1);
          results[static_cast<std::size_t>(index)][r] =
              client.infer(row.images);
        }
      });

  // Zero lost requests: every request completed somewhere, and
  // whichever pod answered, the labels are the engine's.
  const auto expected = reference_labels(
      config.spec, config.engine,
      data::slice(split.test, 0, kClients * kRequests));
  const auto survivor = static_cast<std::size_t>(1 - config.crash_pod);
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const auto& entry = results[static_cast<std::size_t>(c)][r];
      ASSERT_EQ(entry.result.status, serve::Status::kOk)
          << "client " << c << " request " << r << " lost in the crash";
      ASSERT_EQ(entry.result.labels.size(), 1u);
      EXPECT_EQ(entry.result.labels[0],
                expected[static_cast<std::size_t>(c) * kRequests + r]);
    }
  }
  EXPECT_GE(session.failovers, 1u);
  // The survivor picked up the orphaned load.
  EXPECT_GE(session.served_by_pod[survivor], kRequests);
}

TEST(FleetSessionTest, ProtocolAdversaryLeavesLabelsBitIdentical) {
  // Case 3 at computing party 1 of every pod: each opening carries
  // commitment-consistent but corrupted shares.  Under masked-open
  // truncation the honest parties' openings stay value-exact, so every
  // routed label must equal the honest engine's, and every detection an
  // honest party records must name party 1.
  constexpr int kClients = 2;
  constexpr std::size_t kRequests = 2;
  const auto split = query_split(kClients * kRequests);

  FleetSessionConfig config;
  config.spec = nn::mnist_mlp_spec();
  config.engine = fast_engine();
  config.engine.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  config.serve.max_batch_rows = 4;
  config.num_pods = 2;
  config.num_clients = kClients;
  const auto expected = reference_labels(
      config.spec, config.engine,
      data::slice(split.test, 0, kClients * kRequests));
  config.engine.byzantine_party = 1;
  config.engine.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;

  std::vector<std::vector<FleetResult>> results(
      kClients, std::vector<FleetResult>(kRequests));
  const FleetSessionResult session = run_fleet_session(
      config, [&](int index, FleetClient& client) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const data::Dataset row = data::slice(
              split.test, static_cast<std::size_t>(index) * kRequests + r, 1);
          results[static_cast<std::size_t>(index)][r] =
              client.infer(row.images);
        }
      });

  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const auto& entry = results[static_cast<std::size_t>(c)][r];
      ASSERT_EQ(entry.result.status, serve::Status::kOk)
          << "client " << c << " request " << r;
      ASSERT_EQ(entry.result.labels.size(), 1u);
      EXPECT_EQ(entry.result.labels[0],
                expected[static_cast<std::size_t>(c) * kRequests + r]);
    }
  }
  ASSERT_EQ(session.party_logs.size(), 2u);
  std::size_t honest_events = 0;
  for (const auto& pod_logs : session.party_logs) {
    for (const std::size_t party : {0u, 2u}) {
      for (const auto& event : pod_logs[party].events) {
        ++honest_events;
        EXPECT_EQ(event.suspect, 1)
            << mpc::to_string(event.kind) << " seen by " << party;
      }
    }
  }
  EXPECT_GT(honest_events, 0u);
}

}  // namespace
}  // namespace trustddl::fleet
