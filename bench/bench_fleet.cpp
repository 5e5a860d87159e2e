// Fleet scaling: one pod vs two pods on the same 24-request serving
// workload (tiny CNN, honest-but-curious mode, 2 ms emulated links).
//
// Eight routed FleetClients issue 3 single-row requests each, every
// request dispatched as its own batch (max_batch_rows = 1 — the
// coalescing win is bench_serving's story; here each batch must pay
// its own protocol rounds).  With one pod all 24 batches serialize
// through a single owner-sequencer and its three parties; with two
// pods the rendezvous hash splits the clients evenly (the "east" /
// "west" names hash keys 5..12 exactly 4/4) and the pods' per-batch
// MPC opening-round waits overlap, so throughput scales close to the
// pod count even on one machine.  The tiny CNN and honest-but-curious
// mode keep per-batch compute small next to the protocol's round
// trips — the waits must be latency-bound, not CPU-bound, for pods
// on one host to overlap (a real fleet gives each pod its own CPUs).
//
// Sharding is a routing decision, never a results change: both fleet
// sizes must reproduce the in-memory engine's labels bit-exactly.
//
// Each configuration runs `kTrials` full sessions and reports the
// bench_util median/P95/CV over the per-session wall times (a full
// session is seconds, so the samples feed stats_from_samples directly
// rather than the calibrated kernel-scale inner loop).
//
// Pass --json=<path> to write the snapshot committed as
// BENCH_fleet.json at the repo root.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "fleet/harness.hpp"

using namespace trustddl;

namespace {

constexpr int kClients = 8;
constexpr std::size_t kRequestsPerClient = 3;
constexpr std::size_t kRequests = kClients * kRequestsPerClient;
constexpr std::chrono::milliseconds kLinkLatency{2};
constexpr int kTrials = 5;

struct RunStats {
  bench::TrialStats wall;  // median/P95/CV over kTrials sessions
  double requests_per_second = 0.0;
  std::vector<std::size_t> served_by_pod;
  std::size_t failovers = 0;
  std::vector<std::size_t> labels;  // [client * kRequestsPerClient + r]
};

RunStats run(int num_pods, const data::TrainTestSplit& split) {
  fleet::FleetSessionConfig config;
  config.spec = nn::tiny_cnn_spec();
  config.engine.mode = mpc::SecurityMode::kHonestButCurious;
  config.engine.seed = 7;
  config.engine.emulate_latency = true;
  config.engine.link_latency = kLinkLatency;
  config.serve.max_batch_rows = 1;
  config.client.response_timeout = std::chrono::milliseconds(120000);
  config.client.deadline = std::chrono::milliseconds(120000);
  config.num_pods = num_pods;
  config.num_clients = kClients;
  // Even 4/4 rendezvous split of client keys 5..12 (see header).
  config.pod_names.assign({"east", "west"});
  config.pod_names.resize(static_cast<std::size_t>(num_pods));

  RunStats stats;
  std::vector<double> walls;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<fleet::FleetResult> results(kRequests);
    const fleet::FleetSessionResult session = fleet::run_fleet_session(
        config, [&](int index, fleet::FleetClient& client) {
          const std::size_t base =
              static_cast<std::size_t>(index) * kRequestsPerClient;
          for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
            results[base + r] =
                client.infer(data::slice(split.test, base + r, 1).images);
          }
        });
    walls.push_back(session.wall_seconds);
    stats.served_by_pod = session.served_by_pod;
    stats.failovers = session.failovers;
    stats.labels.clear();
    for (const auto& entry : results) {
      if (entry.result.status != serve::Status::kOk ||
          entry.result.labels.size() != 1) {
        std::fprintf(stderr, "FATAL: a request did not complete\n");
        std::exit(1);
      }
      stats.labels.push_back(entry.result.labels[0]);
    }
  }
  stats.wall = bench::stats_from_samples(std::move(walls));
  stats.requests_per_second =
      static_cast<double>(kRequests) / stats.wall.median_s;
  return stats;
}

std::string spread_string(const std::vector<std::size_t>& served) {
  std::string out;
  for (std::size_t p = 0; p < served.size(); ++p) {
    if (p != 0) {
      out += "/";
    }
    out += std::to_string(served[p]);
  }
  return out;
}

void print_row(const char* name, const RunStats& stats) {
  std::printf("%-8s %10.3f %10.3f %8.3f %10.2f %12s %10zu\n", name,
              stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
              stats.requests_per_second,
              spread_string(stats.served_by_pod).c_str(), stats.failovers);
}

void write_json_entry(std::FILE* file, const char* key, const RunStats& stats,
                      const char* suffix) {
  std::fprintf(file,
               "  \"%s\": {\"wall_seconds\": %.6f, \"wall_p95_seconds\": "
               "%.6f, \"cv\": %.4f, \"requests_per_second\": %.3f, "
               "\"served_by_pod\": \"%s\", \"failovers\": %zu}%s\n",
               key, stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
               stats.requests_per_second,
               spread_string(stats.served_by_pod).c_str(), stats.failovers,
               suffix);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  data::SyntheticMnistConfig data_config;
  data_config.train_count = 1;
  data_config.test_count = kRequests;
  data_config.seed = 42;
  data_config.height = 12;  // tiny_cnn input geometry
  data_config.width = 12;
  data_config.classes = 4;
  const auto split = data::generate_synthetic_mnist(data_config);

  std::printf("=== Fleet scaling: 1 pod vs 2 pods (tiny CNN, %zu requests "
              "from %d clients, semi-honest, %lldms links, median of %d) "
              "===\n\n",
              kRequests, kClients,
              static_cast<long long>(kLinkLatency.count()), kTrials);
  std::printf("%-8s %10s %10s %8s %10s %12s %10s\n", "pods", "wall (s)",
              "p95 (s)", "cv", "req/s", "spread", "failovers");

  const RunStats one = run(1, split);
  const RunStats two = run(2, split);

  print_row("1", one);
  print_row("2", two);

  // Sharding is a routing decision: predictions must not change, and
  // both fleets must match the plain in-memory engine.
  core::EngineConfig reference_config;
  reference_config.mode = mpc::SecurityMode::kHonestButCurious;
  reference_config.seed = 7;
  core::TrustDdlEngine engine(nn::tiny_cnn_spec(), reference_config);
  const auto reference = engine.infer(split.test, /*batch_size=*/4).labels;
  if (one.labels != reference || two.labels != reference) {
    std::fprintf(stderr,
                 "FATAL: fleet predictions diverge from the engine\n");
    return 1;
  }

  const double speedup = one.wall.median_s / two.wall.median_s;
  std::printf("\nScaling from sharding across 2 pods: %.2fx "
              "(client spread %s)\n",
              speedup, spread_string(two.served_by_pod).c_str());

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(file,
                 "{\n  \"workload\": \"fleet_sharded_serving_%zu_requests\",\n"
                 "  \"model\": \"tiny_cnn\",\n"
                 "  \"mode\": \"honest_but_curious\",\n  \"clients\": %d,\n"
                 "  \"link_latency_ms\": %lld,\n  \"trials\": %d,\n",
                 kRequests, kClients,
                 static_cast<long long>(kLinkLatency.count()), kTrials);
    write_json_entry(file, "pods1", one, ",");
    write_json_entry(file, "pods2", two, ",");
    std::fprintf(file, "  \"sharding_speedup\": %.4f\n}\n", speedup);
    std::fclose(file);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
