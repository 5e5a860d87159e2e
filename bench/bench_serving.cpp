// Serving-layer throughput: dynamic batching vs one-request batches on
// the Table I CNN.
//
// Four concurrent clients issue 24 single-row inference requests at an
// in-process serving session (three party servers + the model owner's
// batch sequencer).  The "batch1" configuration dispatches every
// request as its own batch (max_batch_rows = 1); "batched" lets the
// owner coalesce up to 8 rows per manifest under a short latency
// window.  The MPC forward pays per-round round trips that are almost
// independent of row count (deferred openings), so coalescing amortizes
// protocol rounds across requests — requests/second is the headline.
//
// Links carry an emulated one-way delay (delivery-time stamping, no
// thread blocks) so round amortization shows up as wall-clock the way
// a real LAN would, not just as a message count.
//
// Both configurations must return identical predictions for every
// request — batching is a scheduling decision, never a results change.
//
// Each configuration runs `kTrials` full sessions; the reported wall
// time is the bench_util median/P95/CV over the per-session samples
// (stats_from_samples — sessions are seconds long, so no kernel-scale
// inner-loop calibration).
//
// Pass --json=<path> to write the snapshot committed as
// BENCH_serving.json at the repo root.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "data/synthetic_mnist.hpp"
#include "serve/harness.hpp"

using namespace trustddl;

namespace {

constexpr int kClients = 4;
constexpr std::size_t kRequestsPerClient = 6;
constexpr std::size_t kRequests = kClients * kRequestsPerClient;
constexpr std::chrono::milliseconds kLinkLatency{2};
constexpr int kTrials = 3;

struct RunStats {
  bench::TrialStats wall;  // median/P95/CV over kTrials sessions
  double requests_per_second = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t total_messages = 0;
  double megabytes_per_request = 0.0;  // all links, dealing included
  std::vector<std::size_t> labels;  // [client * kRequestsPerClient + r]
};

RunStats run_once(std::size_t max_batch_rows,
                  std::chrono::milliseconds batch_window,
                  const data::TrainTestSplit& split, double* wall_out) {
  serve::SessionConfig config;
  config.spec = nn::mnist_cnn_spec();
  config.engine.mode = mpc::SecurityMode::kMalicious;
  config.engine.seed = 7;
  config.engine.emulate_latency = true;
  config.engine.link_latency = kLinkLatency;
  config.serve.max_batch_rows = max_batch_rows;
  config.serve.batch_window = batch_window;
  config.num_clients = kClients;
  config.client.response_timeout = std::chrono::milliseconds(120000);
  config.client.deadline = std::chrono::milliseconds(120000);

  std::vector<serve::InferenceResult> results(kRequests);
  const serve::SessionResult session = serve::run_serving_session(
      config, [&](int index, serve::InferenceClient& client) {
        // Keep the owner's queue full: submit the client's whole
        // workload before awaiting anything.
        std::vector<std::uint64_t> seqs(kRequestsPerClient);
        const std::size_t base =
            static_cast<std::size_t>(index) * kRequestsPerClient;
        for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
          seqs[r] =
              client.submit(data::slice(split.test, base + r, 1).images);
        }
        for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
          results[base + r] = client.await(seqs[r], 1);
        }
      });

  RunStats stats;
  *wall_out = session.wall_seconds;
  stats.batches = session.scheduler.batches;
  stats.total_messages = session.traffic.total_messages;
  stats.megabytes_per_request =
      static_cast<double>(session.traffic.total_bytes) / (1 << 20) /
      static_cast<double>(kRequests);
  for (const auto& result : results) {
    if (result.status != serve::Status::kOk || result.labels.size() != 1) {
      std::fprintf(stderr, "FATAL: a request did not complete\n");
      std::exit(1);
    }
    stats.labels.push_back(result.labels[0]);
  }
  return stats;
}

RunStats run(std::size_t max_batch_rows,
             std::chrono::milliseconds batch_window,
             const data::TrainTestSplit& split) {
  RunStats stats;
  std::vector<double> walls(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    RunStats once =
        run_once(max_batch_rows, batch_window, split, &walls[trial]);
    if (trial > 0 && once.labels != stats.labels) {
      std::fprintf(stderr, "FATAL: labels changed between trials\n");
      std::exit(1);
    }
    stats = std::move(once);
  }
  stats.wall = bench::stats_from_samples(std::move(walls));
  stats.requests_per_second =
      static_cast<double>(kRequests) / stats.wall.median_s;
  return stats;
}

void print_row(const char* name, const RunStats& stats) {
  std::printf("%-12s %10.3f %10.3f %8.3f %10.2f %10llu %10llu %10.2f\n",
              name, stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
              stats.requests_per_second,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.total_messages),
              stats.megabytes_per_request);
}

void write_json_entry(std::FILE* file, const char* key, const RunStats& stats,
                      const char* suffix) {
  std::fprintf(file,
               "  \"%s\": {\"wall_seconds\": %.6f, \"wall_p95_seconds\": "
               "%.6f, \"cv\": %.4f, \"requests_per_second\": %.3f, "
               "\"batches\": %llu, \"total_messages\": %llu, "
               "\"mb_per_request\": %.3f}%s\n",
               key, stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
               stats.requests_per_second,
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.total_messages),
               stats.megabytes_per_request, suffix);
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
  const auto split = data::generate_synthetic_mnist(data_config);

  std::printf("=== Serving: dynamic batching vs batch-1 (Table I CNN, "
              "%zu requests from %d clients, malicious, %lldms links) "
              "===\n\n",
              kRequests, kClients,
              static_cast<long long>(kLinkLatency.count()));
  std::printf("%-12s %10s %10s %8s %10s %10s %10s %10s\n", "config",
              "wall (s)", "p95 (s)", "cv", "req/s", "batches", "messages",
              "MB/req");

  const RunStats batch1 =
      run(/*max_batch_rows=*/1, std::chrono::milliseconds(0), split);
  const RunStats batched =
      run(/*max_batch_rows=*/8, std::chrono::milliseconds(20), split);

  print_row("batch1", batch1);
  print_row("batched", batched);

  // Batching is a scheduling decision: predictions must not change.
  if (batch1.labels != batched.labels) {
    std::fprintf(stderr, "FATAL: configurations disagree on predictions\n");
    return 1;
  }

  const double speedup =
      batched.requests_per_second / batch1.requests_per_second;
  std::printf("\nThroughput gain from dynamic batching: %.2fx "
              "(%llu -> %llu batches for %zu requests)\n",
              speedup, static_cast<unsigned long long>(batch1.batches),
              static_cast<unsigned long long>(batched.batches), kRequests);

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(file,
                 "{\n  \"workload\": \"cnn_secure_serving_%zu_requests\",\n"
                 "  \"model\": \"mnist_cnn (Table I)\",\n"
                 "  \"mode\": \"malicious\",\n  \"clients\": %d,\n"
                 "  \"link_latency_ms\": %lld,\n  \"trials\": %d,\n",
                 kRequests, kClients,
                 static_cast<long long>(kLinkLatency.count()), kTrials);
    write_json_entry(file, "batch1", batch1, ",");
    write_json_entry(file, "batched", batched, ",");
    std::fprintf(file, "  \"batched_speedup\": %.4f\n}\n", speedup);
    std::fclose(file);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
