// Offline/online split on the Table I CNN (DESIGN.md §10): how much
// of the online phase still waits on dealt material.
//
// One inference session runs the same 8-row batch three times.  Each
// computing party plans every batch's material one batch ahead, and
// its TripleStore sends those requests within its window while the
// party computes, so the dealer deals while the layers run.  Links
// carry an emulated one-way delay so each round trip costs what a LAN
// would.
//
// Reported: wall time (bench_util median/P95/CV over kTrials
// sessions), `triple.online_wait.us` summed over the parties (time
// spent handing out entries that were not held yet: blocked on an
// in-flight fill or fetching one nobody planned, receive and decode
// included), store misses, and produced against consumed — a planned
// job leaves nothing behind.
//
// Pass --json=<path> to write the snapshot committed as
// BENCH_offline.json at the repo root.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/adapters.hpp"
#include "bench_util.hpp"
#include "data/synthetic_mnist.hpp"
#include "obs/metrics.hpp"

using namespace trustddl;
using baselines::StepCost;

namespace {

constexpr std::size_t kBatchRows = 8;
constexpr int kRepeats = 3;
constexpr int kTrials = 5;
constexpr std::chrono::milliseconds kLinkLatency{2};

struct RunStats {
  StepCost cost;
  bench::TrialStats wall;  // median/P95/CV over kTrials sessions
  std::vector<std::size_t> labels;
  // From the metrics snapshot of the run.
  std::uint64_t online_wait_us = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
};

RunStats run_once(const data::Dataset& batch) {
  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kMalicious;
  config.seed = 7;
  config.emulate_latency = true;
  config.link_latency = kLinkLatency;

  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  baselines::EngineFramework framework("TrustDDL", nn::mnist_cnn_spec(),
                                       config);
  RunStats stats;
  stats.cost = framework.infer(batch.images, kRepeats, &stats.labels);
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();

  stats.store_misses = snapshot.counter_sum("triple.store.miss");
  stats.produced = snapshot.counter_sum("triple.produced");
  stats.consumed = snapshot.counter_sum("triple.consumed");
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "triple.online_wait.us") {
      stats.online_wait_us = histogram.sum;
    }
  }
  return stats;
}

/// kTrials full sessions; wall median/P95/CV via bench_util, the
/// ancillary counters (labels, messages, ledger) from the last session
/// — labels and the ledger are deterministic across trials.
RunStats run(const data::Dataset& batch) {
  RunStats stats;
  std::vector<double> walls(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    RunStats once = run_once(batch);
    walls[static_cast<std::size_t>(trial)] = once.cost.wall_seconds;
    if (trial > 0 && once.labels != stats.labels) {
      std::fprintf(stderr, "FATAL: labels changed between trials\n");
      std::exit(1);
    }
    stats = std::move(once);
  }
  stats.wall = bench::stats_from_samples(std::move(walls));
  stats.cost.wall_seconds = stats.wall.median_s;
  return stats;
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
  data_config.test_count = kBatchRows;
  data_config.seed = 42;
  const auto split = data::generate_synthetic_mnist(data_config);
  const data::Dataset batch = data::slice(split.test, 0, kBatchRows);

  std::printf("=== Offline/online split: dealing ahead (Table I CNN, %zu "
              "rows x %d batches, malicious, %lldms links) ===\n\n",
              kBatchRows, kRepeats,
              static_cast<long long>(kLinkLatency.count()));
  const RunStats stats = run(batch);
  std::printf("wall (s) median %.3f, p95 %.3f, cv %.3f; %llu messages, "
              "%.1f MB\n",
              stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
              static_cast<unsigned long long>(stats.cost.messages),
              stats.cost.megabytes());
  std::printf("online wait %llu us; misses %llu; produced %llu, "
              "consumed %llu\n",
              static_cast<unsigned long long>(stats.online_wait_us),
              static_cast<unsigned long long>(stats.store_misses),
              static_cast<unsigned long long>(stats.produced),
              static_cast<unsigned long long>(stats.consumed));
  // Every entry was planned, and a planned job leaves nothing behind.
  if (stats.store_misses != 0 || stats.produced != stats.consumed) {
    std::fprintf(stderr,
                 "FATAL: %llu misses, produced %llu != consumed %llu — the "
                 "plan disagrees with the layers' fetches\n",
                 static_cast<unsigned long long>(stats.store_misses),
                 static_cast<unsigned long long>(stats.produced),
                 static_cast<unsigned long long>(stats.consumed));
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        file,
        "{\n  \"workload\": \"cnn_offline_online_infer\",\n"
        "  \"model\": \"mnist_cnn (Table I)\",\n"
        "  \"mode\": \"malicious\",\n  \"batch_rows\": %zu,\n"
        "  \"batches\": %d,\n  \"link_latency_ms\": %lld,\n"
        "  \"trials\": %d,\n"
        "  \"send_ahead\": {\"wall_seconds\": %.6f, "
        "\"wall_p95_seconds\": %.6f, \"cv\": %.4f, \"messages\": %llu, "
        "\"megabytes\": %.3f, \"online_wait_us\": %llu, "
        "\"store_misses\": %llu, "
        "\"triples_produced\": %llu, \"triples_consumed\": %llu}\n}\n",
        kBatchRows, kRepeats, static_cast<long long>(kLinkLatency.count()),
        kTrials, stats.wall.median_s, stats.wall.p95_s, stats.wall.cv,
        static_cast<unsigned long long>(stats.cost.messages),
        stats.cost.megabytes(),
        static_cast<unsigned long long>(stats.online_wait_us),
        static_cast<unsigned long long>(stats.store_misses),
        static_cast<unsigned long long>(stats.produced),
        static_cast<unsigned long long>(stats.consumed));
    std::fclose(file);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
