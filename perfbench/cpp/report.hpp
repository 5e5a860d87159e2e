// Result of one benchmark run and the helpers every workload shares:
// argument block, order statistics, process resource usage, the
// per-layer accounting over a recorded run, and the final JSON line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mpc/context.hpp"
#include "recorder.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of this process's timed phase (run.py splits a run's
  /// --seconds over several processes).
  double seconds = 10.0;
  /// This process's slice of a run's serve-lan arrival schedule: run.py
  /// starts `parts` processes per run, numbered by `part`.
  int part = 0;
  int parts = 1;
  bool trace = false;
  /// Where the traced run writes its spans and events.
  std::string trace_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One process's measurements.  run.py pools the raw timed-window
/// figures of several processes into the end-to-end metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  ///< of the session, before the output checks
  double ops = 0.0;          ///< requests or samples in the timed window
  double window_s = 0.0;
  double cpu_s = 0.0;        ///< process CPU (user + sys) in the window
  std::uint64_t bytes = 0;   ///< sent over all links in the window
  /// Per-operation latencies: arrival-phase requests (from their due
  /// time), rounds or steps.
  std::vector<double> latency_ms;
  /// serve-lan: the burst's requests per second.
  double burst_rps = 0.0;
  /// Digest of the revealed weights (training workloads).
  std::string digest;
  std::map<std::string, Metric> per_layer;
  /// Human-readable check failures (printed to stderr).
  std::vector<std::string> problems;

  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 if empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Process CPU time (user + system) and peak resident set.
double process_cpu_seconds();
double peak_rss_mb();

inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The party threads of a session: body spans plus each thread's CPU
/// clock at the timed-window edges.  The window start is sampled from
/// another thread while every party runs; the end is sampled the same
/// way (sample_end) or, for windows that close when the parties exit,
/// by each party thread as it leaves.
struct PartyClocks {
  std::array<clockid_t, 3> clock{};
  std::array<std::int64_t, 3> cpu_start{};
  std::array<std::int64_t, 3> cpu_end{};
  std::array<std::int64_t, 3> body_t0{};
  std::array<std::int64_t, 3> body_t1{};
  std::atomic<bool> end_sampled{false};

  /// First and last thing on party `party`'s thread.
  void enter(int party);
  void leave(int party);
  void sample_start();
  void sample_end();
};

/// Run each body on its own thread and join them all, then rethrow the
/// first failure — except one from body `tolerated` (the Byzantine
/// party, which TrustDdlEngine::train also tolerates).
void run_actors(const std::vector<std::function<void()>>& bodies,
                std::size_t tolerated = static_cast<std::size_t>(-1));

/// Round or step boundaries of a session, from the recorder's boundary
/// hook: the last computing party's receipt time of every tag of class
/// `cls` ending in `suffix` (round manifests, engine batches).  At the
/// last party's receipt of `window_tag` — the end of the warm-up — it
/// samples the timed window's start edge.
class Boundaries {
 public:
  Boundaries(RecordingTransport& transport, PartyClocks& clocks, TagClass cls,
             std::string suffix, std::string window_tag);

  /// Last party's receipt of `tag`; throws unless every party got it.
  std::int64_t at(const std::string& tag) const;
  double cpu_t0() const { return cpu_t0_; }
  const trustddl::net::TrafficSnapshot& traffic_t0() const {
    return traffic_t0_;
  }

 private:
  void on_receipt(const NetEvent& event);

  RecordingTransport& transport_;
  PartyClocks& clocks_;
  TagClass cls_;
  std::string suffix_;
  std::string window_tag_;
  mutable std::mutex mu_;
  std::map<std::string, std::pair<int, std::int64_t>> receipts_;  // n, last
  double cpu_t0_ = 0.0;
  trustddl::net::TrafficSnapshot traffic_t0_;
};

/// Everything the per-layer accounting needs about one recorded run.
struct LayerInputs {
  const RecordingTransport* recorder = nullptr;
  const trustddl::net::TrafficSnapshot* traffic = nullptr;
  const PartyClocks* parties = nullptr;
  /// Timed window [t0, t1) and the operations completed in it.
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  double ops = 1.0;
  /// Whole-session operation count (warm-up included), for the
  /// session-level protocol counters.
  double session_ops = 1.0;
  std::array<trustddl::mpc::DetectionLog, 3> logs;
  int byzantine_party = -1;
  std::int64_t session_t0 = 0;     ///< transport construction began
  std::int64_t rendezvous_t1 = 0;  ///< transport ready
  std::int64_t setup_t1 = 0;       ///< warm-up operation finished
};

/// Fill the net.*, mpc.* and core.* per-layer metrics and run the
/// accounting checks (per-class bytes and messages against traffic(),
/// party wall = busy + waits).
void account_layers(const LayerInputs& in, Result& result);

/// Zero every per-layer metric the workload does not produce, so each
/// traced run prints the full set.
void fill_missing_layers(Result& result);

/// Write spans and transport events as JSON lines under `dir`.
void write_trace(const std::string& dir, const std::string& workload,
                 const std::vector<Span>& spans,
                 const RecordingTransport& recorder);

/// Hex 64-bit FNV-1a digest of a run's revealed weight words.
std::string digest_words(const std::vector<std::uint64_t>& words);

/// Print the result: problems to stderr, the JSON object to stdout.
void print_result(const Result& result);

}  // namespace perfbench
