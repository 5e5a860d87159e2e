// Dependency-free HTTP/1.0 admin endpoint for live introspection of a
// running party/owner process (DESIGN.md §12).
//
// One listener thread accepts loopback connections and answers four
// GET targets, all served off the lock-free metrics registry, the
// event log and the HealthState heartbeats — a scrape never takes a
// protocol lock, so polling a hot party perturbs nothing:
//
//   /healthz              liveness + per-peer heartbeat freshness +
//                         progress watermarks (HTTP 503 when any peer
//                         has been silent longer than stale_after_ms)
//   /metrics              live trustddl.metrics.v1 JSON export
//   /metrics?format=prometheus
//                         Prometheus text exposition of the registry
//   /metrics?format=pair  {"export": <v1 doc>, "prometheus": "<text>"}
//                         — both rendered from ONE snapshot taken
//                         after counting the scrape itself, so the two
//                         views are equal by construction even though
//                         every request increments admin.* counters
//   /events?n=K           detection event log tail (default 50)
//   /status               role/task identity, uptime, watermarks,
//                         queue-depth gauges and serve/train/triple
//                         ledger counters
//
// The process embedding the server supplies the /metrics document via
// set_metrics_provider — trustddl_party installs its session's
// core::Session::export_json so the scrape byte-matches the exit-time
// export (modulo in-flight deltas on monotonic counters); without a
// provider the server renders the registry + event log with zeroed
// traffic/cost sections.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace trustddl::obs {

struct AdminOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port via port()
  /// A peer with no received frame for longer than this makes
  /// /healthz report stale (HTTP 503).
  int stale_after_ms = 5000;
};

/// Renders the /metrics body from a registry snapshot the server has
/// already taken (so alternate formats of the same scrape agree).
using MetricsProvider = std::function<std::string(const MetricsSnapshot&)>;

class AdminServer {
 public:
  AdminServer() = default;
  explicit AdminServer(AdminOptions options) : options_(std::move(options)) {}
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  void set_metrics_provider(MetricsProvider provider);

  /// Binds, starts the listener thread and enables health tracking.
  void start();
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void handle_connection(int fd);
  std::string dispatch(const std::string& target, int& status);
  std::string metrics_body(const std::string& query);
  std::string healthz_body(int& status) const;
  std::string events_body(const std::string& query) const;
  std::string status_body() const;

  AdminOptions options_;
  MetricsProvider provider_;
  mutable std::mutex provider_mu_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<std::uint64_t> requests_served_{0};
};

/// Prometheus text exposition of a registry snapshot.  Metric names
/// are `trustddl_` + the registry name with non-alphanumerics mapped
/// to `_`; gauges additionally expose `<name>_peak`, histograms map to
/// `_count`/`_sum` plus cumulative `_bucket{le="4^i"}` series ending
/// in `le="+Inf"`.
std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Minimal blocking HTTP GET for tests, benchmarks and in-process
/// self-scrapes.  status == 0 signals a transport-level failure.
struct HttpResponse {
  int status = 0;
  std::string body;
};
HttpResponse http_get(const std::string& host, int port,
                      const std::string& target, int timeout_ms = 2000);

}  // namespace trustddl::obs
