// One session runner for every TrustDDL deployment (DESIGN.md §4
// "Session runner").  A Session pins the kernel config, arms the
// telemetry sinks, brings up the transport, runs a role table (actor
// id -> body) on threads, folds traffic and the computing parties'
// detection logs into one CostReport, and writes the
// trustddl.metrics.v1 export.  The engine, the serve/train/fleet
// harnesses and the CLIs only supply roles and handle their results.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"

namespace trustddl::core {

/// One actor of a role table.
struct Role {
  int id = -1;
  std::function<void()> body;
  /// A tolerated role's failure is logged, not rethrown — the
  /// configured Byzantine party, or the fleet's crash pod.
  bool critical = true;
};

/// Runs every role on its own thread (net::run_parties), joins them
/// all, then rethrows the first critical failure in table order and
/// logs the tolerated ones.
void run_roles(const std::vector<Role>& roles);

/// Detection logs of the computing parties a session hosts, by party
/// id; parties hosted elsewhere stay empty.
using PartyLogs =
    std::array<std::optional<mpc::DetectionLog>, kComputingParties>;

/// The one cost rule.  Traffic splits into proxy bytes (party<->party
/// links) and owner bytes (everything touching an owner or client);
/// detection counters sum over every hosted party's log; opening
/// rounds and values come from the lowest-id hosted honest party (the
/// counters are identical at every honest party — the protocol is
/// SPMD — while a tolerated Byzantine party's log may be a default).
CostReport collect_cost(const net::TrafficSnapshot& traffic,
                        double wall_seconds, const PartyLogs& logs,
                        int byzantine_party);

/// Arms the telemetry sinks of one run.  `metrics_out` enables the
/// registry (never disables it — TRUSTDDL_METRICS may have turned it
/// on process-wide) and zeroes it so the export covers exactly this
/// run; `trace_out` opens the tracer; either clears the detection
/// event log.  Sessions arm themselves; processes that host no
/// session (a routed fleet client) call this directly.
void arm_telemetry(const std::string& metrics_out,
                   const std::string& trace_out);

/// The plaintext model every deployment starts from: built from the
/// engine seed, so all of them evaluate the same weights.
nn::Sequential reference_model(const nn::ModelSpec& spec,
                               const EngineConfig& config);

/// Per-hosted-id TCP set-up of a multi-process deployment.
struct TcpMesh {
  std::vector<int> hosted;
  /// host:port per actor id; slots nobody dials may be empty.
  std::vector<std::string> addresses;
  /// Bind host override for the hosted ids (--listen).
  std::string listen_host;
  net::NetworkConfig net;
  /// The ids a hosted id links (subset mesh); unset = full mesh.
  std::function<std::vector<net::PartyId>(int)> peers;
  /// After the rendezvous, keep admitting actors with id >= this one
  /// (TcpTransport::accept_dynamic_peers); -1 = off.
  int dynamic_from = -1;
};

/// Where a hosted id binds: its mesh address, with the host replaced
/// by `listen_host` when one is given.
std::string bind_address(const std::string& address,
                         const std::string& listen_host);

class Session {
 public:
  /// In-memory Network over `num_actors` ids.
  Session(const EngineConfig& config, int num_actors);
  /// A transport the caller owns and keeps alive.
  Session(const EngineConfig& config, net::Transport& transport);
  /// One TcpTransport per hosted id; returns once every mesh is up.
  Session(const EngineConfig& config, const TcpMesh& mesh);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  net::Endpoint endpoint(int id);

  /// The protocol-level adversary for config.byzantine_party (nullptr
  /// when all parties are honest); make_party_context attaches it only
  /// at that party.
  mpc::AdversaryHooks* adversary() { return adversary_.get(); }

  /// A computing party's role: runs `body` and keeps the returned
  /// detection log for the cost report; tolerated when `party` is the
  /// configured Byzantine party.
  Role party_role(int party, std::function<mpc::DetectionLog()> body);

  /// Runs the role table (run_roles) and times it.
  void run(const std::vector<Role>& roles);

  /// Wall time of run(); live while it is in progress.
  double wall_seconds() const;
  /// The transport's counters, or the hosted TcpTransports' matrices
  /// merged cell-wise (totals count each message once, at its sender).
  net::TrafficSnapshot traffic() const;
  CostReport cost() const;
  /// The export document over `metrics`; safe while the roles run (an
  /// admin /metrics scrape renders what the exit export writes).
  std::string export_json(const obs::MetricsSnapshot& metrics) const;

  /// Writes the export (config.metrics_out) and closes the tracer
  /// (config.trace_out); returns the cost report.
  CostReport finish();

  /// TCP sessions: lets in-flight frames from peers drain (a peer's
  /// last stop or ack may still be in transit), then closes the
  /// sockets.
  void close();

  const std::vector<std::unique_ptr<net::TcpTransport>>& tcp_transports()
      const {
    return tcp_;
  }

 private:
  explicit Session(const EngineConfig& config);

  EngineConfig config_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp_;
  net::Transport* transport_ = nullptr;  // single-transport sources
  std::unique_ptr<mpc::StandardAdversary> adversary_;
  mutable std::mutex logs_mu_;  // live export vs party_role assignments
  PartyLogs logs_;
  Stopwatch watch_;
  double wall_ = -1.0;
  bool tracing_ = false;
};

}  // namespace trustddl::core
