// In-process fleet session: N complete serving pods (each an
// owner-sequencer plus three parties over its own in-memory Network)
// and K routed FleetClients, all on threads.  The fleet analogue of
// serve::run_serving_session — bench_fleet and the chaos tests drive
// multi-pod routing, failover, and pod-crash recovery without
// sockets, with the same seed derivations as the TCP CLIs.
//
// Every pod builds its model from the same engine seed, so any pod
// answers any request with identical labels — which is exactly the
// property that makes client-side failover label-exact.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fleet/client.hpp"
#include "serve/server.hpp"

namespace trustddl::fleet {

struct FleetSessionConfig {
  nn::ModelSpec spec;
  core::EngineConfig engine;
  serve::ServeConfig serve;
  /// Per-client options template; each client derives its sharing seed
  /// from `client.seed` and its index exactly like the serve harness.
  serve::ClientOptions client;
  RouterOptions router;
  int num_pods = 2;
  int num_clients = 2;
  /// Pod names feed the rendezvous hash; empty = "pod0", "pod1", ...
  std::vector<std::string> pod_names;
  /// Bound on pod attempts per request (0 = FleetClient default).
  int max_pod_attempts = 0;
  /// Chaos: this pod's owner AND all three parties stop (no shutdown
  /// handshake) after the pod dispatched `crash_pod_after_batches`
  /// batches — the in-process stand-in for SIGKILLing a pod.
  int crash_pod = -1;
  std::size_t crash_pod_after_batches = 0;
};

struct FleetSessionResult {
  std::vector<serve::SchedulerStats> scheduler;  // per pod
  std::vector<std::array<std::size_t, core::kComputingParties>>
      party_batches;                             // per pod
  /// Each pod's computing parties' detection logs (a tolerated
  /// Byzantine or crashed party's may stay empty).
  std::vector<std::array<mpc::DetectionLog, core::kComputingParties>>
      party_logs;                                // per pod
  /// Requests answered per pod, summed over clients.
  std::vector<std::size_t> served_by_pod;
  std::size_t failovers = 0;
  double wall_seconds = 0.0;
};

/// `client_body(index, client)` runs on client `index`'s thread; the
/// harness broadcasts the stop notices after it returns.  Throws the
/// first actor failure after joining every thread (pod actors crashed
/// on purpose via `crash_pod` do not count as failures).
FleetSessionResult run_fleet_session(
    const FleetSessionConfig& config,
    const std::function<void(int, FleetClient&)>& client_body);

}  // namespace trustddl::fleet
