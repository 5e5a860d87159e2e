// In-process serving session: every serving actor (three party
// servers, the model owner with its scheduler, K clients) on threads
// over one in-memory Network — a core::Session role table, like
// TrustDdlEngine's.  Tests and bench_serving drive the full
// request/batch/reconstruct pipeline without sockets, with the same
// seed derivations as the multi-process CLI so both deployments are
// interchangeable.
#pragma once

#include <array>
#include <functional>

#include "core/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace trustddl::serve {

struct SessionConfig {
  nn::ModelSpec spec;
  core::EngineConfig engine;
  ServeConfig serve;
  /// Per-client options template; each client derives its own sharing
  /// seed from `client.seed` and its index.
  ClientOptions client;
  int num_clients = 1;
  /// Fault injection: party returning corrupted result shares (-1 =
  /// none) ...
  int corrupt_party = -1;
  /// ... and party crashing after `crash_after_batches` batches.
  int crash_party = -1;
  std::size_t crash_after_batches = 0;
};

struct SessionResult {
  SchedulerStats scheduler;
  std::array<std::size_t, core::kComputingParties> party_batches{};
  double wall_seconds = 0.0;
  net::TrafficSnapshot traffic;
  /// The session's cost report (core::collect_cost), detection
  /// counters included.
  core::CostReport cost;
};

/// `client_body(index, client)` runs on client `index`'s thread; the
/// harness sends the stop notice after it returns.  A computing party
/// at config.engine.byzantine_party runs a protocol-level adversary
/// (config.engine.byzantine) and its failure is tolerated.  Throws the
/// first other actor failure after joining every thread.
SessionResult run_serving_session(
    const SessionConfig& config,
    const std::function<void(int, InferenceClient&)>& client_body);

}  // namespace trustddl::serve
