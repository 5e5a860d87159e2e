// Party-side inference server: executes the model owner's batch
// manifests over one SecureModel.
//
// For each manifest the party collects the listed clients' input share
// triples, row-concatenates them into one coalesced batch, runs a
// single SecureModel::forward (one set of protocol rounds for the
// whole batch — the deferred-opening scheduler makes rounds nearly
// independent of row count), then slices the probability shares back
// per request and returns each client its rows.
//
// When a manifest arrives the party plans the batch's forward pass
// (SecureModel::step_keys) on its TripleStore, so the dealer deals it
// while the inputs arrive and the layers run (DESIGN.md §10).
//
// Degradation: a missing/garbled client input is substituted with a
// zero share after `ServeConfig::input_wait` — the party stays in
// lockstep and the client reconstructs its answer from the other two
// parties' result shares (2-of-3).  The fault knobs in ServerOptions
// exist for tests and CI: `corrupt_results` turns the party Byzantine
// at the serving edge, `max_batches` crashes it mid-service.
#pragma once

#include <cstdint>

#include "core/actors.hpp"
#include "core/secure_model.hpp"
#include "serve/batch_queue.hpp"
#include "serve/scheduler.hpp"

namespace trustddl::serve {

struct ServerOptions {
  ServeConfig serve;
  /// Byzantine fault injection: offset every result-share component so
  /// the share still parses but reconstructs wrong at this party —
  /// clients must out-vote it via robust reconstruction.
  bool corrupt_results = false;
  /// Crash fault injection: stop serving (without the polite owner
  /// stop) after this many executed batches; 0 = serve until shutdown.
  std::size_t max_batches = 0;
  /// How long a party waits for the model owner's dealer responses.
  /// The generous default covers multi-process slack; chaos harnesses
  /// shorten it so parties stranded by a killed owner exit promptly.
  std::chrono::milliseconds owner_link_timeout{60000};
};

class InferenceServer {
 public:
  /// `spec` must outlive the server.
  InferenceServer(int party, net::Endpoint endpoint, ServerOptions options,
                  const nn::ModelSpec& spec);

  /// Serve manifests until the owner's shutdown manifest (returns
  /// true) or the max_batches crash point (returns false).  Each
  /// dispatched batch is planned on ctx.triples at the model's weight
  /// version, the first batch drawing its masks.
  bool run(core::SecureModel& model, core::SecureExecContext& ctx);

  std::size_t batches_executed() const { return batches_; }

 private:
  int party_;
  net::Endpoint endpoint_;
  ServerOptions options_;
  std::size_t batches_ = 0;
  const nn::ModelSpec& spec_;
};

/// Full serving actor bodies, mirroring core/actors.hpp: identical
/// EngineConfig-derived seeds/contexts in-process and multi-process.

/// Computing party: receive parameter shares, then serve batches.
/// Returns the party's detection log.  `batches_out`, if non-null,
/// receives the number of batches executed.  `adversary` may be
/// nullptr and is attached only when `party` equals
/// config.byzantine_party (core::make_party_context).
mpc::DetectionLog serve_computing_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const ServerOptions& options, std::size_t* batches_out = nullptr,
    mpc::AdversaryHooks* adversary = nullptr);

/// Model owner: share parameters, then run the owner service (unary/
/// collective requests) and the batch scheduler side by side until the
/// parties stop.  `stats_out`, if non-null, receives the scheduler's
/// request ledger.
void serve_model_owner_body(const nn::ModelSpec& spec,
                            const core::EngineConfig& config,
                            nn::Sequential& model, net::Endpoint endpoint,
                            const ServeConfig& serve_config, int num_clients,
                            SchedulerStats* stats_out = nullptr);

}  // namespace trustddl::serve
