// TrustDDL engine: orchestrates the five actors (three computing
// parties, data owner, model owner) over the metered in-process
// network for secure training and secure inference.
//
// The engine owns a plaintext "reference model" in the model-owner
// role.  train() shares its parameters to the proxy layer, drives the
// secure SGD loop, and writes the robustly reconstructed weights back;
// infer() runs private inference and reconstructs predictions at the
// data owner.  Every call returns a CostReport with wall time, bytes
// and messages (split party<->party vs owner<->party) plus the
// Byzantine-detection counters — the raw material for Table II.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/owner_service.hpp"
#include "core/secure_model.hpp"
#include "data/synthetic_mnist.hpp"
#include "mpc/adversary.hpp"
#include "nn/model_zoo.hpp"
#include "numeric/kernels.hpp"

namespace trustddl::core {

struct EngineConfig {
  mpc::SecurityMode mode = mpc::SecurityMode::kMalicious;
  int frac_bits = fx::kDefaultFracBits;
  /// Fixed-point rescale strategy.  Unset resolves to kLocal, matching
  /// the paper's implementation (its "approximate equality" tolerance
  /// exists precisely because share-local truncation lets different
  /// share sets drift by +-1 ulp).  IMPORTANT: under an ACTIVE
  /// adversary that attacks selectively (Case 2 style), local
  /// truncation lets honest parties adopt openings differing by 1 ulp,
  /// which cascades into divergent states; set kMaskedOpen for
  /// adversarial deployments — it keeps all six reconstructions
  /// bit-identical at one extra opening per product (quantified in
  /// bench_ablation_batch).  See DESIGN.md §4.
  std::optional<TruncationMode> trunc_mode;

  TruncationMode resolved_trunc_mode() const {
    return trunc_mode.value_or(TruncationMode::kLocal);
  }
  /// Decision-rule tolerance, propagated into every party context and
  /// the owner service.
  std::uint64_t dist_tolerance = mpc::kDefaultDistTolerance;
  /// Deferred-opening round scheduling (mpc::OpenBatch): independent
  /// openings within a layer/step share commitment rounds.  Off
  /// reproduces the eager one-round-per-protocol-call structure with
  /// bit-identical results; only the round-trip count changes.
  bool batch_openings = true;
  /// Open each masked value once (DESIGN.md §"Reusable masks"): the
  /// dealer binds one mask B to each (dense or conv layer, weight
  /// version) and W − B is opened once per version — once per model
  /// load when serving, once per SGD step when training — instead of
  /// once per product; the conv opens x − a_x on its raw input, not on
  /// its im2col expansion; comparisons draw dealt (t, b, t ⊙ b) triples
  /// and never open t − a; the first layer skips its unread input
  /// gradient; and each layer fetches its material in one dealer round
  /// trip.  Off keeps the paper's per-product openings of Algorithms 4
  /// and 5 (Table II's paper-faithful rows, equivalence tests).  Under
  /// masked-open truncation results are bit-identical either way.
  bool reuse_masks = true;
  /// Sleep link_latency per message to emulate a LAN, making round
  /// trips dominate wall time as they would in deployment.
  bool emulate_latency = false;
  std::chrono::microseconds link_latency{50};
  std::chrono::milliseconds recv_timeout{2000};
  std::chrono::milliseconds collect_timeout{500};
  std::uint64_t seed = 1;
  /// Index of a computing party to run with protocol-level Byzantine
  /// behaviour (-1 = all honest).
  int byzantine_party = -1;
  mpc::ByzantineConfig byzantine{};
  /// Compute-kernel settings (thread count, matmul block sizes) for
  /// the whole run: copied into every party context and installed as
  /// the process-global config at the start of train()/infer().
  /// Defaults to the environment (TRUSTDDL_THREADS etc.); threads = 1
  /// reproduces the serial kernels exactly, and ring results are
  /// bit-identical at any thread count (see numeric/kernels.hpp).
  ::trustddl::kernels::KernelConfig kernels =
      ::trustddl::kernels::global_config();
  /// Write the observability export (schema trustddl.metrics.v1; see
  /// core/metrics_export.hpp) here after each train()/infer() call.
  /// Setting this enables metrics collection for the run and resets
  /// the registry + detection event log at the start of the call.
  std::string metrics_out;
  /// Write a protocol-phase trace (one JSON object per line) here;
  /// opened at the start of each train()/infer() call, closed at the
  /// end.  Tracing also captures detection events.
  std::string trace_out;
  /// Offline/online split (DESIGN.md §10): every computing party draws
  /// its material through one TripleStore and plans each unit of work
  /// one unit ahead, so the dealer deals while the party computes.
  /// Persist/restore store contents under this directory (empty = no
  /// persistence).  Files are per party and per mode (train/infer) and
  /// carry a provenance tag derived from the dealing seed.
  std::string triple_store_dir;
};

class Session;

struct CostReport {
  double wall_seconds = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t proxy_bytes = 0;  ///< among computing parties
  std::uint64_t owner_bytes = 0;  ///< to/from data & model owners
  std::size_t commitment_violations = 0;
  std::size_t distance_anomalies = 0;
  std::size_t share_auth_failures = 0;
  std::size_t recovered_opens = 0;
  /// Robust opening ROUNDS and individual values opened, as counted by
  /// the lowest-id honest computing party (core::collect_cost).
  /// values_opened / opening_rounds is the batching factor achieved by
  /// the deferred-opening scheduler.
  std::uint64_t opening_rounds = 0;
  std::uint64_t values_opened = 0;

  double total_megabytes() const {
    return static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  }
};

struct TrainOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 10;
  double learning_rate = 0.1;
  /// Reveal + evaluate weights after every epoch (Fig. 2 series);
  /// otherwise only after the last epoch.
  bool evaluate_each_epoch = true;
  /// Reveal weights to the model owner at all (off to measure pure
  /// per-step protocol cost for Table II).
  bool reveal_weights = true;
  std::uint64_t shuffle_seed = 99;
};

struct TrainResult {
  std::vector<double> epoch_test_accuracy;
  CostReport cost;
};

struct InferResult {
  std::vector<std::size_t> labels;
  CostReport cost;
};

/// Build one computing party's protocol context from the engine
/// configuration.  Factored out of the training/inference actor bodies
/// so tests can assert every EngineConfig knob lands in the context
/// (EngineConfigTest) — a silent default mismatch here once shipped a
/// dist_tolerance of 8 in hand-rolled contexts vs 64 in the engine.
/// `adversary` may be nullptr; it is attached only when `party` equals
/// config.byzantine_party.
mpc::PartyContext make_party_context(const EngineConfig& config, int party,
                                     net::Endpoint endpoint,
                                     mpc::AdversaryHooks* adversary = nullptr);

/// Build the layer-execution context over an already-built party
/// context, owner link and material store; propagates trunc_mode,
/// batch_openings and reuse_masks.
SecureExecContext make_exec_context(const EngineConfig& config,
                                    mpc::PartyContext& pctx, OwnerLink& link,
                                    mpc::TripleStore& triples);

class TrustDdlEngine {
 public:
  /// Engine over an internally-owned in-memory Network (one fresh
  /// network per train()/infer() call).
  TrustDdlEngine(nn::ModelSpec spec, EngineConfig config);

  /// Engine over an externally-owned transport — e.g. a net::TcpFabric
  /// running every actor over real loopback sockets.  The transport
  /// must serve at least kNumActors endpoints and outlive the engine;
  /// its traffic counters are reset at the start of each call.  The
  /// EngineConfig latency/timeout knobs that configure the internal
  /// network (emulate_latency, link_latency, recv_timeout) are the
  /// transport owner's responsibility in this mode.
  TrustDdlEngine(nn::ModelSpec spec, EngineConfig config,
                 net::Transport& transport);

  /// Secure training over `train`; test accuracy evaluated on the
  /// reconstructed weights after each epoch.
  TrainResult train(const data::Dataset& train_data,
                    const data::Dataset& test_data,
                    const TrainOptions& options);

  /// Secure inference: data owner shares inputs, parties evaluate the
  /// current model, the data owner reconstructs the predictions.
  InferResult infer(const data::Dataset& inputs, std::size_t batch_size = 1);

  /// The model-owner's current plaintext model (initial weights, or
  /// the reconstructed weights after train()).
  nn::Sequential& reference_model() { return model_; }
  const nn::ModelSpec& spec() const { return spec_; }
  const EngineConfig& config() const { return config_; }

 private:
  /// The session the next run executes in: over the external
  /// transport, or a fresh in-memory Network.
  Session open_session() const;

  nn::ModelSpec spec_;
  EngineConfig config_;
  nn::Sequential model_;
  net::Transport* external_transport_ = nullptr;
};

}  // namespace trustddl::core
