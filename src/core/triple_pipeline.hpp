// Offline/online preprocessing pipeline (DESIGN.md §10).
//
// Ties the pieces of the offline phase together for one computing
// party:
//
//  * a demand profiler that walks a ModelSpec and counts exactly which
//    (kind, shape) material a forward/backward/sgd step consumes —
//    the same arithmetic the Secure* layers perform, so a warm store
//    holds precisely what the online phase will pop;
//  * the party's TripleStore over its OwnerLink, the one source of
//    material, with optional disk persistence (material survives
//    restarts);
//  * warm() — the synchronous offline phase — and a background
//    producer thread that keeps stores above the low-water mark while
//    the online phase runs.
//
// Without EngineConfig::triple_prefetch the store plans nothing,
// buffers nothing and no thread starts: every entry is a miss,
// fetched at its stream cursor with one kBatchFill per entry — the
// synchronous dealing path, bit-identical to the prefetching one (both
// consume each per-key stream in order from index 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/owner_link.hpp"
#include "mpc/robust_aggregate.hpp"
#include "mpc/triple_store.hpp"
#include "nn/model_zoo.hpp"

namespace trustddl::core {

/// Aggregated material requirement: entry count per stream key.
struct DemandPlan {
  std::vector<std::pair<mpc::TripleKey, std::size_t>> counts;

  /// Add `count` entries of `key` (merging with an existing line).
  void add(const mpc::TripleKey& key, std::size_t count);
  void merge(const DemandPlan& other);
  bool empty() const { return counts.empty(); }
  std::size_t total() const;
};

/// Which material a step draws (EngineConfig::reuse_masks): the paper's
/// per-product material, or with `reuse` the reusable masks of weight
/// version `version`, comparison triples, and no input gradient for
/// the first layer.
struct WeightMaskUse {
  bool reuse = false;
  std::uint64_t version = 0;
};

/// Material one training/inference step consumes for a batch of
/// `batch_rows` samples: forward pass always; backward + SGD update
/// when `training`.  Truncation pairs appear only in kMaskedOpen mode
/// (local truncation consumes no material).  With masks.reuse the dense
/// and conv products draw masked-matmul and masked-conv entries of
/// masks.version, comparisons draw comparison triples, and the first
/// layer's input gradient draws nothing; the version's kWeightMask
/// entries are not included (see profile_version_demand).  Mirrors the
/// consumption sites in secure_model.cpp layer by layer.
DemandPlan profile_step_demand(const nn::ModelSpec& spec,
                               std::size_t batch_rows,
                               TruncationMode trunc_mode, bool training,
                               const WeightMaskUse& masks = {});

/// The reusable masks weight version `version` deals: one kWeightMask
/// entry per dense and conv layer, consumed by the version's first
/// product.
DemandPlan profile_version_demand(const nn::ModelSpec& spec,
                                  std::uint64_t version);

/// Demand for steps [first, first + count) of a job of `batch_rows`
/// steps (batches may differ in size — the trailing partial batch gets
/// its own shape classes).  Inference steps all run at masks.version;
/// training step i runs at masks.version + i (one SGD step each).  Each
/// version's masks are planned with the step that first uses it.
DemandPlan profile_job_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& batch_rows,
    TruncationMode trunc_mode, bool training,
    const WeightMaskUse& masks = {}, std::size_t first = 0,
    std::size_t count = std::numeric_limits<std::size_t>::max());

/// Material one multi-owner training round consumes: per owner a full
/// forward/backward step on that owner's minibatch plus the masked
/// rescale of its normalized logit gradient, then per parameter the
/// comparison and truncation demand of the robust aggregation (see
/// mpc::aggregate_demand) and the optional momentum rescale, plus the
/// round's weight-version masks.  Slightly over-counts the per-round
/// SGD truncation pairs (once per owner instead of once per round) — a
/// deliberate overshoot: store targets are maxima, and surplus
/// prefetched entries persist for later rounds.
DemandPlan profile_train_round_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    TruncationMode trunc_mode, const mpc::AggregateOptions& aggregation,
    bool momentum, const WeightMaskUse& masks = {});

class TriplePipeline {
 public:
  /// Builds the party's store over `link`, and loads a persisted store
  /// for this party/role if one exists under triple_store_dir.
  TriplePipeline(const EngineConfig& config, OwnerLink& link, int party,
                 bool training);
  ~TriplePipeline();

  TriplePipeline(const TriplePipeline&) = delete;
  TriplePipeline& operator=(const TriplePipeline&) = delete;

  /// What the online phase consumes from.
  mpc::TripleStore& store() { return store_; }

  /// Raise per-key targets from a demand plan (each capped at
  /// EngineConfig::triple_max_depth).  A versioned key's count is what
  /// it should deliver beyond the entries already consumed.  No-op
  /// without prefetch.
  void plan(const DemandPlan& plan);

  /// Plan steps [first, first + EngineConfig::triple_max_depth) of an
  /// engine job (profile_job_demand).  Jobs call it once before warm()
  /// and again after every step, so versioned material is planned a
  /// bounded window ahead of the online phase.
  void plan_job_window(const nn::ModelSpec& spec,
                       const std::vector<std::size_t>& batch_rows,
                       bool training, std::size_t first);

  /// Drop the drained streams of weight versions below `version`
  /// (TripleStore::retire_versions_before).  Consumer thread only.
  void retire_versions_before(std::uint64_t version);

  /// Convenience for serving: plan `depth_factor` steps' worth of
  /// demand for a batch of `rows` (adaptive steady-state planning —
  /// the first manifest of a size pays the miss cost, later ones pop
  /// prefetched entries).
  void plan_step(const nn::ModelSpec& spec, std::size_t rows,
                 std::size_t depth_factor);

  /// Synchronous offline phase: refill every store to target.  Returns
  /// entries fetched.  No-op without prefetch.
  std::size_t warm();

  /// One bounded refill pass (for idle loops).  Returns entries added.
  std::size_t refill_once();

  /// Start the background producer (refills keys below the low-water
  /// mark).  No-op without prefetch.
  void start();

  /// Stop the producer and persist the store if a store dir is
  /// configured.  Idempotent; also runs from the destructor.
  void shutdown();

  /// Provenance tag for persisted stores: ties a file to the dealing
  /// seed and fixed-point format of this run.
  static std::uint64_t store_provenance(const EngineConfig& config,
                                        bool training);

  /// Path of this party's persisted store under `dir`.
  static std::string store_path(const std::string& dir, int party,
                                bool training);

 private:
  void producer_loop();

  EngineConfig config_;
  int party_;
  bool training_;
  mpc::TripleStore store_;
  std::thread producer_;
  std::atomic<bool> stop_{false};
  bool shut_down_ = false;
};

}  // namespace trustddl::core
