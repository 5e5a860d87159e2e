// Offline/online preprocessing pipeline (DESIGN.md §10).
//
// Ties the pieces of the offline phase together for one computing
// party:
//
//  * a demand profiler that walks a ModelSpec and lists exactly which
//    (kind, shape) material a forward/backward/sgd step consumes, in
//    the order the Secure* layers consume it — the same arithmetic the
//    layers perform, so the store sends ahead precisely what the
//    online phase will pop;
//  * the party's TripleStore over its OwnerLink, the one source of
//    material, with optional disk persistence (material survives
//    restarts).
//
// The party's protocol thread plans each unit of work one unit before
// it runs (an engine job's next step, a dispatched serving batch, a
// training round's owner steps, aggregation and update), and the
// store sends it ahead within its window while the party computes:
// dealing overlaps the online phase with no thread, no warm phase and
// no setting.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "mpc/robust_aggregate.hpp"
#include "mpc/triple_store.hpp"
#include "nn/model_zoo.hpp"

namespace trustddl::core {

/// Material requirement: one stream key per entry, in the order the
/// entries are consumed (a key repeats once per entry it yields).
struct DemandPlan {
  std::vector<mpc::TripleKey> keys;

  /// Append `count` entries of `key`.
  void add(const mpc::TripleKey& key, std::size_t count = 1);
  /// Append every entry of `other`, after this plan's.
  void merge(const DemandPlan& other);
  bool empty() const { return keys.empty(); }
  std::size_t total() const { return keys.size(); }
};

/// Which material a step draws (EngineConfig::reuse_masks): the paper's
/// per-product material, or with `reuse` the reusable masks of weight
/// version `version`, comparison triples, and no input gradient for
/// the first layer.  `first_use` marks the version's first step: each
/// dense and conv layer draws the version's kWeightMask entry just
/// before its first product.
struct WeightMaskUse {
  bool reuse = false;
  std::uint64_t version = 0;
  bool first_use = false;
};

/// Material one training/inference step consumes for a batch of
/// `batch_rows` samples, in consumption order: the forward pass layer
/// by layer; when `training` the backward pass from the last layer
/// down, then the SGD update.  Truncation pairs appear only in
/// kMaskedOpen mode (local truncation consumes no material).  With
/// masks.reuse the dense and conv products draw masked-matmul and
/// masked-conv entries of masks.version (and with masks.first_use the
/// version's masks), comparisons draw comparison triples, and the
/// first layer's input gradient draws nothing.  Mirrors the
/// consumption sites in secure_model.cpp layer by layer.
DemandPlan profile_step_demand(const nn::ModelSpec& spec,
                               std::size_t batch_rows,
                               TruncationMode trunc_mode, bool training,
                               const WeightMaskUse& masks = {});

/// Demand for steps [first, first + count) of a job of `batch_rows`
/// steps (batches may differ in size — the trailing partial batch gets
/// its own shape classes).  Inference steps all run at masks.version;
/// training step i runs at masks.version + i (one SGD step each).  Each
/// version's masks are planned in the step that first uses it, whatever
/// masks.first_use says.
DemandPlan profile_job_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& batch_rows,
    TruncationMode trunc_mode, bool training,
    const WeightMaskUse& masks = {}, std::size_t first = 0,
    std::size_t count = std::numeric_limits<std::size_t>::max());

/// Material one multi-owner training round at weight version
/// masks.version consumes, as the units a party plans, in consumption
/// order: one per owner (its forward pass, the masked rescale of its
/// normalized logit gradient, its backward pass; the first owner's
/// forward pass also draws the version's masks), then the robust
/// aggregation, per parameter (see mpc::aggregate_demand), with the
/// optional momentum rescale, then the SGD update.
std::vector<DemandPlan> profile_train_round_demand(
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    TruncationMode trunc_mode, const mpc::AggregateOptions& aggregation,
    bool momentum, const WeightMaskUse& masks = {});

class TriplePipeline {
 public:
  /// Builds the party's store over `backend`, and loads a persisted
  /// store for this party/role if one exists under triple_store_dir.
  TriplePipeline(const EngineConfig& config, mpc::TripleBackend& backend,
                 int party, bool training);
  ~TriplePipeline();

  TriplePipeline(const TriplePipeline&) = delete;
  TriplePipeline& operator=(const TriplePipeline&) = delete;

  /// What the online phase consumes from.
  mpc::TripleStore& store() { return store_; }

  /// Plan one unit of work (TripleStore::plan).
  void plan(const DemandPlan& plan) { store_.plan(plan.keys); }

  /// Plan step `step` of an engine job (profile_job_demand); nothing
  /// past the job's last step.  Jobs plan step 0 before they start and
  /// step s + 1 before step s runs.
  void plan_job_step(const nn::ModelSpec& spec,
                     const std::vector<std::size_t>& batch_rows,
                     bool training, std::size_t step);

  /// Drop the drained streams of weight versions below `version`
  /// (TripleStore::retire_versions_before).
  void retire_versions_before(std::uint64_t version) {
    store_.retire_versions_before(version);
  }

  /// With a store dir configured, receive the fills in flight and
  /// persist the store.  Idempotent; also runs from the destructor.
  void shutdown();

  /// Provenance tag for persisted stores: ties a file to the dealing
  /// seed and fixed-point format of this run.
  static std::uint64_t store_provenance(const EngineConfig& config,
                                        bool training);

  /// Path of this party's persisted store under `dir`.
  static std::string store_path(const std::string& dir, int party,
                                bool training);

 private:
  EngineConfig config_;
  int party_;
  bool training_;
  mpc::TripleStore store_;
  bool shut_down_ = false;
};

}  // namespace trustddl::core
