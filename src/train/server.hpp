// Computing-party side of the multi-owner training service.
//
// Each party follows the sequencer's round manifests in lockstep: per
// manifest entry it receives that owner's minibatch shares (zero-share
// substitution on timeout keeps the SPMD loop aligned), computes the
// owner's normalized gradient via the SecureModel backward pass, then
// robust-aggregates the per-owner gradient shares coordinate-wise
// (mpc::RobustAggregate) before one SGD step.  A shutdown manifest
// ends training; a suspend manifest checkpoints parameter (and
// momentum) shares plus the round cursor to TDCK files so a later
// session resumes mid-epoch — bit-identical under masked-open
// truncation (see train/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/actors.hpp"
#include "core/secure_model.hpp"
#include "core/triple_pipeline.hpp"
#include "train/sequencer.hpp"
#include "train/wire.hpp"

namespace trustddl::train {

/// One owner's normalized gradient at a party: forward on `x`, the
/// fused softmax/cross-entropy gradient p − y scaled by 1/rows and
/// rescaled, then backward.  Leaves it in the parameters' grads.
void owner_gradient(core::SecureModel& model, core::SecureExecContext& ctx,
                    const mpc::PartyShare& x, const mpc::PartyShare& y);

/// The rest of a round at a party: the robust aggregation of
/// `owner_grads` (per parameter, one share per owner), the momentum
/// update of `velocity` when config.momentum is set, and the SGD step.
/// With owner_gradient, draws its material in the order
/// core::profile_train_round_demand lists it.
void aggregate_and_step(
    core::SecureModel& model, core::SecureExecContext& ctx,
    const std::vector<std::vector<mpc::PartyShare>>& owner_grads,
    const TrainConfig& config, std::vector<mpc::PartyShare>& velocity);

class TrainServer {
 public:
  /// `pipeline` is the party's preprocessing pipeline: each manifest
  /// plans the round's profiled demand unit by unit, so its material
  /// is dealt while the round runs.  It must outlive the server.
  TrainServer(int party, net::Endpoint endpoint, TrainConfig config,
              std::uint64_t provenance, core::TriplePipeline& pipeline);

  /// Execute round manifests until shutdown (returns true) or suspend
  /// (returns false).  If a TDCK checkpoint exists under the configured
  /// directory, parameter/velocity shares and the round cursor are
  /// restored before the first manifest; on suspend and shutdown they
  /// are persisted.  `link` is used for epoch-end weight reveals.
  bool run(core::SecureModel& model, core::SecureExecContext& ctx,
           core::OwnerLink& link, const nn::ModelSpec& spec);

  std::uint64_t rounds_executed() const { return rounds_; }

 private:
  int party_;
  net::Endpoint endpoint_;
  TrainConfig config_;
  std::uint64_t provenance_;
  core::TriplePipeline& pipeline_;
  std::uint64_t rounds_ = 0;
};

/// Full computing-party body: receive parameter shares, restore any
/// checkpoint, run the train server, persist the preprocessing store.
/// `clean_out` (optional) reports shutdown (true) vs suspend (false).
/// `adversary` may be nullptr and is attached only when `party` equals
/// config.byzantine_party (core::make_party_context).
mpc::DetectionLog train_service_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const TrainConfig& train_config, bool* clean_out = nullptr,
    std::uint64_t* rounds_out = nullptr,
    mpc::AdversaryHooks* adversary = nullptr);

/// Full model-owner body: share fresh parameter shares, run the
/// owner service (Softmax + dealing + reveals) on a side thread and
/// the round sequencer on this one.
void train_service_owner_body(
    const core::EngineConfig& config, nn::Sequential& model,
    net::Endpoint endpoint, const TrainConfig& train_config, int num_owners,
    SequencerStats* stats_out = nullptr,
    std::map<std::string, RingTensor>* revealed_out = nullptr);

}  // namespace trustddl::train
