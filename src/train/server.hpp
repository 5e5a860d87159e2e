// Computing-party side of the multi-owner training service.
//
// Each party follows the sequencer's round manifests in lockstep: per
// manifest entry it receives that owner's minibatch shares (zero-share
// substitution on timeout keeps the SPMD loop aligned), computes the
// owner's normalized gradient via the SecureModel backward pass, then
// robust-aggregates the per-owner gradient shares coordinate-wise
// (mpc::RobustAggregate) before one SGD step.  Each round's material is
// planned on the party's TripleStore when its manifest arrives, unit by
// unit as round_keys lists it, so the dealer deals while the round runs
// (DESIGN.md §10).  A shutdown manifest ends training; a suspend
// manifest checkpoints parameter (and momentum) shares plus the round
// cursor to TDCK files so a later session resumes mid-epoch —
// bit-identical under masked-open truncation (see train/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/actors.hpp"
#include "core/secure_model.hpp"
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
void aggregate_and_step(
    core::SecureModel& model, core::SecureExecContext& ctx,
    std::vector<std::vector<mpc::PartyShare>> owner_grads,
    const TrainConfig& config, std::vector<mpc::PartyShare>& velocity);

/// The material a round at the model's weight version draws, as the
/// units a party plans, in the order owner_gradient and
/// aggregate_and_step fetch it: one unit per owner of `owner_rows`
/// (its forward pass — the first owner's draws the version's masks —,
/// the rescale of its logit gradient, its backward pass), then the
/// aggregation per parameter (mpc::aggregate_keys) with the momentum
/// rescales, then the SGD update.
std::vector<std::vector<mpc::TripleKey>> round_keys(
    const core::SecureModel& model, const core::SecureExecContext& ctx,
    const nn::ModelSpec& spec, const std::vector<std::size_t>& owner_rows,
    const TrainConfig& config);

class TrainServer {
 public:
  TrainServer(int party, net::Endpoint endpoint, TrainConfig config,
              std::uint64_t provenance);

  /// Execute round manifests until shutdown (returns true) or suspend
  /// (returns false).  If a TDCK checkpoint exists under the configured
  /// directory, parameter/velocity shares and the round cursor are
  /// restored before the first manifest; on suspend and shutdown they
  /// are persisted.  `link` is used for epoch-end weight reveals.  Each
  /// round is planned on ctx.triples (round_keys) at its manifest.
  bool run(core::SecureModel& model, core::SecureExecContext& ctx,
           core::OwnerLink& link, const nn::ModelSpec& spec);

  std::uint64_t rounds_executed() const { return rounds_; }

 private:
  int party_;
  net::Endpoint endpoint_;
  TrainConfig config_;
  std::uint64_t provenance_;
  std::uint64_t rounds_ = 0;
};

/// Full computing-party body: receive parameter shares, restore any
/// checkpoint and persisted triple store, run the train server, persist
/// the store.
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
