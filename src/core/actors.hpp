// Actor bodies for TrustDDL's five roles, factored out of the engine
// so the same SPMD programs run in two deployments:
//   * in-process: TrustDdlEngine spawns all five bodies as threads
//     over one Transport (the in-memory Network, or a TcpFabric);
//   * multi-process: the trustddl_party CLI runs one body per OS
//     process over its own TcpTransport.
// Every body derives its randomness from EngineConfig::seed through
// fixed per-role derivations, so a distributed run reconstructs
// exactly the outputs of the in-memory engine, bit for bit.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace trustddl::core {

/// Owner-service knobs derived from the engine configuration; the
/// seed derivation differs per mode so training and inference never
/// share preprocessing material.
OwnerServiceConfig make_owner_service_config(const EngineConfig& config,
                                             bool training);

/// Where party `party` persists its triple store for training or
/// inference under config.triple_store_dir (no path without one), and
/// the provenance tag that ties the file to this run's dealing seed and
/// fixed-point format.
mpc::StoreFile triple_store_file(const EngineConfig& config, int party,
                                 bool training);

/// Key under which epoch `epoch`'s parameter `param` is revealed to
/// the model owner.
std::string reveal_key(std::size_t epoch, std::size_t param);

/// Load the revealed epoch-`epoch` weights into `model`'s parameters
/// (for plaintext accuracy evaluation).  Returns false when any of the
/// `param_count` reveal keys is missing.
bool apply_revealed_weights(const std::map<std::string, RingTensor>& revealed,
                            std::size_t epoch, std::size_t param_count,
                            int frac_bits, nn::Sequential& model);

/// Share `model`'s parameters from the model owner to the three
/// computing parties (tags "init/<i>").  Exposed for actor bodies that
/// live outside this translation unit — e.g. the serving layer's
/// model-owner body — so every deployment distributes parameters the
/// same way.
void share_parameters(nn::Sequential& model, net::Endpoint endpoint,
                      int frac_bits, Rng& rng);

/// Receive the shared parameters at a computing party (counterpart of
/// share_parameters).
std::vector<mpc::PartyShare> receive_parameters(net::Endpoint endpoint,
                                                std::size_t param_count);

// --- Secure inference -----------------------------------------------

/// Everything an inference actor needs to know up front.  All actors
/// of one run must be built from identical inputs (the batches only
/// matter to the data owner, but deriving the job identically
/// everywhere keeps counts and tags aligned).
struct InferJob {
  nn::ModelSpec spec;
  EngineConfig config;
  std::size_t param_count = 0;
  std::vector<data::Dataset> batches;
  std::size_t total_rows = 0;
};

InferJob make_infer_job(nn::ModelSpec spec, const EngineConfig& config,
                        std::size_t param_count, const data::Dataset& inputs,
                        std::size_t batch_size);

/// Model owner: share `model`'s parameters to the proxy layer, then
/// serve preprocessing/softmax requests until the parties stop.
void infer_model_owner_body(const InferJob& job, net::Endpoint endpoint,
                            nn::Sequential& model,
                            ModelOwnerService& service);

/// Data owner: share each batch's inputs, collect prediction shares,
/// robustly reconstruct; returns the predicted labels.
std::vector<std::size_t> infer_data_owner_body(const InferJob& job,
                                               net::Endpoint endpoint);

/// Computing party `party` (0..2); `adversary` may be nullptr and is
/// only attached when `party` equals config.byzantine_party.
mpc::DetectionLog infer_computing_party_body(const InferJob& job, int party,
                                             net::Endpoint endpoint,
                                             mpc::AdversaryHooks* adversary);

// --- Secure training ------------------------------------------------

struct TrainJob {
  nn::ModelSpec spec;
  EngineConfig config;
  TrainOptions options;
  /// Deterministic batch schedule (shuffled with options.shuffle_seed),
  /// identical at the data owner and every computing party.
  std::vector<data::Dataset> batches;
  std::vector<std::size_t> epoch_last_step;
  std::size_t param_count = 0;
};

TrainJob make_train_job(nn::ModelSpec spec, const EngineConfig& config,
                        const TrainOptions& options,
                        const data::Dataset& train_data,
                        std::size_t param_count);

void train_model_owner_body(const TrainJob& job, net::Endpoint endpoint,
                            nn::Sequential& model,
                            ModelOwnerService& service);

void train_data_owner_body(const TrainJob& job, net::Endpoint endpoint);

mpc::DetectionLog train_computing_party_body(const TrainJob& job, int party,
                                             net::Endpoint endpoint,
                                             mpc::AdversaryHooks* adversary);

}  // namespace trustddl::core
