#include "core/engine.hpp"

#include "common/logging.hpp"
#include "core/actors.hpp"
#include "core/session.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.engine";

}  // namespace

mpc::PartyContext make_party_context(const EngineConfig& config, int party,
                                     net::Endpoint endpoint,
                                     mpc::AdversaryHooks* adversary) {
  mpc::PartyContext pctx;
  pctx.endpoint = std::move(endpoint);
  pctx.party = party;
  pctx.detections.party = party;
  pctx.mode = config.mode;
  pctx.frac_bits = config.frac_bits;
  pctx.dist_tolerance = config.dist_tolerance;
  pctx.kernels = config.kernels;
  if (party == config.byzantine_party) {
    pctx.adversary = adversary;
  }
  return pctx;
}

SecureExecContext make_exec_context(const EngineConfig& config,
                                    mpc::PartyContext& pctx, OwnerLink& link,
                                    mpc::TripleStore& triples) {
  SecureExecContext sctx;
  sctx.mpc = &pctx;
  sctx.triples = &triples;
  sctx.owner = &link;
  sctx.trunc_mode = config.resolved_trunc_mode();
  sctx.batch_openings = config.batch_openings;
  sctx.reuse_masks = config.reuse_masks;
  return sctx;
}

TrustDdlEngine::TrustDdlEngine(nn::ModelSpec spec, EngineConfig config)
    : spec_(std::move(spec)),
      config_(config),
      model_(core::reference_model(spec_, config_)) {}

TrustDdlEngine::TrustDdlEngine(nn::ModelSpec spec, EngineConfig config,
                               net::Transport& transport)
    : TrustDdlEngine(std::move(spec), config) {
  TRUSTDDL_REQUIRE(transport.num_parties() >= kNumActors,
                   "external transport must serve all five actors");
  external_transport_ = &transport;
}

Session TrustDdlEngine::open_session() const {
  if (external_transport_ != nullptr) {
    return Session(config_, *external_transport_);
  }
  return Session(config_, kNumActors);
}

TrainResult TrustDdlEngine::train(const data::Dataset& train_data,
                                  const data::Dataset& test_data,
                                  const TrainOptions& options) {
  Session session = open_session();
  const std::size_t param_count = model_.parameters().size();
  const TrainJob job =
      make_train_job(spec_, config_, options, train_data, param_count);
  ModelOwnerService service(session.endpoint(kModelOwner),
                            make_owner_service_config(config_, true));

  std::vector<Role> roles = {
      {kModelOwner,
       [&] {
         train_model_owner_body(job, session.endpoint(kModelOwner), model_,
                                service);
       }},
      {kDataOwner,
       [&] { train_data_owner_body(job, session.endpoint(kDataOwner)); }}};
  for (int party = 0; party < kComputingParties; ++party) {
    roles.push_back(session.party_role(party, [&, party] {
      return train_computing_party_body(job, party, session.endpoint(party),
                                        session.adversary());
    }));
  }
  session.run(roles);

  // Evaluate the reconstructed weights per epoch on the test set.
  TrainResult result;
  for (std::size_t epoch = 0;
       options.reveal_weights && epoch < options.epochs; ++epoch) {
    const bool last_epoch = epoch + 1 == options.epochs;
    if (!options.evaluate_each_epoch && !last_epoch) {
      continue;
    }
    if (!apply_revealed_weights(service.revealed(), epoch, param_count,
                                config_.frac_bits, model_)) {
      TRUSTDDL_LOG_WARN(kLog) << "missing revealed weights for epoch "
                              << epoch;
      continue;
    }
    result.epoch_test_accuracy.push_back(
        model_.accuracy(test_data.images, test_data.labels));
  }
  result.cost = session.finish();
  return result;
}

InferResult TrustDdlEngine::infer(const data::Dataset& inputs,
                                  std::size_t batch_size) {
  Session session = open_session();
  const InferJob job = make_infer_job(
      spec_, config_, model_.parameters().size(), inputs, batch_size);
  ModelOwnerService service(session.endpoint(kModelOwner),
                            make_owner_service_config(config_, false));

  InferResult result;
  std::vector<Role> roles = {
      {kModelOwner,
       [&] {
         infer_model_owner_body(job, session.endpoint(kModelOwner), model_,
                                service);
       }},
      {kDataOwner, [&] {
         result.labels =
             infer_data_owner_body(job, session.endpoint(kDataOwner));
       }}};
  for (int party = 0; party < kComputingParties; ++party) {
    roles.push_back(session.party_role(party, [&, party] {
      return infer_computing_party_body(job, party, session.endpoint(party),
                                        session.adversary());
    }));
  }
  session.run(roles);
  result.cost = session.finish();
  return result;
}

}  // namespace trustddl::core
