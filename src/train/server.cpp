#include "train/server.hpp"

#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "mpc/share_serde.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::train {
namespace {

constexpr const char* kLog = "train.server";

/// Generous bound for the next manifest: the sequencer may be waiting
/// on slow owners for a full round window.
constexpr auto kManifestTimeout = std::chrono::seconds(60);

mpc::PartyShare decode_share(Bytes payload) {
  ByteReader reader(std::move(payload));
  return mpc::read_party_share(reader);
}

}  // namespace

void owner_gradient(core::SecureModel& model, core::SecureExecContext& ctx,
                    const mpc::PartyShare& x, const mpc::PartyShare& y) {
  // Gradients are scaled by 1/rows BEFORE backward (not folded into the
  // learning rate as in the single-owner loop) so owners with different
  // minibatch sizes contribute comparable coordinates to the
  // aggregation.
  model.zero_grads();
  const mpc::PartyShare probabilities = model.forward(ctx, x);
  mpc::PartyShare grad_logits = probabilities - y;
  grad_logits = ctx.rescale(grad_logits.scaled(fx::encode(
      1.0 / static_cast<double>(x.shape()[0]), ctx.mpc->frac_bits)));
  model.backward_from_logit_grad(ctx, grad_logits);
}

void aggregate_and_step(
    core::SecureModel& model, core::SecureExecContext& ctx,
    const std::vector<std::vector<mpc::PartyShare>>& owner_grads,
    const TrainConfig& config, std::vector<mpc::PartyShare>& velocity) {
  const int frac_bits = ctx.mpc->frac_bits;
  const std::vector<core::SecureParameter*> params = model.parameters();
  // Robust aggregation of the per-owner gradient shares: one prepared
  // call per parameter so all comparison and truncation openings share
  // rounds across the whole model.
  {
    const mpc::AggregateOptions options{config.rule, config.trim,
                                        ctx.trunc_mode};
    mpc::OpenBatch batch(*ctx.mpc);
    std::vector<mpc::DeferredShare> aggregated;
    aggregated.reserve(params.size());
    mpc::AggregateStats totals;
    for (std::size_t i = 0; i < params.size(); ++i) {
      mpc::AggregateStats stats;
      aggregated.push_back(mpc::robust_aggregate_prepare(
          batch, *ctx.triples, owner_grads[i], options,
          /*comp_triples=*/ctx.reuse_masks, &stats));
      totals.values_submitted += stats.values_submitted;
      totals.values_aggregated += stats.values_aggregated;
      totals.values_trimmed += stats.values_trimmed;
      totals.comparisons += stats.comparisons;
    }
    batch.flush_all();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->grad = aggregated[i].take();
    }
    obs::count("train.agg.values.submitted", totals.values_submitted);
    obs::count("train.agg.values.aggregated", totals.values_aggregated);
    obs::count("train.agg.values.trimmed", totals.values_trimmed);
    obs::count("train.agg.comparisons", totals.comparisons);
  }

  if (config.momentum != 0.0) {
    // v <- m*v + g; the m*v rescales share one opening round.
    const std::uint64_t momentum_encoded =
        fx::encode(config.momentum, frac_bits);
    core::PassMaterial material(ctx);
    for (const mpc::PartyShare& v : velocity) {
      material.add_trunc(v.shape());
    }
    material.fetch();
    mpc::OpenBatch batch(*ctx.mpc);
    std::vector<mpc::DeferredShare> damped;
    damped.reserve(params.size());
    for (const mpc::PartyShare& v : velocity) {
      damped.push_back(
          ctx.rescale_prepare(batch, v.scaled(momentum_encoded), material));
    }
    batch.flush_all();
    for (std::size_t i = 0; i < params.size(); ++i) {
      velocity[i] = damped[i].take();
      velocity[i] += params[i]->grad;
      params[i]->grad = velocity[i];
    }
  }

  model.sgd_step(ctx, config.learning_rate, frac_bits);
}

TrainServer::TrainServer(int party, net::Endpoint endpoint,
                         TrainConfig config, std::uint64_t provenance,
                         core::TriplePipeline& pipeline)
    : party_(party), endpoint_(endpoint), config_(std::move(config)),
      provenance_(provenance), pipeline_(pipeline) {}

bool TrainServer::run(core::SecureModel& model, core::SecureExecContext& ctx,
                      core::OwnerLink& link, const nn::ModelSpec& spec) {
  const std::vector<core::SecureParameter*> params = model.parameters();
  const bool use_momentum = config_.momentum != 0.0;
  std::vector<mpc::PartyShare> velocity;
  if (use_momentum) {
    velocity.reserve(params.size());
    for (core::SecureParameter* param : params) {
      velocity.push_back(mpc::zero_share(param->value.shape()));
    }
  }

  std::uint64_t start_round = 0;
  if (!config_.checkpoint_dir.empty()) {
    PartyCheckpoint ckpt;
    if (load_party_checkpoint(
            party_checkpoint_path(config_.checkpoint_dir, party_),
            provenance_, static_cast<net::PartyId>(party_), ckpt)) {
      TRUSTDDL_REQUIRE(ckpt.params.size() == params.size(),
                       "train: checkpoint parameter count mismatch");
      for (std::size_t i = 0; i < params.size(); ++i) {
        TRUSTDDL_REQUIRE(
            ckpt.params[i].value.shape() == params[i]->value.shape(),
            "train: checkpoint parameter shape mismatch");
        params[i]->value = ckpt.params[i].value;
        if (use_momentum && ckpt.params[i].has_velocity) {
          velocity[i] = ckpt.params[i].velocity;
        }
      }
      start_round = ckpt.round;
      TRUSTDDL_LOG_INFO(kLog) << "party " << party_ << " resuming at round "
                              << start_round << " from checkpoint";
    }
  }
  // Round r runs at weight version r (one SGD step per round), so a
  // resumed session never pairs a new weight value with a mask version
  // an earlier session already opened.
  model.set_weight_version(start_round);

  const mpc::AggregateOptions agg_options{config_.rule, config_.trim,
                                          ctx.trunc_mode};
  const auto save = [&](std::uint64_t round, std::uint64_t epoch) {
    if (config_.checkpoint_dir.empty()) {
      return;
    }
    PartyCheckpoint ckpt;
    ckpt.round = round;
    ckpt.epoch = epoch;
    ckpt.params.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      CheckpointParam param;
      param.name = "p" + std::to_string(i);
      param.value = params[i]->value;
      if (use_momentum) {
        param.velocity = velocity[i];
        param.has_velocity = true;
      }
      ckpt.params.push_back(std::move(param));
    }
    save_party_checkpoint(
        party_checkpoint_path(config_.checkpoint_dir, party_), provenance_,
        static_cast<net::PartyId>(party_), ckpt);
  };

  for (std::uint64_t round = start_round;; ++round) {
    // Poll for the next manifest; a round is planned only once its
    // manifest names the owners and their minibatch sizes.
    Bytes manifest_bytes;
    const auto deadline = std::chrono::steady_clock::now() + kManifestTimeout;
    while (!endpoint_.try_recv(core::kModelOwner, manifest_tag(round),
                               manifest_bytes)) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw TimeoutError("train: no manifest " + std::to_string(round));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const RoundManifest manifest = decode_round_manifest(manifest_bytes);
    if (manifest.shutdown) {
      save(manifest.round, manifest.epoch);
      return true;
    }
    if (manifest.suspend) {
      save(manifest.round, manifest.epoch);
      TRUSTDDL_LOG_INFO(kLog) << "party " << party_
                              << " suspended before round " << round;
      return false;
    }
    TRUSTDDL_REQUIRE(!manifest.entries.empty(), "train: empty manifest");

    // Correlation scope first (so it outlives the span's destructor):
    // every protocol span of this round carries "round:<epoch>:<round>"
    // at every party, matching the sequencer's dispatch record.
    const obs::CorrelationScope corr(
        "round:" + std::to_string(manifest.epoch) + ":" +
        std::to_string(manifest.round));
    obs::trace_instant("train.manifest", party_, round,
                       "\"epoch\": " + std::to_string(manifest.epoch) +
                           ", \"entries\": " +
                           std::to_string(manifest.entries.size()));
    obs::HealthState::global().note_progress("train.last_round", round);
    obs::ScopedSpan span("train.round", party_, round);
    std::vector<std::size_t> owner_rows;
    owner_rows.reserve(manifest.entries.size());
    for (const auto& entry : manifest.entries) {
      owner_rows.push_back(entry.rows);
    }
    // The round's material, unit by unit in consumption order: the
    // store sends the first units ahead while the inputs arrive.
    for (const core::DemandPlan& unit : core::profile_train_round_demand(
             spec, owner_rows, ctx.trunc_mode, agg_options, use_momentum,
             core::WeightMaskUse{ctx.reuse_masks, model.weight_version()})) {
      pipeline_.plan(unit);
    }

    // Per-owner normalized gradients, then their aggregation and the
    // update.
    std::vector<std::vector<mpc::PartyShare>> owner_grads(params.size());
    for (auto& grads : owner_grads) {
      grads.reserve(manifest.entries.size());
    }
    for (const auto& entry : manifest.entries) {
      TRUSTDDL_REQUIRE(entry.rows >= 1, "train: empty manifest entry");
      const Shape x_shape{entry.rows, spec.input_features};
      const Shape y_shape{entry.rows, spec.classes};
      mpc::PartyShare x = mpc::zero_share(x_shape);
      mpc::PartyShare y = mpc::zero_share(y_shape);
      try {
        x = decode_share(endpoint_.recv(entry.owner, input_x_tag(entry.seq),
                                        config_.input_wait));
        y = decode_share(endpoint_.recv(entry.owner, input_y_tag(entry.seq),
                                        config_.input_wait));
        TRUSTDDL_REQUIRE(x.shape() == x_shape && y.shape() == y_shape,
                         "train: input share shape mismatch");
      } catch (const Error& error) {
        // Missing or malformed minibatch: stay in lockstep with zero
        // shares — the resulting garbage gradient is absorbed by the
        // trim window exactly like a poisoned one.
        x = mpc::zero_share(x_shape);
        y = mpc::zero_share(y_shape);
        obs::count("train.party.input_substituted");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << party_ << " round " << round
            << ": substituting zero minibatch for owner " << entry.owner
            << " seq " << entry.seq << " (" << error.what() << ")";
      }

      owner_gradient(model, ctx, x, y);
      for (std::size_t i = 0; i < params.size(); ++i) {
        owner_grads[i].push_back(params[i]->grad);
      }
    }
    aggregate_and_step(model, ctx, owner_grads, config_, velocity);
    pipeline_.retire_versions_before(model.weight_version());
    ++rounds_;
    obs::count("train.party.rounds");

    if (manifest.epoch_end) {
      for (std::size_t i = 0; i < params.size(); ++i) {
        link.reveal(core::reveal_key(manifest.epoch, i), params[i]->value);
      }
    }
  }
}

mpc::DetectionLog train_service_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const TrainConfig& train_config, bool* clean_out,
    std::uint64_t* rounds_out, mpc::AdversaryHooks* adversary) {
  core::OwnerLink link(endpoint, party, std::chrono::seconds(60));
  core::SecureModel model(spec,
                          core::receive_parameters(endpoint, param_count));

  mpc::PartyContext pctx =
      core::make_party_context(config, party, endpoint, adversary);
  core::TriplePipeline pipeline(config, link, party, /*training=*/true);
  core::SecureExecContext sctx =
      core::make_exec_context(config, pctx, link, pipeline.store());
  TrainServer server(party, endpoint, train_config, config.seed, pipeline);
  const bool clean = server.run(model, sctx, link, spec);
  if (clean_out != nullptr) {
    *clean_out = clean;
  }
  if (rounds_out != nullptr) {
    *rounds_out = server.rounds_executed();
  }
  pipeline.shutdown();  // persist the store before the link closes
  // Both shutdown and suspend are orderly exits: release the owner
  // service so the sequencer's host thread can join it.
  link.stop();
  return pctx.detections;
}

void train_service_owner_body(
    const core::EngineConfig& config, nn::Sequential& model,
    net::Endpoint endpoint, const TrainConfig& train_config, int num_owners,
    SequencerStats* stats_out, std::map<std::string, RingTensor>* revealed_out) {
  // Same parameter-sharing seed derivation as single-owner training,
  // so a service deployment distributes bit-identical initial shares.
  Rng rng(config.seed * 101 + 3);
  core::share_parameters(model, endpoint, config.frac_bits, rng);

  core::ModelOwnerService service(
      endpoint, core::make_owner_service_config(config, /*training=*/true));
  std::future<void> service_done =
      std::async(std::launch::async, [&] { service.run(); });

  RoundSequencer sequencer(endpoint, train_config, num_owners, config.seed);
  try {
    sequencer.run();
  } catch (...) {
    service_done.wait();
    throw;
  }
  service_done.wait();
  if (stats_out != nullptr) {
    *stats_out = sequencer.stats();
  }
  if (revealed_out != nullptr) {
    *revealed_out = service.revealed();
  }
  service_done.get();  // rethrows the service's failure, if any
}

}  // namespace trustddl::train
