#include "core/engine.hpp"

#include <thread>

#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "core/actors.hpp"
#include "core/metrics_export.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.engine";

/// Arm the telemetry sinks the config asks for.  metrics_out enables
/// the registry (never disables it — TRUSTDDL_METRICS may have turned
/// it on process-wide) and zeroes it so the export covers exactly this
/// run; either sink clears the detection event log.
void begin_observation(const EngineConfig& config) {
  if (!config.metrics_out.empty()) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  if (!config.trace_out.empty()) {
    obs::Tracer::global().open(config.trace_out);
  }
  if (!config.metrics_out.empty() || !config.trace_out.empty()) {
    obs::EventLog::global().clear();
  }
}

void finish_observation(const EngineConfig& config,
                        const net::Transport& transport,
                        const CostReport& cost) {
  if (!config.metrics_out.empty()) {
    write_metrics_export(config.metrics_out,
                         obs::MetricsRegistry::global().snapshot(),
                         obs::EventLog::global().snapshot(),
                         transport.traffic(), cost);
  }
  if (!config.trace_out.empty()) {
    obs::Tracer::global().close();
  }
}

/// Run heterogeneous actor bodies on their own threads; rethrow the
/// first failure of an actor marked critical (honest parties, owners).
void run_actors(const std::vector<std::function<void()>>& bodies,
                const std::vector<bool>& critical) {
  std::vector<std::exception_ptr> errors(bodies.size());
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        bodies[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    if (errors[i]) {
      if (critical[i]) {
        std::rethrow_exception(errors[i]);
      }
      std::string reason = "unknown";
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::exception& error) {
        reason = error.what();
      } catch (...) {
      }
      TRUSTDDL_LOG_WARN(kLog) << "non-critical actor " << i
                              << " failed (tolerated): " << reason;
    }
  }
}

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
  pctx.share_authentication = config.share_authentication;
  pctx.optimistic = config.optimistic_open;
  pctx.kernels = config.kernels;
  if (party == config.byzantine_party) {
    pctx.adversary = adversary;
  }
  return pctx;
}

SecureExecContext make_exec_context(const EngineConfig& config,
                                    mpc::PartyContext& pctx, OwnerLink& link) {
  SecureExecContext sctx;
  sctx.mpc = &pctx;
  sctx.triples = &link;
  sctx.owner = &link;
  sctx.trunc_mode = config.resolved_trunc_mode();
  sctx.batch_openings = config.batch_openings;
  sctx.reuse_weight_masks = config.reuse_weight_masks;
  return sctx;
}

TrustDdlEngine::TrustDdlEngine(nn::ModelSpec spec, EngineConfig config)
    : spec_(std::move(spec)), config_(config), model_([&] {
        Rng rng(config.seed);
        return nn::build_model(spec_, rng);
      }()) {}

TrustDdlEngine::TrustDdlEngine(nn::ModelSpec spec, EngineConfig config,
                               net::Transport& transport)
    : TrustDdlEngine(std::move(spec), config) {
  TRUSTDDL_REQUIRE(transport.num_parties() >= kNumActors,
                   "external transport must serve all five actors");
  external_transport_ = &transport;
}

net::Transport& TrustDdlEngine::prepare_transport() {
  if (external_transport_ != nullptr) {
    external_transport_->reset_traffic();
    return *external_transport_;
  }
  net::NetworkConfig net_config;
  net_config.num_parties = kNumActors;
  net_config.recv_timeout = config_.recv_timeout;
  net_config.emulate_latency = config_.emulate_latency;
  net_config.link_latency = config_.link_latency;
  network_ = std::make_unique<net::Network>(net_config);
  return *network_;
}

CostReport TrustDdlEngine::collect_cost(
    const net::Transport& transport, double wall_seconds,
    const std::array<mpc::DetectionLog, 3>& logs) const {
  CostReport report;
  report.wall_seconds = wall_seconds;
  const net::TrafficSnapshot traffic = transport.traffic();
  report.total_bytes = traffic.total_bytes;
  report.total_messages = traffic.total_messages;
  for (int i = 0; i < kNumActors; ++i) {
    for (int j = 0; j < kNumActors; ++j) {
      const auto bytes =
          traffic.links[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(j)]
                           .bytes;
      if (i < kComputingParties && j < kComputingParties) {
        report.proxy_bytes += bytes;
      } else {
        report.owner_bytes += bytes;
      }
    }
  }
  for (const auto& log : logs) {
    report.commitment_violations +=
        log.count(mpc::DetectionEvent::Kind::kCommitmentViolation);
    report.distance_anomalies +=
        log.count(mpc::DetectionEvent::Kind::kDistanceAnomaly);
    report.share_auth_failures +=
        log.count(mpc::DetectionEvent::Kind::kShareAuthFailure);
    report.recovered_opens += log.recovered_opens;
  }
  report.opening_rounds = logs[0].opens;
  report.values_opened = logs[0].values_opened;
  return report;
}

TrainResult TrustDdlEngine::train(const data::Dataset& train_data,
                                  const data::Dataset& test_data,
                                  const TrainOptions& options) {
  // Free tensor/conv kernels pick their parallelism up from the
  // process-global config; pin it to this engine's setting so the
  // whole run (including plaintext evaluation) honours it.
  kernels::set_global_config(config_.kernels);
  begin_observation(config_);
  net::Transport& transport = prepare_transport();

  const auto parameters = model_.parameters();
  const TrainJob job =
      make_train_job(spec_, config_, options, train_data, parameters.size());

  std::unique_ptr<mpc::StandardAdversary> adversary;
  if (config_.byzantine_party >= 0) {
    adversary = std::make_unique<mpc::StandardAdversary>(config_.byzantine);
  }

  ModelOwnerService service(transport.endpoint(kModelOwner),
                            make_owner_service_config(config_, true));

  std::array<mpc::DetectionLog, 3> logs;
  Stopwatch watch;

  std::vector<std::function<void()>> bodies;
  std::vector<bool> critical;

  bodies.push_back([&] {
    train_model_owner_body(job, transport.endpoint(kModelOwner), model_,
                           service);
  });
  critical.push_back(true);

  bodies.push_back(
      [&] { train_data_owner_body(job, transport.endpoint(kDataOwner)); });
  critical.push_back(true);

  for (int party = 0; party < kComputingParties; ++party) {
    bodies.push_back([&, party] {
      logs[static_cast<std::size_t>(party)] = train_computing_party_body(
          job, party, transport.endpoint(party), adversary.get());
    });
    critical.push_back(party != config_.byzantine_party);
  }

  run_actors(bodies, critical);
  const double wall = watch.elapsed_seconds();

  // Evaluate the reconstructed weights per epoch on the test set.
  TrainResult result;
  for (std::size_t epoch = 0;
       options.reveal_weights && epoch < options.epochs; ++epoch) {
    const bool last_epoch = epoch + 1 == options.epochs;
    if (!options.evaluate_each_epoch && !last_epoch) {
      continue;
    }
    bool complete = true;
    for (std::size_t i = 0; i < parameters.size(); ++i) {
      const auto it = service.revealed().find(reveal_key(epoch, i));
      if (it == service.revealed().end()) {
        complete = false;
        break;
      }
      parameters[i]->value = to_real(it->second, config_.frac_bits);
    }
    if (!complete) {
      TRUSTDDL_LOG_WARN(kLog) << "missing revealed weights for epoch "
                              << epoch;
      continue;
    }
    result.epoch_test_accuracy.push_back(
        model_.accuracy(test_data.images, test_data.labels));
  }
  result.cost = collect_cost(transport, wall, logs);
  finish_observation(config_, transport, result.cost);
  return result;
}

InferResult TrustDdlEngine::infer(const data::Dataset& inputs,
                                  std::size_t batch_size) {
  kernels::set_global_config(config_.kernels);
  begin_observation(config_);
  net::Transport& transport = prepare_transport();

  const InferJob job = make_infer_job(
      spec_, config_, model_.parameters().size(), inputs, batch_size);

  std::unique_ptr<mpc::StandardAdversary> adversary;
  if (config_.byzantine_party >= 0) {
    adversary = std::make_unique<mpc::StandardAdversary>(config_.byzantine);
  }

  ModelOwnerService service(transport.endpoint(kModelOwner),
                            make_owner_service_config(config_, false));

  std::array<mpc::DetectionLog, 3> logs;
  std::vector<std::size_t> labels;
  Stopwatch watch;

  std::vector<std::function<void()>> bodies;
  std::vector<bool> critical;

  bodies.push_back([&] {
    infer_model_owner_body(job, transport.endpoint(kModelOwner), model_,
                           service);
  });
  critical.push_back(true);

  bodies.push_back([&] {
    labels = infer_data_owner_body(job, transport.endpoint(kDataOwner));
  });
  critical.push_back(true);

  for (int party = 0; party < kComputingParties; ++party) {
    bodies.push_back([&, party] {
      logs[static_cast<std::size_t>(party)] = infer_computing_party_body(
          job, party, transport.endpoint(party), adversary.get());
    });
    critical.push_back(party != config_.byzantine_party);
  }

  run_actors(bodies, critical);

  InferResult result;
  result.labels = std::move(labels);
  result.cost = collect_cost(transport, watch.elapsed_seconds(), logs);
  finish_observation(config_, transport, result.cost);
  return result;
}

}  // namespace trustddl::core
