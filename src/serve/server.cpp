#include "serve/server.hpp"

#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"

namespace trustddl::serve {
namespace {

constexpr const char* kLog = "serve.server";

/// Generous bound for the next manifest: the owner may legitimately be
/// idle while no client has anything to ask.
constexpr auto kManifestTimeout = std::chrono::seconds(60);

/// Byzantine result corruption: a constant offset on every component —
/// the share frame stays well-formed, the reconstructed value is junk.
mpc::PartyShare corrupted(const mpc::PartyShare& share) {
  return mpc::transform_share(share, [](const RingTensor& component) {
    RingTensor out = component;
    for (auto& value : out.values()) {
      value += 0x517e57ab1e0ddba1ULL;
    }
    return out;
  });
}

}  // namespace

InferenceServer::InferenceServer(int party, net::Endpoint endpoint,
                                 ServerOptions options)
    : party_(party), endpoint_(endpoint), options_(std::move(options)) {}

bool InferenceServer::run(core::SecureModel& model,
                          core::SecureExecContext& ctx,
                          std::size_t input_features) {
  for (std::uint64_t index = 0;; ++index) {
    // Poll for the next manifest, spending idle gaps on triple-store
    // refills (the serving variant of the offline phase): with a
    // pipeline attached, the wait between batches becomes productive
    // preprocessing time instead of a blocking recv.
    Bytes manifest_bytes;
    const auto manifest_deadline =
        std::chrono::steady_clock::now() + kManifestTimeout;
    while (!endpoint_.try_recv(core::kModelOwner, manifest_tag(index),
                               manifest_bytes)) {
      if (std::chrono::steady_clock::now() > manifest_deadline) {
        throw TimeoutError("serve: no manifest " + std::to_string(index));
      }
      const std::size_t refilled =
          pipeline_ != nullptr ? pipeline_->refill_once() : 0;
      if (refilled == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const BatchManifest manifest = decode_manifest(manifest_bytes);
    if (manifest.shutdown) {
      return true;
    }
    TRUSTDDL_REQUIRE(!manifest.entries.empty(), "serve: empty manifest");

    // Correlation scope first (so it outlives the span's destructor):
    // every protocol span this thread emits while executing the batch
    // carries the sequencer-minted id, joining the three parties' work
    // to the owner's dispatch record.
    const obs::CorrelationScope corr(
        "batch:" + std::to_string(manifest.trace_id));
    obs::trace_instant("serve.manifest", party_, index,
                       "\"trace_id\": " + std::to_string(manifest.trace_id) +
                           ", \"entries\": " +
                           std::to_string(manifest.entries.size()));
    obs::HealthState::global().note_progress("serve.last_batch", index);
    obs::ScopedSpan span("serve.batch", party_, index);
    std::vector<mpc::PartyShare> inputs;
    inputs.reserve(manifest.entries.size());
    for (const auto& entry : manifest.entries) {
      const Shape expected{entry.rows, input_features};
      mpc::PartyShare share = mpc::zero_share(expected);
      try {
        share = decode_share(endpoint_.recv(entry.client,
                                            input_tag(entry.seq),
                                            options_.serve.input_wait));
        TRUSTDDL_REQUIRE(share.shape() == expected,
                         "serve: input share shape mismatch");
      } catch (const Error& error) {
        // Missing or malformed input: stay in lockstep with a zero
        // share; the client's robust 2-of-3 reconstruction covers the
        // gap at this party.
        share = mpc::zero_share(expected);
        obs::count("serve.party.input_substituted");
        TRUSTDDL_LOG_WARN(kLog)
            << "party " << party_ << " batch " << index
            << ": substituting zero input for client " << entry.client
            << " seq " << entry.seq << " (" << error.what() << ")";
      }
      inputs.push_back(std::move(share));
    }

    const mpc::PartyShare probabilities =
        model.forward(ctx, concat_rows(inputs));

    std::size_t offset = 0;
    for (const auto& entry : manifest.entries) {
      mpc::PartyShare result =
          slice_rows(probabilities, offset, entry.rows);
      offset += entry.rows;
      if (options_.corrupt_results) {
        result = corrupted(result);
      }
      endpoint_.send(entry.client, result_tag(entry.seq),
                     encode_share(result));
    }
    ++batches_;
    obs::count("serve.party.batches");
    if (pipeline_ != nullptr && spec_ != nullptr) {
      // Adaptive steady-state planning: the first manifest of a given
      // row count pays the on-demand miss cost; raising the targets to
      // two steps' worth lets later same-size batches pop prefetched
      // entries filled during the idle poll above.
      std::size_t total_rows = 0;
      for (const auto& entry : manifest.entries) {
        total_rows += entry.rows;
      }
      pipeline_->plan_step(*spec_, total_rows, 2);
    }

    if (options_.max_batches != 0 && batches_ >= options_.max_batches) {
      TRUSTDDL_LOG_WARN(kLog) << "party " << party_
                              << " crashing after batch " << index
                              << " (fault injection)";
      return false;
    }
  }
}

mpc::DetectionLog serve_computing_party_body(
    const nn::ModelSpec& spec, const core::EngineConfig& config,
    std::size_t param_count, int party, net::Endpoint endpoint,
    const ServerOptions& options, std::size_t* batches_out,
    mpc::AdversaryHooks* adversary) {
  core::OwnerLink link(endpoint, party, options.owner_link_timeout);
  core::SecureModel model(spec,
                          core::receive_parameters(endpoint, param_count));

  mpc::PartyContext pctx =
      core::make_party_context(config, party, endpoint, adversary);
  core::SecureExecContext sctx = core::make_exec_context(config, pctx, link);

  // Serving uses the idle-poll refill inside InferenceServer::run
  // rather than a producer thread: the gaps between manifests are the
  // natural offline phase, and a restarted party restores whatever the
  // previous incarnation persisted.
  core::TriplePipeline pipeline(config, link, party, /*training=*/false);
  InferenceServer server(party, endpoint, options);
  if (pipeline.active()) {
    sctx.triples = &pipeline.source();
    server.set_pipeline(&pipeline, &spec);
  }
  const bool clean = server.run(model, sctx, spec.input_features);
  if (batches_out != nullptr) {
    *batches_out = server.batches_executed();
  }
  pipeline.shutdown();  // persist the store before the link closes
  if (clean) {
    link.stop();
  }
  return pctx.detections;
}

void serve_model_owner_body(const nn::ModelSpec& spec,
                            const core::EngineConfig& config,
                            nn::Sequential& model, net::Endpoint endpoint,
                            const ServeConfig& serve_config, int num_clients,
                            SchedulerStats* stats_out) {
  // Same parameter-sharing seed derivation as one-shot inference, so a
  // serving deployment distributes bit-identical parameter shares.
  Rng rng(config.seed * 59 + 29);
  core::share_parameters(model, endpoint, config.frac_bits, rng);

  core::ModelOwnerService service(
      endpoint, core::make_owner_service_config(config, /*training=*/false));
  std::future<void> service_done =
      std::async(std::launch::async, [&] { service.run(); });

  BatchScheduler scheduler(endpoint, serve_config, num_clients);
  try {
    scheduler.run();
  } catch (...) {
    service.request_stop();
    service_done.wait();
    throw;
  }
  if (serve_config.max_batches != 0) {
    // Chaos crash: the whole owner process vanishes — do not wait for
    // party stops that crashed parties will never send.
    service.request_stop();
  }
  service_done.wait();
  if (stats_out != nullptr) {
    *stats_out = scheduler.stats();
  }
  service_done.get();  // rethrows the service's failure, if any
}

}  // namespace trustddl::serve
