#include "serve/server.hpp"

#include <algorithm>
#include <future>
#include <string>
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
                                 ServerOptions options,
                                 const nn::ModelSpec& spec)
    : party_(party),
      endpoint_(endpoint),
      options_(std::move(options)),
      spec_(spec) {}

bool InferenceServer::run(core::SecureModel& model,
                          core::SecureExecContext& ctx) {
  for (std::uint64_t index = 0;; ++index) {
    // Poll for the next manifest; nothing is planned past the batches
    // already dispatched, so the gap has nothing to deal.
    Bytes manifest_bytes;
    const auto manifest_deadline =
        std::chrono::steady_clock::now() + kManifestTimeout;
    while (!endpoint_.try_recv(core::kModelOwner, manifest_tag(index),
                               manifest_bytes)) {
      if (std::chrono::steady_clock::now() > manifest_deadline) {
        throw TimeoutError("serve: no manifest " + std::to_string(index));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const BatchManifest manifest = decode_manifest(manifest_bytes);
    if (manifest.shutdown) {
      return true;
    }
    TRUSTDDL_REQUIRE(!manifest.entries.empty(), "serve: empty manifest");
    // Plan the batch's forward pass before awaiting its inputs, so the
    // dealer deals while the clients' shares arrive and the layers run.
    // Nothing is dealt for a batch that was not dispatched.
    std::size_t total_rows = 0;
    for (const auto& entry : manifest.entries) {
      total_rows += entry.rows;
    }
    ctx.triples->plan(model.step_keys(
        ctx, Shape{total_rows, spec_.input_features}, model.weight_version(),
        /*draw_masks=*/batches_ == 0, /*training=*/false));

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
      const Shape expected{entry.rows, spec_.input_features};
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
  // InferenceServer::run plans each dispatched batch; a restarted party
  // restores whatever the previous incarnation persisted.
  mpc::TripleStore store(
      link, party,
      core::triple_store_file(config, party, /*training=*/false));
  core::SecureExecContext sctx =
      core::make_exec_context(config, pctx, link, store);
  InferenceServer server(party, endpoint, options, spec);
  const bool clean = server.run(model, sctx);
  if (batches_out != nullptr) {
    *batches_out = server.batches_executed();
  }
  store.persist();  // before the link closes
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
  // The parties build SecureModel(spec, …) from these shares and wait
  // for exactly one per spec parameter: a model of another shape would
  // leave them blocked until their actor timeout.
  const std::vector<Shape> expected = nn::parameter_shapes(spec);
  const std::vector<nn::Parameter*> parameters = model.parameters();
  for (std::size_t i = 0; i < std::min(expected.size(), parameters.size());
       ++i) {
    const Shape& actual = parameters[i]->value.shape();
    if (actual != expected[i]) {
      throw InvalidArgument("serve: parameter " + std::to_string(i) +
                            " of the model is " + shape_to_string(actual) +
                            ", spec '" + spec.name + "' expects " +
                            shape_to_string(expected[i]));
    }
  }
  if (parameters.size() != expected.size()) {
    throw InvalidArgument("serve: the model has " +
                          std::to_string(parameters.size()) +
                          " parameters, spec '" + spec.name + "' expects " +
                          std::to_string(expected.size()));
  }
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
