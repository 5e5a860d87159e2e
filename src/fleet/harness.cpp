#include "fleet/harness.hpp"

#include <memory>
#include <mutex>

#include "common/stopwatch.hpp"
#include "core/session.hpp"
#include "mpc/adversary.hpp"
#include "net/network.hpp"
#include "serve/wire.hpp"

namespace trustddl::fleet {
namespace {

/// In-memory pod attachment: the endpoint handle is all there is to
/// keep alive, so the session just wraps the InferenceClient.
class MemoryPodSession final : public PodSession {
 public:
  MemoryPodSession(net::Endpoint endpoint, serve::ClientOptions options)
      : client_(endpoint, options) {}
  serve::InferenceClient& client() override { return client_; }

 private:
  serve::InferenceClient client_;
};

}  // namespace

FleetSessionResult run_fleet_session(
    const FleetSessionConfig& config,
    const std::function<void(int, FleetClient&)>& client_body) {
  TRUSTDDL_REQUIRE(config.num_pods >= 1, "fleet: need at least one pod");
  TRUSTDDL_REQUIRE(config.num_clients >= 1,
                   "fleet: session needs at least one client");
  TRUSTDDL_REQUIRE(config.pod_names.empty() ||
                       config.pod_names.size() ==
                           static_cast<std::size_t>(config.num_pods),
                   "fleet: pod_names must match num_pods");
  kernels::set_global_config(config.engine.kernels);
  const auto pods = static_cast<std::size_t>(config.num_pods);
  std::vector<std::string> pod_names = config.pod_names;
  if (pod_names.empty()) {
    for (std::size_t p = 0; p < pods; ++p) {
      pod_names.push_back("pod" + std::to_string(p));
    }
  }

  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors + config.num_clients;
  net_config.recv_timeout = config.engine.recv_timeout;
  net_config.emulate_latency = config.engine.emulate_latency;
  net_config.link_latency = config.engine.link_latency;
  std::vector<std::unique_ptr<net::Network>> networks;
  // Every pod builds the identical model from the shared engine seed —
  // the fleet invariant that makes failover label-exact.
  std::vector<nn::Sequential> models;
  for (std::size_t p = 0; p < pods; ++p) {
    networks.push_back(std::make_unique<net::Network>(net_config));
    models.push_back(core::reference_model(config.spec, config.engine));
  }
  const std::size_t param_count = models.front().parameters().size();

  FleetSessionResult result;
  result.scheduler.resize(pods);
  result.party_batches.resize(pods);
  result.party_logs.resize(pods);
  result.served_by_pod.assign(pods, 0);

  // Each pod's configured Byzantine party gets its own protocol
  // adversary and, as in core::Session, a tolerated role.
  std::vector<std::unique_ptr<mpc::StandardAdversary>> adversaries(pods);
  if (config.engine.byzantine_party >= 0) {
    for (auto& adversary : adversaries) {
      adversary =
          std::make_unique<mpc::StandardAdversary>(config.engine.byzantine);
    }
  }

  // Actors of the crash pod are tolerated: cutting a pod's owner off
  // mid-batch strands its parties exactly like SIGKILL would, so their
  // timeouts are the simulated crash, not session failures.
  std::vector<core::Role> roles;
  for (std::size_t p = 0; p < pods; ++p) {
    const bool crashing = static_cast<int>(p) == config.crash_pod;
    roles.push_back({core::kModelOwner, [&, p, crashing] {
      serve::ServeConfig serve_config = config.serve;
      if (crashing) {
        serve_config.max_batches = config.crash_pod_after_batches;
      }
      serve::serve_model_owner_body(
          config.spec, config.engine, models[p],
          networks[p]->endpoint(core::kModelOwner), serve_config,
          config.num_clients, &result.scheduler[p]);
    }, !crashing});
    for (int party = 0; party < core::kComputingParties; ++party) {
      roles.push_back({party, [&, p, party, crashing] {
        serve::ServerOptions options;
        options.serve = config.serve;
        if (crashing) {
          options.max_batches = config.crash_pod_after_batches;
          // A party stranded mid-batch by its killed owner is part of
          // the simulated crash — let it bleed out fast, not after the
          // generous multi-process dealer slack.
          options.owner_link_timeout = std::chrono::milliseconds(1500);
        }
        result.party_logs[p][static_cast<std::size_t>(party)] =
            serve::serve_computing_party_body(
                config.spec, config.engine, param_count, party,
                networks[p]->endpoint(party), options,
                &result.party_batches[p][static_cast<std::size_t>(party)],
                adversaries[p].get());
      }, !crashing && party != config.engine.byzantine_party});
    }
  }

  std::mutex result_mu;
  for (int index = 0; index < config.num_clients; ++index) {
    const net::PartyId client_id = serve::kFirstClientId + index;
    roles.push_back({client_id, [&, index, client_id] {
      const serve::ClientOptions options =
          serve::client_options(config.client, config.engine, index);
      FleetClientOptions fleet_options;
      fleet_options.client = options;
      fleet_options.router = config.router;
      fleet_options.max_pod_attempts = config.max_pod_attempts;
      FleetClient client(
          client_id, pod_names,
          [&, options](std::size_t pod, bool for_stop) {
            (void)for_stop;  // in-memory attach cannot block
            return std::make_unique<MemoryPodSession>(
                networks[pod]->endpoint(client_id), options);
          },
          fleet_options);
      client_body(index, client);
      client.stop();
      const auto served = client.served_by_pod();
      const std::lock_guard<std::mutex> lock(result_mu);
      for (std::size_t p = 0; p < pods; ++p) {
        result.served_by_pod[p] += served[p];
      }
      result.failovers += client.total_failovers();
    }});
  }

  Stopwatch stopwatch;
  core::run_roles(roles);
  result.wall_seconds = stopwatch.elapsed_seconds();
  return result;
}

}  // namespace trustddl::fleet
