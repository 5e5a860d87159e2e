// trustddl_client: drive secure inference requests against a serving
// deployment started with `trustddl_party --task serve`.
//
// The client is actor id >= 5 on the same TCP mesh as the parties: it
// secret-shares each query locally (no party ever sees the plaintext),
// sends one share triple to each computing party, notifies the model
// owner for admission into the dynamic batcher, then reconstructs the
// class probabilities from any two of the three parties' result
// shares, out-voting a Byzantine party via robust reconstruction.
//
// Four-process smoke on localhost (3 parties + owner in 3 processes,
// then this client in the foreground):
//
//   ./build/examples/trustddl_party --task serve --party-ids 1 &
//   ./build/examples/trustddl_party --task serve --party-ids 2 &
//   ./build/examples/trustddl_party --task serve --party-ids 0,4 &
//   ./build/examples/trustddl_client --requests 16 --check
//
// Flags:
//   --client-id N        this client's actor id [5]; clients occupy
//                        ids 5..5+clients-1
//   --clients N          total clients in the deployment [1] (must
//                        match the parties' --clients)
//   --port-base N        actor i listens on 127.0.0.1:(N+i)  [29500]
//   --peers LIST         explicit mesh: id=host:port,...; must cover
//                        ids 0,1,2,4 and this client's own id
//   --listen HOST        bind host for the client id [from the mesh]
//   --requests N         inference requests to issue [16]
//   --concurrency N      submitter threads sharing this client [4]
//   --rows N             input rows per request [1]
//   --model mlp|cnn|tiny-cnn   architecture [mlp] (must match parties)
//   --mode malicious|hbc       security mode [malicious] (ditto)
//   --seed N             model/protocol seed [1] (ditto)
//   --data-seed N        synthetic query-set seed [7]
//   --deadline-ms N      owner-enforced queue deadline [2000]
//   --response-timeout-ms N    client-side wait for result shares
//                        [10000]
//   --check              re-run the same queries on the in-memory
//                        engine (same seeds) and compare predicted
//                        labels; exits 2 on mismatch
//   --fleet PATH         routed fleet mode: read the pod map from a
//                        trustddl.fleet.v1 topology file (see
//                        src/fleet/topology.hpp), hash --client-id to
//                        a home pod, and fail over to the next pod in
//                        preference order when a pod dies mid-request
//                        (label-exact — every pod loads the same model
//                        seed).  Pods are health-probed via admin
//                        /healthz before shares move.  Incompatible
//                        with --peers; --port-base is ignored
//   --request-gap-ms N   pause between a worker thread's consecutive
//                        requests [0] (spreads a workload out so chaos
//                        drills can kill a pod mid-traffic)
//   --connect-timeout-ms N     mesh rendezvous budget [10000]
//   --trace-out FILE     write a JSONL span trace of every request
//                        (serve.submit/serve.result instants plus one
//                        serve.request span per request, all carrying
//                        the req:<client>:<seq> correlation id).
//                        scripts/merge_traces.py joins this file with
//                        the parties' --trace-out files into
//                        per-request causal timelines.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "fleet/client.hpp"
#include "fleet/topology.hpp"
#include "obs/admin_server.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"

using namespace trustddl;

namespace {

struct Options {
  int client_id = serve::kFirstClientId;
  fleet::FleetTopology topology;  // loaded when --fleet was given
  int clients = 1;
  int port_base = 29500;
  std::string peers_text;
  std::string listen_host;
  std::size_t requests = 16;
  int concurrency = 4;
  std::size_t rows = 1;
  std::string model = "mlp";
  std::string mode = "malicious";
  std::uint64_t seed = 1;
  std::uint64_t data_seed = 7;
  int deadline_ms = 2000;
  int response_timeout_ms = 10000;
  bool check = false;
  int connect_timeout_ms = 10000;
  std::string trace_out;
  std::string fleet_file;
  int request_gap_ms = 0;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool clients_given = false;
  cli::Flags("trustddl_client")
      .value("--client-id", opt.client_id)
      .custom("--clients",
              [&](const std::string& text) {
                cli::parse_value("--clients", text, opt.clients);
                clients_given = true;
              })
      .value("--port-base", opt.port_base)
      .value("--peers", opt.peers_text)
      .value("--listen", opt.listen_host)
      .value("--requests", opt.requests)
      .value("--concurrency", opt.concurrency)
      .value("--rows", opt.rows)
      .value("--model", opt.model)
      .value("--mode", opt.mode)
      .value("--seed", opt.seed)
      .value("--data-seed", opt.data_seed)
      .value("--deadline-ms", opt.deadline_ms)
      .value("--response-timeout-ms", opt.response_timeout_ms)
      .set("--check", opt.check)
      .value("--connect-timeout-ms", opt.connect_timeout_ms)
      .value("--trace-out", opt.trace_out)
      .value("--fleet", opt.fleet_file)
      .value("--request-gap-ms", opt.request_gap_ms)
      .parse(argc, argv);
  if (!opt.fleet_file.empty() && !opt.peers_text.empty()) {
    cli::usage_error("--fleet and --peers are mutually exclusive (the "
                     "topology file is the pod address map)");
  }
  if (opt.request_gap_ms < 0) {
    cli::usage_error("--request-gap-ms must be >= 0");
  }
  // Fleet mode resolves the client count from the shared topology file
  // (unless --clients overrides), so routed clients and pods agree on
  // the actor space without repeating it on every command line.
  if (!opt.fleet_file.empty()) {
    try {
      opt.topology = fleet::load_topology(opt.fleet_file);
    } catch (const Error& error) {
      cli::usage_error(error.what());
    }
    if (opt.topology.clients > 0 && !clients_given) {
      opt.clients = opt.topology.clients;
    }
  }
  if (opt.clients < 1) {
    cli::usage_error("--clients must be >= 1");
  }
  if (opt.client_id < serve::kFirstClientId ||
      opt.client_id >= serve::kFirstClientId + opt.clients) {
    cli::usage_error("--client-id must be in [5, 5 + clients)");
  }
  if (opt.requests < 1 || opt.rows < 1 || opt.concurrency < 1) {
    cli::usage_error("--requests/--rows/--concurrency must be >= 1");
  }
  if (opt.mode != "malicious" && opt.mode != "hbc") {
    cli::usage_error("--mode must be malicious or hbc");
  }
  return opt;
}

/// Issues every request from `concurrency` threads sharing one client:
/// workers pull request indices from a counter and pause
/// --request-gap-ms between their own consecutive requests.
void submit_all(const Options& opt,
                const std::function<void(std::size_t)>& request) {
  std::atomic<std::size_t> next_request{0};
  std::vector<std::thread> workers;
  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(opt.concurrency), opt.requests);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t r = next_request++, made = 0; r < opt.requests;
           r = next_request++, ++made) {
        if (made > 0 && opt.request_gap_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(opt.request_gap_ms));
        }
        request(r);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
}

std::size_t completed(const std::vector<serve::InferenceResult>& results) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), [](const auto& result) {
        return result.status == serve::Status::kOk;
      }));
}

/// Owns the per-pod transport behind a routed session: a fresh
/// ephemeral local port dialing the pod's parties and model owner.
class TcpPodSession final : public fleet::PodSession {
 public:
  TcpPodSession(std::unique_ptr<net::TcpTransport> transport, int client_id,
                const serve::ClientOptions& options)
      : transport_(std::move(transport)),
        client_(transport_->endpoint(static_cast<net::PartyId>(client_id)),
                options) {}
  ~TcpPodSession() override { transport_->shutdown(); }
  serve::InferenceClient& client() override { return client_; }

 private:
  std::unique_ptr<net::TcpTransport> transport_;
  serve::InferenceClient client_;
};

// Direct mode: this client is one actor of the pod's subset mesh.
std::vector<serve::InferenceResult> run_direct(
    const Options& opt, const core::EngineConfig& config,
    const serve::ClientOptions& client_options, const data::Dataset& queries) {
  const core::TcpMesh mesh = cli::service_mesh(
      opt.client_id, core::kNumActors + opt.clients, opt.peers_text,
      opt.port_base, opt.listen_host, opt.connect_timeout_ms);
  std::printf("[client %d] listening on %s\n", opt.client_id,
              core::bind_address(
                  mesh.addresses[static_cast<std::size_t>(opt.client_id)],
                  opt.listen_host)
                  .c_str());
  core::Session session(config, mesh);
  std::printf("[client %d] connected to parties and model owner\n",
              opt.client_id);
  serve::InferenceClient client(session.endpoint(opt.client_id),
                                client_options);

  // Request r carries test rows [r*rows, (r+1)*rows).
  std::vector<serve::InferenceResult> results(opt.requests);
  submit_all(opt, [&](std::size_t r) {
    results[r] =
        client.infer(data::slice(queries, r * opt.rows, opt.rows).images);
  });
  client.stop();
  session.finish();

  std::vector<std::size_t> labels;
  std::size_t anomalies = 0;
  for (const auto& result : results) {
    labels.insert(labels.end(), result.labels.begin(), result.labels.end());
    anomalies += result.anomaly ? 1 : 0;
  }
  std::printf("[client %d] completed %zu/%zu requests (%zu with a flagged "
              "share set)\n",
              opt.client_id, completed(results), opt.requests, anomalies);
  cli::print_labels("[client " + std::to_string(opt.client_id) + "]",
                    labels);
  session.close();
  return results;
}

// --fleet: routed mode.  One FleetClient spans every pod in the
// topology; pods are attached lazily (each gets its own transport so
// actor ids never collide across pods), probed via admin /healthz
// before shares move, and failed over when they die mid-request.
std::vector<serve::InferenceResult> run_fleet(
    const Options& opt, const serve::ClientOptions& client_options,
    const data::Dataset& queries) {
  const fleet::FleetTopology& topology = opt.topology;
  core::arm_telemetry("", opt.trace_out);

  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors + opt.clients;
  net_config.connect.connect_timeout =
      std::chrono::milliseconds(opt.connect_timeout_ms);
  const std::string bind_host =
      opt.listen_host.empty() ? "127.0.0.1" : opt.listen_host;

  // Dial a fresh ephemeral-port transport into the pod's subset mesh
  // on first use; the pod's dynamic acceptor admits (and re-admits) us
  // at any point in its lifetime.  The stop broadcast gets a short
  // budget — a dead pod must not stall shutdown for the full
  // rendezvous timeout.
  const auto connector = [&](std::size_t pod, bool for_stop)
      -> std::unique_ptr<fleet::PodSession> {
    const fleet::PodSpec& pod_spec = topology.pods[pod];
    net::NetworkConfig pod_config = net_config;
    if (for_stop) {
      pod_config.connect.connect_timeout =
          std::chrono::milliseconds(std::min(opt.connect_timeout_ms, 1500));
    }
    auto transport = std::make_unique<net::TcpTransport>(
        static_cast<net::PartyId>(opt.client_id), bind_host + ":0",
        pod_config);
    std::vector<std::string> addresses(
        static_cast<std::size_t>(net_config.num_parties));
    for (const net::PartyId id : cli::kServicePeers) {
      addresses[static_cast<std::size_t>(id)] =
          pod_spec.address_of(static_cast<int>(id));
    }
    transport->connect(addresses, cli::kServicePeers);
    return std::make_unique<TcpPodSession>(std::move(transport),
                                           opt.client_id, client_options);
  };

  // Out-of-band liveness: the pod's owner-hosting admin endpoint (the
  // first admin_ports entry by convention) answers /healthz.  Pods
  // without admin ports skip the probe and fail on connect instead.
  const auto probe = [&](std::size_t pod) {
    const fleet::PodSpec& pod_spec = topology.pods[pod];
    if (pod_spec.admin_ports.empty()) {
      return true;
    }
    const obs::HttpResponse response = obs::http_get(
        pod_spec.host, pod_spec.admin_ports.front(), "/healthz", 750);
    return response.status == 200;
  };

  fleet::FleetClientOptions fleet_options;
  fleet_options.client = client_options;
  fleet::FleetClient client(static_cast<std::uint64_t>(opt.client_id),
                            topology.pod_names(), connector, fleet_options,
                            probe);
  std::printf("[client %d] fleet of %zu pods; home pod %s\n", opt.client_id,
              client.num_pods(),
              topology.pods[client.home_pod()].name.c_str());

  std::vector<serve::InferenceResult> results(opt.requests);
  submit_all(opt, [&](std::size_t r) {
    results[r] =
        client.infer(data::slice(queries, r * opt.rows, opt.rows).images)
            .result;
  });
  client.stop();
  if (!opt.trace_out.empty()) {
    obs::Tracer::global().close();
  }

  const std::vector<std::size_t> served = client.served_by_pod();
  std::string spread;
  for (std::size_t p = 0; p < served.size(); ++p) {
    if (!spread.empty()) {
      spread += " ";
    }
    spread += topology.pods[p].name + "=" + std::to_string(served[p]);
  }
  std::printf("[client %d] completed %zu/%zu requests (%s; %zu "
              "failover%s)\n",
              opt.client_id, completed(results), opt.requests,
              spread.c_str(), client.total_failovers(),
              client.total_failovers() == 1 ? "" : "s");
  // Let the stop notices drain before the pod sessions (and their
  // sockets) are torn down with the FleetClient.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  // Same derivations as trustddl_party / the in-memory engine, so the
  // parties evaluate exactly the model --check compares against.
  core::EngineConfig config =
      cli::engine_config("serve", opt.mode, opt.seed);
  config.trace_out = opt.trace_out;
  const nn::ModelSpec spec = cli::spec_for(opt.model);
  const data::Dataset queries =
      cli::load_split(spec, 1, opt.requests * opt.rows, opt.data_seed).test;

  serve::ClientOptions base;
  base.seed = opt.seed;
  base.deadline = std::chrono::milliseconds(opt.deadline_ms);
  base.response_timeout = std::chrono::milliseconds(opt.response_timeout_ms);
  const serve::ClientOptions client_options = serve::client_options(
      base, config, opt.client_id - serve::kFirstClientId);

  try {
    const bool routed = !opt.fleet_file.empty();
    const std::vector<serve::InferenceResult> results =
        routed ? run_fleet(opt, client_options, queries)
               : run_direct(opt, config, client_options, queries);
    if (!opt.check) {
      return 0;
    }
    if (completed(results) != opt.requests) {
      std::printf("serve check: MISMATCH (%zu/%zu requests completed)\n",
                  completed(results), opt.requests);
      return 2;
    }
    // Reference: the in-memory engine over the same query set with the
    // same seeds.  Whichever pod served a request, its labels must
    // match the engine's row for row.
    const std::vector<std::size_t> expected = cli::reference_labels(
        spec, config, queries, std::max<std::size_t>(opt.rows, 4));
    bool match = true;
    for (std::size_t r = 0; r < opt.requests; ++r) {
      match = match && std::equal(results[r].labels.begin(),
                                  results[r].labels.end(),
                                  expected.begin() + r * opt.rows);
    }
    return cli::verdict("serve check", match,
                        routed ? "in-memory engine, same seeds, routed "
                                 "across pods"
                               : "in-memory engine, same seeds");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_client: %s\n", error.what());
    return 1;
  }
}
