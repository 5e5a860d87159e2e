// trustddl_party: run one (or several) of TrustDDL's five actors as
// an OS process, communicating with its peers over real TCP sockets.
//
// Every process derives the model, the synthetic dataset and the batch
// schedule deterministically from --seed/--data-seed, so a multi-
// process deployment reconstructs exactly the outputs of the
// in-process engine, bit for bit.  The data owner can assert this with
// --check, which re-runs the same workload on the in-memory engine and
// compares results.
//
// Three-process secure inference on localhost:
//
//   ./build/examples/trustddl_party --party-ids 1 &
//   ./build/examples/trustddl_party --party-ids 2 &
//   ./build/examples/trustddl_party --party-ids 0,3,4 --check
//
// Flags:
//   --party-ids LIST     comma-separated actor ids hosted by this
//                        process (0-2 computing parties, 3 data owner,
//                        4 model owner); --party-id is an alias
//   --port-base N        party i listens on 127.0.0.1:(N+i)  [29500]
//   --peers LIST         explicit mesh: id=host:port,... for all 5 ids
//                        (overrides --port-base)
//   --listen HOST        bind host for hosted ids [host from the mesh]
//   --task infer|train|malicious-inference|serve   workload [infer];
//                        malicious-inference runs infer with computing
//                        party 1 mounting consistent-corruption attacks
//                        (Case 3) against every opening; serve runs the
//                        inference serving layer (parties 0-2 + model
//                        owner 4; clients attach via trustddl_client);
//                        train-serve runs the multi-owner robust
//                        training service (parties 0-2 + model owner 4
//                        as sequencer; data owners attach via
//                        trustddl_owner)
//   --clients N          serve: number of client actors [1]; clients
//                        occupy ids 5..5+N-1 and the data owner id 3
//                        is unused
//   --serve-max-batch N  serve: dispatch a batch at this many rows;
//                        fewer rows leave once the parties are idle
//                        [8]
//   --serve-queue-cap N  serve: bounded-queue capacity; requests
//                        beyond it are rejected (backpressure) [64]
//   --serve-corrupt-results    serve: hosted computing parties return
//                        corrupted result shares (Byzantine serving-
//                        edge fault injection; clients must out-vote)
//   --owners N           train-serve: data-owner clients [3]; owners
//                        occupy ids 5..5+N-1 (data owner id 3 unused)
//   --aggregation R      train-serve: mean, trimmed-mean or median
//                        [trimmed-mean]
//   --trim N             train-serve: owners trimmed per side [1]
//   --quorum N           train-serve: min ready owners per round;
//                        0 = all owners (deterministic manifests) [0]
//   --rounds-per-epoch N train-serve: SGD rounds per epoch [4]
//   --max-rounds N       train-serve: suspend (checkpoint + exit)
//                        after N rounds; 0 = run to completion [0]
//   --round-window-ms N  train-serve: sequencer wait for more owners
//                        once quorum is met [50]
//   --input-wait-ms N    train-serve: party wait per owner minibatch
//                        before zero-share substitution [2000]
//   --momentum F         train-serve: SGD momentum [0]
//   --checkpoint-dir P   train-serve: TDCK checkpoint directory
//                        (parties + sequencer) for suspend/resume
//   --min-accuracy F     train-serve: exit 3 when the final epoch's
//                        test accuracy is below F
//   --submissions N      train-serve --check: per-owner lifetime
//                        submissions the owners were launched with [4]
//   --owner-batch-rows N train-serve --check: owners' minibatch rows
//                        per submission [8]
//   --metrics-out PATH   write the observability export (JSON, schema
//                        trustddl.metrics.v1: metrics registry,
//                        detection events, traffic matrix, cost) after
//                        the run; enables metrics collection
//   --trace-out PATH     write a protocol-phase trace (JSONL spans)
//   --fleet PATH         serve: read the pod's addresses from a fleet
//                        topology file (trustddl.fleet.v1 JSON; see
//                        src/fleet/topology.hpp and DESIGN.md §13);
//                        requires --pod and implies the pod accepts
//                        routed clients dynamically (clients may come
//                        and go; sends to departed clients are dropped
//                        rather than fatal)
//   --pod NAME           serve: which pod of the --fleet topology this
//                        process belongs to; also labels this pod's
//                        serve.* metrics, /healthz and trace meta
//   --admin-port N       live introspection endpoint on 127.0.0.1:N
//                        (0 picks an ephemeral port, printed at
//                        startup): GET /healthz, /metrics[?format=
//                        prometheus|pair], /events?n=K, /status — see
//                        DESIGN.md §12 and scripts/fleet_status.py
//   --triple-store-dir PATH    persist/restore the parties' triple
//                        stores (DESIGN.md §10) under this directory
//                        (per party and per mode; survives process
//                        restarts)
//   --mnist-dir PATH     load the real MNIST idx files from this
//                        directory (train/t10k images + labels);
//                        falls back to the synthetic substitute when
//                        absent or incomplete
//   --model mlp|cnn|tiny-cnn   architecture [mlp]
//   --images N           inference queries / test rows [12]
//   --rows N             training rows [64]
//   --batch N            batch size [4]
//   --epochs N           training epochs [1]
//   --lr F               learning rate [0.3]
//   --mode malicious|hbc security mode [malicious]
//   --seed N             model/protocol seed [1]
//   --data-seed N        synthetic-dataset seed [7]
//   --check              verify against an in-memory run (data owner
//                        for infer, model owner for train); exits 2 on
//                        mismatch
//   --connect-timeout-ms N     mesh rendezvous budget [10000]
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/actors.hpp"
#include "fleet/topology.hpp"
#include "obs/health.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "train/harness.hpp"

using namespace trustddl;

namespace {

struct Options {
  std::vector<int> party_ids;
  std::string listen_host;  // empty: use the host from the mesh entry
  int port_base = 29500;
  std::string peers_text;              // raw --peers value
  std::vector<std::string> addresses;  // [actor id] -> host:port
  std::string task = "infer";
  int clients = 1;
  std::size_t serve_max_batch = 8;
  std::size_t serve_queue_cap = 64;
  bool serve_corrupt_results = false;
  int owners = 3;
  std::string aggregation = "trimmed-mean";
  std::size_t trim = 1;
  std::size_t quorum = 0;  // 0: all owners (deterministic manifests)
  std::size_t rounds_per_epoch = 4;
  std::size_t max_rounds = 0;
  int round_window_ms = 50;
  int input_wait_ms = 2000;
  double momentum = 0.0;
  std::string checkpoint_dir;
  double min_accuracy = -1.0;
  std::size_t submissions = 4;
  std::size_t owner_batch_rows = 8;
  std::string model = "mlp";
  std::size_t images = 12;
  std::size_t rows = 64;
  std::size_t batch = 4;
  std::size_t epochs = 1;
  double learning_rate = 0.3;
  std::string mode = "malicious";
  std::uint64_t seed = 1;
  std::uint64_t data_seed = 7;
  bool check = false;
  int connect_timeout_ms = 10000;
  std::string metrics_out;
  std::string trace_out;
  std::string fleet_file;  // --fleet topology path (serve only)
  std::string pod_name;    // --pod: this process's pod in the fleet
  bool fleet = false;      // fleet mode resolved (pod below is valid)
  fleet::PodSpec pod;
  int admin_port = -1;  // -1 = no admin endpoint; 0 = ephemeral
  std::string triple_store_dir;
  std::string mnist_dir;
};

std::vector<int> parse_id_list(const std::string& text) {
  std::vector<int> ids;
  for (const std::string& item : cli::split_list(text)) {
    if (item.empty()) {
      cli::usage_error("empty entry in id list '" + text + "'");
    }
    cli::parse_value("--party-ids", item, ids.emplace_back());
    if (ids.back() < 0 || ids.back() >= core::kNumActors) {
      cli::usage_error("party id out of range: " + item);
    }
  }
  return ids;
}

/// The single source of truth for workload names: validation and the
/// usage string both derive from this table, so adding a task cannot
/// leave the error message stale.
constexpr const char* kTaskNames[] = {"infer", "train", "malicious-inference",
                                      "serve", "train-serve"};

bool known_task(const std::string& task) {
  return std::any_of(std::begin(kTaskNames), std::end(kTaskNames),
                     [&](const char* name) { return task == name; });
}

std::string task_usage() {
  std::string text;
  const std::size_t count = std::size(kTaskNames);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) {
      text += i + 1 == count ? " or " : ", ";
    }
    text += kTaskNames[i];
  }
  return text;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool clients_given = false;
  const auto party_ids = [&](const std::string& text) {
    opt.party_ids = parse_id_list(text);
  };
  cli::Flags("trustddl_party")
      .custom("--party-ids", party_ids)
      .custom("--party-id", party_ids)
      .value("--port-base", opt.port_base)
      .value("--peers", opt.peers_text)
      .custom("--clients",
              [&](const std::string& text) {
                cli::parse_value("--clients", text, opt.clients);
                clients_given = true;
              })
      .value("--serve-max-batch", opt.serve_max_batch)
      .value("--serve-queue-cap", opt.serve_queue_cap)
      .set("--serve-corrupt-results", opt.serve_corrupt_results)
      .value("--owners", opt.owners)
      .value("--aggregation", opt.aggregation)
      .value("--trim", opt.trim)
      .value("--quorum", opt.quorum)
      .value("--rounds-per-epoch", opt.rounds_per_epoch)
      .value("--max-rounds", opt.max_rounds)
      .value("--round-window-ms", opt.round_window_ms)
      .value("--input-wait-ms", opt.input_wait_ms)
      .value("--momentum", opt.momentum)
      .value("--checkpoint-dir", opt.checkpoint_dir)
      .value("--min-accuracy", opt.min_accuracy)
      .value("--submissions", opt.submissions)
      .value("--owner-batch-rows", opt.owner_batch_rows)
      .value("--listen", opt.listen_host)
      .value("--task", opt.task)
      .value("--model", opt.model)
      .value("--images", opt.images)
      .value("--rows", opt.rows)
      .value("--batch", opt.batch)
      .value("--epochs", opt.epochs)
      .value("--lr", opt.learning_rate)
      .value("--mode", opt.mode)
      .value("--seed", opt.seed)
      .value("--data-seed", opt.data_seed)
      .set("--check", opt.check)
      .value("--connect-timeout-ms", opt.connect_timeout_ms)
      .value("--metrics-out", opt.metrics_out)
      .value("--trace-out", opt.trace_out)
      .value("--fleet", opt.fleet_file)
      .value("--pod", opt.pod_name)
      .value("--admin-port", opt.admin_port)
      .value("--triple-store-dir", opt.triple_store_dir)
      .value("--mnist-dir", opt.mnist_dir)
      .parse(argc, argv);
  if (opt.party_ids.empty()) {
    cli::usage_error("--party-ids is required");
  }
  if (!known_task(opt.task)) {
    cli::usage_error("--task must be " + task_usage());
  }
  if (opt.task == "malicious-inference" && opt.mode != "malicious") {
    cli::usage_error("--task malicious-inference requires --mode malicious");
  }
  if (opt.mode != "malicious" && opt.mode != "hbc") {
    cli::usage_error("--mode must be malicious or hbc");
  }
  if (opt.images < 1 || opt.rows < 1 || opt.batch < 1 || opt.epochs < 1) {
    cli::usage_error("--images/--rows/--batch/--epochs must be >= 1");
  }
  const bool serving = opt.task == "serve";
  const bool train_serving = opt.task == "train-serve";
  if (serving) {
    if (opt.clients < 1) {
      cli::usage_error("--clients must be >= 1");
    }
    if (opt.serve_max_batch < 1 || opt.serve_queue_cap < 1) {
      cli::usage_error("--serve-max-batch/--serve-queue-cap must be >= 1");
    }
  }
  if (train_serving) {
    if (opt.owners < 1) {
      cli::usage_error("--owners must be >= 1");
    }
    if (opt.aggregation != "mean" && opt.aggregation != "trimmed-mean" &&
        opt.aggregation != "median") {
      cli::usage_error("--aggregation must be mean, trimmed-mean or median");
    }
    if (opt.quorum > static_cast<std::size_t>(opt.owners)) {
      cli::usage_error("--quorum must be <= --owners");
    }
    if (opt.rounds_per_epoch < 1 || opt.submissions < 1 ||
        opt.owner_batch_rows < 1) {
      cli::usage_error("--rounds-per-epoch/--submissions/--owner-batch-rows "
                       "must be >= 1");
    }
  }
  if ((serving || train_serving) &&
      std::count(opt.party_ids.begin(), opt.party_ids.end(),
                 static_cast<int>(core::kDataOwner)) > 0) {
    cli::usage_error("--task " + opt.task + " has no data-owner actor (id 3)");
  }
  // Fleet mode: one topology file names every pod's addresses; the
  // pod's client count defaults to the file's `clients` so parties and
  // routed clients cannot disagree on the actor space.
  if (!opt.fleet_file.empty() || !opt.pod_name.empty()) {
    if (!serving) {
      cli::usage_error("--fleet/--pod only apply to --task serve");
    }
    if (opt.fleet_file.empty() || opt.pod_name.empty()) {
      cli::usage_error("--fleet and --pod must be given together");
    }
    try {
      const fleet::FleetTopology topology =
          fleet::load_topology(opt.fleet_file);
      opt.pod = topology.pods[topology.pod_index(opt.pod_name)];
      if (topology.clients > 0 && !clients_given) {
        opt.clients = topology.clients;
      }
    } catch (const Error& error) {
      cli::usage_error(error.what());
    }
    opt.fleet = true;
  }
  // Addresses are resolved only once the task is known: serving adds
  // client (or training data-owner) actor ids and drops the single data
  // owner from the required set (the extra slots may also stay empty
  // here — a party process accepts those connections, it never dials
  // them).
  const int num_actors =
      core::kNumActors +
      (serving ? opt.clients : train_serving ? opt.owners : 0);
  opt.addresses =
      cli::mesh_addresses(opt.peers_text, opt.port_base, num_actors);
  if (!opt.peers_text.empty()) {
    std::vector<int> required = {0, 1, 2, core::kModelOwner};
    if (!serving && !train_serving) {
      required.push_back(core::kDataOwner);
    }
    cli::require_addresses(opt.addresses, required);
  } else if (opt.fleet) {
    for (int id = 0; id < num_actors; ++id) {
      opt.addresses[static_cast<std::size_t>(id)] = opt.pod.address_of(id);
    }
  }
  return opt;
}

const char* role_name(int id) {
  switch (id) {
    case core::kDataOwner:
      return "data-owner";
    case core::kModelOwner:
      return "model-owner";
    default:
      return "computing-party";
  }
}

/// "computing-party-0,model-owner-4" — the /healthz role string for a
/// process hosting several actors.
std::string hosted_roles(const std::vector<int>& party_ids) {
  std::string roles;
  for (const int id : party_ids) {
    if (!roles.empty()) {
      roles += ",";
    }
    roles += std::string(role_name(id)) + "-" + std::to_string(id);
  }
  return roles;
}

/// The hosted ids' TCP set-up.  The services run a subset mesh:
/// parties and the model owner interconnect fully and link every
/// client (or data-owner) slot, but never dial those slots.  Fleet pods
/// do not rendezvous with clients at all: routed clients attach (and
/// re-attach after a failover) through the dynamic acceptor, so the pod
/// comes up without waiting for them.
core::TcpMesh mesh_for(const Options& opt) {
  core::TcpMesh mesh;
  mesh.hosted = opt.party_ids;
  mesh.addresses = opt.addresses;
  mesh.listen_host = opt.listen_host;
  mesh.net.num_parties = static_cast<int>(opt.addresses.size());
  mesh.net.connect.connect_timeout =
      std::chrono::milliseconds(opt.connect_timeout_ms);
  const bool serving = opt.task == "serve";
  if (!serving && opt.task != "train-serve") {
    return mesh;  // the engine's five actors: full mesh
  }
  const int linked = opt.fleet ? 0 : serving ? opt.clients : opt.owners;
  mesh.peers = [linked](int id) {
    std::vector<net::PartyId> peers;
    for (int p = 0; p < core::kComputingParties; ++p) {
      if (p != id) {
        peers.push_back(static_cast<net::PartyId>(p));
      }
    }
    if (id != core::kModelOwner) {
      peers.push_back(core::kModelOwner);
    }
    for (int k = 0; k < linked; ++k) {
      peers.push_back(static_cast<net::PartyId>(core::kNumActors + k));
    }
    return peers;
  };
  if (opt.fleet) {
    mesh.dynamic_from = serve::kFirstClientId;
  }
  return mesh;
}

/// This process's share of the deployment: the session over its hosted
/// ids plus the optional live introspection endpoint.
struct Host {
  const Options& opt;
  core::Session& session;
  std::unique_ptr<obs::AdminServer> admin;

  bool hosts(int id) const {
    return std::count(opt.party_ids.begin(), opt.party_ids.end(), id) > 0;
  }

  /// Runs the role table, then reports this process's traffic, writes
  /// the telemetry export and stops the admin endpoint.
  void run(const std::vector<core::Role>& roles) {
    session.run(roles);
    cli::print_traffic(session);
    session.finish();
    if (!opt.metrics_out.empty()) {
      std::printf("metrics export written to %s\n", opt.metrics_out.c_str());
    }
    if (admin) {
      admin->stop();
    }
  }
};

const char* plural(std::size_t count, const char* suffix = "s") {
  return count == 1 ? "" : suffix;
}

// --task infer|train|malicious-inference: any of the engine's five
// actors over a full mesh.
int run_batch(Host& host, const core::EngineConfig& config,
              const nn::ModelSpec& spec, nn::Sequential& model,
              const data::TrainTestSplit& split) {
  const Options& opt = host.opt;
  core::Session& session = host.session;
  std::printf("mesh connected (%zu local actor%s)\n", opt.party_ids.size(),
              plural(opt.party_ids.size()));
  const data::Dataset sample =
      data::slice(split.test, 0, std::min(opt.images, split.test.size()));
  core::TrainOptions train_options;
  train_options.epochs = opt.epochs;
  train_options.batch_size = opt.batch;
  train_options.learning_rate = opt.learning_rate;

  const bool training = opt.task == "train";
  const std::size_t param_count = model.parameters().size();
  std::unique_ptr<core::InferJob> infer_job;
  std::unique_ptr<core::TrainJob> train_job;
  if (training) {
    train_job = std::make_unique<core::TrainJob>(core::make_train_job(
        spec, config, train_options, split.train, param_count));
  } else {
    infer_job = std::make_unique<core::InferJob>(
        core::make_infer_job(spec, config, param_count, sample, opt.batch));
  }
  std::unique_ptr<core::ModelOwnerService> service;
  if (host.hosts(core::kModelOwner)) {
    service = std::make_unique<core::ModelOwnerService>(
        session.endpoint(core::kModelOwner),
        core::make_owner_service_config(config, training));
  }

  std::vector<std::size_t> labels;
  std::vector<core::Role> roles;
  for (const int id : opt.party_ids) {
    if (id == core::kModelOwner) {
      roles.push_back({id, [&, id] {
        if (training) {
          core::train_model_owner_body(*train_job, session.endpoint(id),
                                       model, *service);
        } else {
          core::infer_model_owner_body(*infer_job, session.endpoint(id),
                                       model, *service);
        }
      }});
    } else if (id == core::kDataOwner) {
      roles.push_back({id, [&, id] {
        if (training) {
          core::train_data_owner_body(*train_job, session.endpoint(id));
        } else {
          labels = core::infer_data_owner_body(*infer_job,
                                               session.endpoint(id));
        }
      }});
    } else {
      roles.push_back(session.party_role(id, [&, id] {
        const mpc::DetectionLog log =
            training ? core::train_computing_party_body(
                           *train_job, id, session.endpoint(id),
                           session.adversary())
                     : core::infer_computing_party_body(
                           *infer_job, id, session.endpoint(id),
                           session.adversary());
        std::printf("[party %d] done: %llu opening rounds, %zu anomalies "
                    "detected\n",
                    id, static_cast<unsigned long long>(log.opens),
                    log.events.size());
        return log;
      }));
    }
  }
  host.run(roles);

  int exit_code = 0;
  if (!training && host.hosts(core::kDataOwner)) {
    cli::print_labels("[party 3]", labels);
    if (opt.check) {
      exit_code = cli::verdict(
          "check",
          cli::reference_labels(spec, config, sample, opt.batch) == labels,
          "in-memory engine, same seeds");
    }
  }
  if (training && host.hosts(core::kModelOwner)) {
    // Apply the robustly reconstructed weights per epoch and report
    // test accuracy, exactly as TrustDdlEngine::train does.
    const std::vector<double> accuracies = cli::revealed_accuracies(
        service->revealed(), opt.epochs, config.frac_bits, model,
        split.test);
    if (opt.check) {
      core::TrustDdlEngine engine(spec, cli::reference_config(config));
      const core::TrainResult expected =
          engine.train(split.train, split.test, train_options);
      exit_code = cli::verdict("check",
                               expected.epoch_test_accuracy == accuracies,
                               "in-memory engine, same seeds");
    }
  }
  return exit_code;
}

// --task serve: any of parties 0-2 and the model owner.  Clients (ids
// >= serve::kFirstClientId) attach with trustddl_client; the data owner
// (id 3) does not participate.
int run_serve(Host& host, const core::EngineConfig& config,
              const nn::ModelSpec& spec, nn::Sequential& model) {
  const Options& opt = host.opt;
  core::Session& session = host.session;
  const std::size_t local = opt.party_ids.size();
  const auto clients = static_cast<std::size_t>(opt.clients);
  if (opt.fleet) {
    std::printf("serve mesh connected (pod %s, %zu local actor%s, "
                "accepting %d routed client%s)\n",
                opt.pod.name.c_str(), local, plural(local), opt.clients,
                plural(clients));
  } else {
    std::printf("serve mesh connected (%zu local actor%s, %d client%s)\n",
                local, plural(local), opt.clients, plural(clients));
  }

  serve::ServeConfig serve_config;
  serve_config.max_batch_rows = opt.serve_max_batch;
  serve_config.queue_capacity = opt.serve_queue_cap;
  const std::size_t param_count = model.parameters().size();

  std::vector<core::Role> roles;
  for (const int id : opt.party_ids) {
    if (id == core::kModelOwner) {
      roles.push_back({id, [&, id] {
        serve::SchedulerStats stats;
        serve::serve_model_owner_body(spec, config, model,
                                      session.endpoint(id), serve_config,
                                      opt.clients, &stats);
        std::printf(
            "[party %d] serve done: %llu admitted = %llu completed + %llu "
            "rejected + %llu deadline-missed (%llu batches, %llu rows)\n",
            id, static_cast<unsigned long long>(stats.admitted),
            static_cast<unsigned long long>(stats.completed),
            static_cast<unsigned long long>(stats.rejected),
            static_cast<unsigned long long>(stats.deadline_missed),
            static_cast<unsigned long long>(stats.batches),
            static_cast<unsigned long long>(stats.batched_rows));
      }});
    } else {
      roles.push_back(session.party_role(id, [&, id] {
        serve::ServerOptions server_options;
        server_options.serve = serve_config;
        server_options.corrupt_results = opt.serve_corrupt_results;
        std::size_t batches = 0;
        mpc::DetectionLog log = serve::serve_computing_party_body(
            spec, config, param_count, id, session.endpoint(id),
            server_options, &batches, session.adversary());
        std::printf("[party %d] serve done: %zu batch%s executed\n", id,
                    batches, plural(batches, "es"));
        return log;
      }));
    }
  }
  host.run(roles);
  return 0;
}

train::TrainConfig train_config_from(const Options& opt) {
  train::TrainConfig tc;
  tc.rule = opt.aggregation == "mean"     ? mpc::AggregationRule::kMean
            : opt.aggregation == "median" ? mpc::AggregationRule::kMedian
                                          : mpc::AggregationRule::kTrimmedMean;
  tc.trim = opt.trim;
  tc.quorum =
      opt.quorum == 0 ? static_cast<std::size_t>(opt.owners) : opt.quorum;
  tc.round_window = std::chrono::milliseconds(opt.round_window_ms);
  tc.input_wait = std::chrono::milliseconds(opt.input_wait_ms);
  tc.rounds_per_epoch = opt.rounds_per_epoch;
  tc.epochs = opt.epochs;
  tc.max_rounds = opt.max_rounds;
  tc.learning_rate = opt.learning_rate;
  tc.momentum = opt.momentum;
  tc.checkpoint_dir = opt.checkpoint_dir;
  return tc;
}

// --task train-serve: any of parties 0-2 and the model owner (who
// doubles as the round sequencer).  Data owners (ids >=
// train::kFirstOwnerId) attach with trustddl_owner; the single-owner
// actor id 3 is unused.  Only the test split is evaluated here; the
// full split is still derived with the owners' seeds so --check can
// replay their exact data in memory.
int run_train_serve(Host& host, const core::EngineConfig& config,
                    const nn::ModelSpec& spec, nn::Sequential& model,
                    const data::TrainTestSplit& split) {
  const Options& opt = host.opt;
  core::Session& session = host.session;
  std::printf("train mesh connected (%zu local actor%s, %d owner%s)\n",
              opt.party_ids.size(), plural(opt.party_ids.size()), opt.owners,
              plural(static_cast<std::size_t>(opt.owners)));
  const train::TrainConfig train_config = train_config_from(opt);
  const std::size_t param_count = model.parameters().size();

  train::SequencerStats stats;
  std::map<std::string, RingTensor> revealed;
  std::vector<core::Role> roles;
  for (const int id : opt.party_ids) {
    if (id == core::kModelOwner) {
      roles.push_back({id, [&, id] {
        train::train_service_owner_body(config, model, session.endpoint(id),
                                        train_config, opt.owners, &stats,
                                        &revealed);
        std::printf(
            "[party %d] train done: %llu rounds, %llu admitted = %llu "
            "consumed + %llu discarded, %llu dropped owner slots%s\n",
            id, static_cast<unsigned long long>(stats.rounds),
            static_cast<unsigned long long>(stats.admitted),
            static_cast<unsigned long long>(stats.consumed),
            static_cast<unsigned long long>(stats.discarded),
            static_cast<unsigned long long>(stats.dropped_owner_slots),
            stats.suspended ? " (suspended)" : "");
      }});
    } else {
      roles.push_back(session.party_role(id, [&, id] {
        bool clean = true;
        std::uint64_t rounds = 0;
        mpc::DetectionLog log = train::train_service_party_body(
            spec, config, param_count, id, session.endpoint(id),
            train_config, &clean, &rounds, session.adversary());
        std::printf("[party %d] train done: %llu round%s executed%s\n", id,
                    static_cast<unsigned long long>(rounds), plural(rounds),
                    clean ? "" : " (suspended)");
        return log;
      }));
    }
  }
  host.run(roles);
  if (!host.hosts(core::kModelOwner)) {
    return 0;
  }

  int exit_code = 0;
  const std::vector<double> accuracies = cli::revealed_accuracies(
      revealed, opt.epochs, config.frac_bits, model, split.test);
  if (!stats.suspended && opt.min_accuracy >= 0.0) {
    const bool pass =
        !accuracies.empty() && accuracies.back() >= opt.min_accuracy;
    std::printf("min-accuracy check: %s (%.4f vs %.4f)\n",
                pass ? "PASS" : "FAIL",
                accuracies.empty() ? 0.0 : accuracies.back(),
                opt.min_accuracy);
    if (!pass) {
      exit_code = 3;
    }
  }
  if (!stats.suspended && opt.check) {
    // Reference: the in-memory harness over the same seeds and honest
    // owners.  The revealed epoch weights must match BIT FOR BIT — the
    // TCP deployment runs the same SPMD bodies.
    train::TrainSessionConfig reference;
    reference.spec = spec;
    reference.engine = cli::reference_config(config);
    reference.train = train_config;
    reference.train.checkpoint_dir.clear();
    reference.train.max_rounds = 0;
    reference.num_owners = opt.owners;
    reference.submissions_per_owner = opt.submissions;
    reference.owner_batch_rows = opt.owner_batch_rows;
    reference.dataset = split.train;
    const int check = cli::verdict(
        "train check",
        train::run_training_session(reference).revealed == revealed,
        "in-memory harness, same seeds");
    if (check != 0) {
      exit_code = check;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  // --- Deterministic shared state: every process derives the same
  // configuration, model and data from the flags alone.
  core::EngineConfig config =
      cli::engine_config(opt.task, opt.mode, opt.seed);
  config.triple_store_dir = opt.triple_store_dir;
  config.metrics_out = opt.metrics_out;
  config.trace_out = opt.trace_out;
  const nn::ModelSpec spec = cli::spec_for(opt.model);
  nn::Sequential model = core::reference_model(spec, config);
  // The serving workload has no dataset — clients bring the inputs.
  const data::TrainTestSplit split =
      opt.task == "serve"
          ? data::TrainTestSplit{}
          : cli::load_split(spec, opt.rows, opt.images, opt.data_seed,
                            opt.mnist_dir);

  // Pod identity must be set before the tracer opens (the trace meta
  // record carries it) and before the admin server answers /healthz:
  // it is what lets fleet-wide roll-ups attribute every sample, span
  // and health probe to its serving pod.
  if (opt.fleet) {
    obs::HealthState::global().set_pod(opt.pod.name);
  }
  try {
    for (const int id : opt.party_ids) {
      std::printf(
          "[party %d] %s listening on %s\n", id, role_name(id),
          core::bind_address(opt.addresses[static_cast<std::size_t>(id)],
                             opt.listen_host)
              .c_str());
    }
    // Binds every hosted id, rendezvouses concurrently and arms the
    // telemetry sinks before any actor runs.
    core::Session session(config, mesh_for(opt));
    Host host{opt, session,
              cli::start_admin(opt.admin_port, hosted_roles(opt.party_ids),
                               opt.task,
                               [&session](const obs::MetricsSnapshot& snap) {
                                 return session.export_json(snap);
                               })};
    const int exit_code =
        opt.task == "serve" ? run_serve(host, config, spec, model)
        : opt.task == "train-serve"
            ? run_train_serve(host, config, spec, model, split)
            : run_batch(host, config, spec, model, split);
    session.close();
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_party: %s\n", error.what());
    return 1;
  }
}
