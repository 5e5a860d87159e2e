// trustddl_owner: one data owner of a multi-owner robust training
// deployment started with `trustddl_party --task train-serve`.
//
// The owner is actor id >= 5 on the same TCP mesh as the parties.  It
// holds a private labelled shard (rows of the deterministic dataset
// with row % owners == index), and per submission samples a minibatch,
// secret-shares the fixed-point images and one-hot labels to the three
// computing parties (no party ever sees plaintext), and notifies the
// sequencer at the model owner.  All per-submission randomness derives
// from (owner seed, seq), so a restarted owner regenerates
// byte-identical submissions for any seq the hello ack asks for.
//
// Poisoning experiments run HERE, in the owner's data space — exactly
// the malicious-owner threat the service's trimmed-mean / median
// aggregation absorbs.
//
// Four-process session on localhost (3 parties + sequencer in 3
// processes, then 3 owners, one of them poisoning):
//
//   ./build/examples/trustddl_party --task train-serve --party-ids 1 &
//   ./build/examples/trustddl_party --task train-serve --party-ids 2 &
//   ./build/examples/trustddl_party --task train-serve --party-ids 0,4 &
//   ./build/examples/trustddl_owner --owner-index 0 &
//   ./build/examples/trustddl_owner --owner-index 1 &
//   ./build/examples/trustddl_owner --owner-index 2 --poison scale=10
//
// Flags:
//   --owner-index N      this owner's 0-based index [0]; the actor id
//                        is 5 + N
//   --owners N           total owners in the deployment [3] (must
//                        match the parties' --owners)
//   --port-base N        actor i listens on 127.0.0.1:(N+i)  [29500]
//   --peers LIST         explicit mesh: id=host:port,...; must cover
//                        ids 0,1,2,4 and this owner's own id
//   --listen HOST        bind host for the owner id [from the mesh]
//   --submissions N      lifetime submission bound [4]; a resumed
//                        owner continues from the hello ack's seq up
//                        to this bound
//   --batch-rows N       minibatch rows per submission [8]
//   --rows N             total training rows of the shared dataset
//                        [64] (must match the parties' --rows)
//   --model mlp|cnn|tiny-cnn   architecture [mlp] (must match parties)
//   --seed N             session seed [1] (ditto); this owner's stream
//                        seed is owner_base_seed(seed, index)
//   --data-seed N        dataset seed [7] (ditto)
//   --mnist-dir PATH     load the real MNIST idx files (ditto)
//   --poison SPEC        data poisoning: none, sign-flip, scale[=F]
//                        or label-flip [none]
//   --exit-after-submissions N   exit abruptly (no stop notice) after
//                        N submissions this session; 0 = run to the
//                        --submissions bound and stop cleanly.  Models
//                        a killed owner: the sequencer must degrade to
//                        quorum operation without it.
//   --hello-timeout-ms N wait for the sequencer's hello ack [30000]
//   --connect-timeout-ms N     mesh rendezvous budget [10000]
//   --trace-out FILE     write a JSONL span trace of this owner's
//                        submissions (for scripts/merge_traces.py)
//   --admin-port N       serve the introspection plane (/healthz,
//                        /metrics, /events, /status) on 127.0.0.1:N;
//                        0 picks an ephemeral port [off]
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "cli.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/health.hpp"
#include "train/harness.hpp"
#include "train/owner_client.hpp"
#include "train/wire.hpp"

using namespace trustddl;

namespace {

struct Options {
  int owner_index = 0;
  int owners = 3;
  int port_base = 29500;
  std::string peers_text;
  std::string listen_host;
  std::size_t submissions = 4;
  std::size_t batch_rows = 8;
  std::size_t rows = 64;
  std::string model = "mlp";
  std::uint64_t seed = 1;
  std::uint64_t data_seed = 7;
  std::string mnist_dir;
  std::string poison = "none";
  std::size_t exit_after_submissions = 0;
  int hello_timeout_ms = 30000;
  int connect_timeout_ms = 10000;
  std::string trace_out;
  int admin_port = -1;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  cli::Flags("trustddl_owner")
      .value("--owner-index", opt.owner_index)
      .value("--owners", opt.owners)
      .value("--port-base", opt.port_base)
      .value("--peers", opt.peers_text)
      .value("--listen", opt.listen_host)
      .value("--submissions", opt.submissions)
      .value("--batch-rows", opt.batch_rows)
      .value("--rows", opt.rows)
      .value("--model", opt.model)
      .value("--seed", opt.seed)
      .value("--data-seed", opt.data_seed)
      .value("--mnist-dir", opt.mnist_dir)
      .value("--poison", opt.poison)
      .value("--exit-after-submissions", opt.exit_after_submissions)
      .value("--hello-timeout-ms", opt.hello_timeout_ms)
      .value("--connect-timeout-ms", opt.connect_timeout_ms)
      .value("--trace-out", opt.trace_out)
      .value("--admin-port", opt.admin_port)
      .parse(argc, argv);
  if (opt.owners < 1) {
    cli::usage_error("--owners must be >= 1");
  }
  if (opt.owner_index < 0 || opt.owner_index >= opt.owners) {
    cli::usage_error("--owner-index must be in [0, owners)");
  }
  if (opt.submissions < 1 || opt.batch_rows < 1 || opt.rows < 1) {
    cli::usage_error("--submissions/--batch-rows/--rows must be >= 1");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const int owner_id = static_cast<int>(train::kFirstOwnerId) +
                       opt.owner_index;
  const nn::ModelSpec spec = cli::spec_for(opt.model);

  // Same dataset derivation as trustddl_party / the in-memory harness,
  // so a restarted owner (or the party-side --check) sees the exact
  // same shard.
  const data::Dataset shard = train::owner_shard(
      cli::load_split(spec, opt.rows, 1, opt.data_seed, opt.mnist_dir).train,
      opt.owner_index, opt.owners);

  const core::TcpMesh mesh = cli::service_mesh(
      owner_id, core::kNumActors + opt.owners, opt.peers_text, opt.port_base,
      opt.listen_host, opt.connect_timeout_ms);

  // The owner's introspection plane uses the default registry-only
  // /metrics provider: an owner has no engine transports or detection
  // logs, so the live registry snapshot is the whole story.
  const std::unique_ptr<obs::AdminServer> admin =
      cli::start_admin(opt.admin_port, "data-owner-" + std::to_string(owner_id),
                       "train-owner");

  try {
    std::printf("[owner %d] listening on %s (%zu shard rows)\n", owner_id,
                core::bind_address(
                    mesh.addresses[static_cast<std::size_t>(owner_id)],
                    opt.listen_host)
                    .c_str(),
                shard.size());
    core::EngineConfig config;
    config.trace_out = opt.trace_out;
    core::Session session(config, mesh);
    std::printf("[owner %d] connected to parties and sequencer\n", owner_id);

    train::OwnerOptions options;
    options.seed = train::owner_base_seed(opt.seed, opt.owner_index);
    options.classes = spec.classes;
    options.batch_rows = opt.batch_rows;
    options.frac_bits = fx::kDefaultFracBits;
    options.poison = train::parse_poison_spec(opt.poison);
    options.hello_timeout = std::chrono::milliseconds(opt.hello_timeout_ms);
    train::TrainingOwner owner(session.endpoint(owner_id), options);

    if (options.poison.active()) {
      std::printf("[owner %d] POISONING: %s\n", owner_id,
                  train::poison_mode_name(options.poison.mode));
    }

    std::uint64_t first = owner.hello();
    std::printf("[owner %d] joined; resuming at seq %llu\n", owner_id,
                static_cast<unsigned long long>(first));
    std::size_t made = 0;
    std::size_t rows = 0;
    for (std::uint64_t seq = first; seq < opt.submissions; ++seq) {
      rows += owner.submit(seq, shard);
      obs::HealthState::global().note_progress("train.last_submission", seq);
      ++made;
      if (opt.exit_after_submissions != 0 &&
          made >= opt.exit_after_submissions) {
        // Abrupt exit: no stop notice, no drain — the sequencer sees a
        // silent owner and must mark it dormant.
        std::printf("[owner %d] exiting abruptly after %zu submissions\n",
                    owner_id, made);
        return 0;
      }
    }
    owner.stop(opt.submissions);
    std::printf("[owner %d] done: %zu submissions (%zu rows), stopped at "
                "seq %llu\n",
                owner_id, made, rows,
                static_cast<unsigned long long>(opt.submissions));

    session.finish();
    if (admin) {
      admin->stop();
    }
    session.close();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trustddl_owner: %s\n", error.what());
    return 1;
  }
}
