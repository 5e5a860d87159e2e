// train-tcp: the multi-owner training service over loopback TCP (a
// net::TcpFabric the benchmark builds), with three honest data owners.
//
// Round 0 is the warm-up; rounds 1..R-1 are timed.  Round boundaries
// are the parties' pickups of the round manifests (trn/<r>/man), seen
// by the recording transport.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>

#include "common/rng.hpp"
#include "core/actors.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/tcp_transport.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "train/harness.hpp"
#include "train/owner_client.hpp"
#include "train/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace trustddl;

// Settings that define the workload (everything else keeps its library
// default):
//   3 owners x 8 rows   — one trimmed-mean window (trim 1) with one
//                         owner left after trimming each side;
//   quorum 3            — every round waits for all owners, so every
//                         round aggregates the same three submissions;
//   kRoundsPerSecond    — a fixed round count per --seconds (the seed
//                         runs a round in about 1/kRoundsPerSecond s),
//                         so the revealed weights are a pure function
//                         of (seed, --seconds) and run.py can compare
//                         them across the processes of one run.
constexpr int kOwners = 3;
constexpr std::size_t kOwnerRows = 8;
constexpr std::size_t kQuorum = 3;
constexpr std::size_t kTrim = 1;
constexpr double kRoundsPerSecond = 0.75;

}  // namespace

Result run_train_tcp(const Args& args) {
  Result result;
  const nn::ModelSpec spec = nn::mnist_cnn_spec();
  core::EngineConfig config;
  // Pinned: masked-open truncation (see serve_lan.cpp).
  config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  const std::size_t timed_rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(kRoundsPerSecond * args.seconds)));
  const std::size_t rounds = 1 + timed_rounds;
  train::TrainConfig train_config;
  train_config.trim = kTrim;
  train_config.quorum = kQuorum;
  train_config.rounds_per_epoch = rounds;

  data::SyntheticMnistConfig data_config;
  data_config.train_count = 300;
  data_config.test_count = 500;
  data_config.seed = args.seed;
  const data::TrainTestSplit split = data::generate_synthetic_mnist(data_config);

  SpanLog spans;
  PartyClocks clocks;
  const std::int64_t session_t0 = now_ns();
  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors + kOwners;
  net_config.recv_timeout = config.recv_timeout;
  net::TcpFabric fabric(net_config);
  const std::int64_t rendezvous_t1 = now_ns();
  RecordingTransport transport(fabric, args.trace
                                           ? RecordingTransport::Mode::kFull
                                           : RecordingTransport::Mode::kBoundary);

  // Round boundaries: the last party's pickup of each round manifest.
  const Boundaries rounds_seen(transport, clocks, TagClass::kTrain, "/man",
                               train::manifest_tag(1));

  nn::Sequential model;
  std::size_t param_count = 0;
  {
    ScopedSpan span(spans, "setup.model", core::kModelOwner);
    Rng model_rng(config.seed);
    model = nn::build_model(spec, model_rng);
    param_count = model.parameters().size();
  }
  train::SequencerStats sequencer;
  std::map<std::string, RingTensor> revealed;
  std::array<mpc::DetectionLog, 3> logs;
  std::array<bool, 3> clean{};
  std::array<std::uint64_t, 3> party_rounds{};

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    ScopedSpan span(spans, "owner.body", core::kModelOwner);
    train::train_service_owner_body(config, model,
                                    transport.endpoint(core::kModelOwner),
                                    train_config, kOwners, &sequencer,
                                    &revealed);
  });
  for (int party = 0; party < core::kComputingParties; ++party) {
    bodies.emplace_back([&, party] {
      clocks.enter(party);
      {
        ScopedSpan span(spans, "party.body", party);
        const auto slot = static_cast<std::size_t>(party);
        logs[slot] = train::train_service_party_body(
            spec, config, param_count, party, transport.endpoint(party),
            train_config, &clean[slot], &party_rounds[slot]);
      }
      transport.close_poll(party);
      clocks.leave(party);
    });
  }
  for (int index = 0; index < kOwners; ++index) {
    bodies.emplace_back([&, index] {
      train::OwnerOptions options;
      options.seed = train::owner_base_seed(config.seed, index);
      options.classes = spec.classes;
      options.batch_rows = kOwnerRows;
      options.frac_bits = config.frac_bits;
      const data::Dataset shard = train::owner_shard(split.train, index, kOwners);
      const net::PartyId id = train::kFirstOwnerId + index;
      train::TrainingOwner owner(transport.endpoint(id), options);
      for (std::uint64_t seq = owner.hello(); seq < rounds; ++seq) {
        ScopedSpan span(spans, "owner.submit", id, seq);
        owner.submit(seq, shard);
      }
      owner.stop(rounds);
    });
  }

  run_actors(bodies);
  const std::int64_t window_t1 =
      *std::max_element(clocks.body_t1.begin(), clocks.body_t1.end());
  const double cpu_t1 = process_cpu_seconds();
  const net::TrafficSnapshot traffic = transport.traffic();
  // Peak memory of the session itself, before the output checks run.
  result.peak_rss_mb = peak_rss_mb();

  std::vector<std::int64_t> round_at(rounds + 1, 0);
  for (std::size_t r = 0; r <= rounds; ++r) {
    round_at[r] = rounds_seen.at(train::manifest_tag(r));
  }
  const std::int64_t setup_t1 = round_at[1];
  result.setup_s = ms(setup_t1 - session_t0) / 1e3;

  // Output checks: every party ran every round, and the weights
  // learned.  A process trains only ~6 rounds, so its held-out accuracy
  // is 0.12-0.37 depending on the seed (initial weights: ~0.04), too
  // close to chance for an absolute accuracy floor; the floors are the
  // initial weights' accuracy and a uniform guess's cross-entropy
  // (ln 10).  The weight digest goes to run.py, which requires it to be
  // identical in every process of a run (same seed, same weights).
  for (int p = 0; p < core::kComputingParties; ++p) {
    if (!clean[static_cast<std::size_t>(p)] ||
        party_rounds[static_cast<std::size_t>(p)] != rounds) {
      result.fail("party " + std::to_string(p) + " did not run every round");
    }
  }
  const double samples_per_round = static_cast<double>(kOwners * kOwnerRows);
  const double ops = samples_per_round * static_cast<double>(timed_rounds);
  result.attempted = static_cast<std::uint64_t>(ops);
  result.failed = sequencer.dropped_owner_slots * kOwnerRows;
  Rng eval_rng(config.seed);
  nn::Sequential evaluated = nn::build_model(spec, eval_rng);
  const double initial_accuracy =
      evaluated.accuracy(split.test.images, split.test.labels);
  if (!train::apply_revealed_weights(revealed, 0, param_count, config.frac_bits,
                                     evaluated)) {
    result.fail("revealed weights are incomplete");
  } else {
    std::vector<std::uint64_t> words;
    for (std::size_t i = 0; i < param_count; ++i) {
      const auto& values = revealed.at(core::reveal_key(0, i)).values();
      words.insert(words.end(), values.begin(), values.end());
    }
    result.digest = digest_words(words);
    const double accuracy =
        evaluated.accuracy(split.test.images, split.test.labels);
    const double loss =
        nn::cross_entropy(evaluated.forward(split.test.images),
                          nn::one_hot(split.test.labels, spec.classes));
    const double uniform_loss = std::log(static_cast<double>(spec.classes));
    std::fprintf(stderr,
                 "perfbench: train-tcp weights digest %s, test accuracy %.4f "
                 "(initial %.4f), test loss %.4f (uniform guess %.4f)\n",
                 result.digest.c_str(), accuracy, initial_accuracy, loss,
                 uniform_loss);
    if (!(accuracy > initial_accuracy) || !(loss < uniform_loss)) {
      result.fail("revealed weights did not learn (accuracy " +
                  std::to_string(accuracy) + ", loss " + std::to_string(loss) +
                  ")");
    }
  }

  for (std::size_t r = 1; r < rounds; ++r) {
    result.latency_ms.push_back(ms(round_at[r + 1] - round_at[r]));
  }
  result.ops = ops;
  result.window_s = ms(window_t1 - setup_t1) / 1e3;
  result.cpu_s = cpu_t1 - rounds_seen.cpu_t0();
  result.bytes = traffic.diff(rounds_seen.traffic_t0()).total_bytes;
  std::fprintf(stderr,
               "perfbench: train-tcp %zu timed rounds in %.2f s (round p50 "
               "%.0f ms, p90 %.0f ms), %.1f MB per round\n",
               timed_rounds, result.window_s, quantile(result.latency_ms, 0.5),
               quantile(result.latency_ms, 0.9),
               static_cast<double>(result.bytes) / (1024.0 * 1024.0) /
                   static_cast<double>(timed_rounds));
  if (!args.trace) {
    return result;
  }

  LayerInputs in;
  in.recorder = &transport;
  in.traffic = &traffic;
  in.parties = &clocks;
  in.t0 = setup_t1;
  in.t1 = window_t1;
  in.ops = ops;
  in.session_ops = samples_per_round * static_cast<double>(rounds);
  in.logs = logs;
  in.session_t0 = session_t0;
  in.rendezvous_t1 = rendezvous_t1;
  in.setup_t1 = setup_t1;
  account_layers(in, result);

  std::vector<double> submit_ms;
  for (const auto& span : spans.snapshot()) {
    if (span.name == "owner.submit") {
      submit_ms.push_back(ms(span.t1 - span.t0));
    }
  }
  result.per_layer["train.round_ms"] = Metric{mean(result.latency_ms), "ms"};
  result.per_layer["train.submit_ms"] = Metric{mean(submit_ms), "ms"};
  result.per_layer["train.dropped_slots"] =
      Metric{static_cast<double>(sequencer.dropped_owner_slots), "count"};

  // Single-worker plaintext baseline over the same shard rows, repeated
  // until it has run for at least 0.5 s.
  Rng plain_rng(config.seed);
  nn::Sequential plain = nn::build_model(spec, plain_rng);
  const nn::SgdOptimizer optimizer(train_config.learning_rate);
  std::size_t trained = 0;
  const std::int64_t plain_t0 = now_ns();
  while (ms(now_ns() - plain_t0) < 500.0) {
    for (std::size_t start = 0; start + kOwnerRows <= split.train.size();
         start += kOwnerRows) {
      const data::Dataset batch = data::slice(split.train, start, kOwnerRows);
      plain.train_step(batch.images, nn::one_hot(batch.labels, spec.classes),
                       optimizer);
      trained += kOwnerRows;
    }
  }
  result.per_layer["nn.plain_samples_per_s"] = Metric{
      static_cast<double>(trained) / (ms(now_ns() - plain_t0) / 1e3), "1/s"};
  write_trace(args.trace_dir, "train-tcp", spans.snapshot(), transport);
  return result;
}

}  // namespace perfbench
