// byzantine-lan: engine training (batch 8) over the in-memory network at
// 2 ms links while computing party 1 runs Case 3 consistent corruption
// on every opening.
//
// The session is assembled from the engine's public actor bodies
// (core/actors.hpp) exactly as TrustDdlEngine::train runs them, because
// the engine returns only summed detection counters and the output check
// needs each honest party's own DetectionLog.  The reference for the
// weights is a TrustDdlEngine built over a benchmark-owned transport.
// Step 0 is the warm-up; steps 1..S are timed, bounded by the parties'
// receipts of the batch shares (b/<step>/x).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/rng.hpp"
#include "core/actors.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/network.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace trustddl;

// Settings that define the workload (everything else keeps its library
// default):
//   2 ms one-way links  — every extra round of the recovery path costs a
//                         round trip, as in deployment;
//   batch 8             — the serving batch size, one step per 8 rows;
//   party 1, Case 3, probability 1.0 — every opening takes the
//                         guaranteed-output-delivery path;
//   kStepsPerSecond     — a fixed step count per --seconds, so the
//                         weights are a pure function of (seed, --seconds).
constexpr std::chrono::milliseconds kLinkLatency{2};
constexpr std::size_t kBatch = 8;
constexpr int kByzantineParty = 1;
constexpr double kStepsPerSecond = 2.0;

std::string step_tag(std::size_t step) {
  return "b/" + std::to_string(step) + "/x";
}

}  // namespace

Result run_byzantine_lan(const Args& args) {
  Result result;
  const nn::ModelSpec spec = nn::mnist_cnn_spec();
  core::EngineConfig config;
  // Pinned: masked-open truncation (see serve_lan.cpp).
  config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  config.byzantine_party = kByzantineParty;
  config.byzantine.behavior =
      mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  config.byzantine.probability = 1.0;
  core::TrainOptions options;
  options.batch_size = kBatch;
  const std::size_t timed_steps = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(kStepsPerSecond * args.seconds)));
  const std::size_t steps = 1 + timed_steps;

  data::SyntheticMnistConfig data_config;
  data_config.train_count = steps * kBatch;
  data_config.test_count = 200;
  data_config.seed = args.seed;
  const data::TrainTestSplit split = data::generate_synthetic_mnist(data_config);

  SpanLog spans;
  PartyClocks clocks;
  const std::int64_t session_t0 = now_ns();
  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors;
  net_config.recv_timeout = config.recv_timeout;
  net_config.emulate_latency = true;
  net_config.link_latency = kLinkLatency;
  net::Network network(net_config);
  const std::int64_t rendezvous_t1 = now_ns();
  RecordingTransport transport(network, args.trace
                                            ? RecordingTransport::Mode::kFull
                                            : RecordingTransport::Mode::kBoundary);

  // Step boundaries: the last party's receipt of each batch (b/<k>/x).
  const Boundaries steps_seen(transport, clocks, TagClass::kData, "/x",
                              step_tag(1));

  nn::Sequential model;
  core::TrainJob job;
  {
    ScopedSpan span(spans, "setup.model", core::kModelOwner);
    Rng model_rng(config.seed);
    model = nn::build_model(spec, model_rng);
    job = core::make_train_job(spec, config, options, split.train,
                               model.parameters().size());
  }
  mpc::StandardAdversary adversary(config.byzantine);
  core::ModelOwnerService service(transport.endpoint(core::kModelOwner),
                                  core::make_owner_service_config(config, true));
  std::array<mpc::DetectionLog, 3> logs;

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    ScopedSpan span(spans, "owner.body", core::kModelOwner);
    core::train_model_owner_body(job, transport.endpoint(core::kModelOwner),
                                 model, service);
  });
  bodies.emplace_back([&] {
    ScopedSpan span(spans, "data_owner.body", core::kDataOwner);
    core::train_data_owner_body(job, transport.endpoint(core::kDataOwner));
  });
  for (int party = 0; party < core::kComputingParties; ++party) {
    bodies.emplace_back([&, party] {
      clocks.enter(party);
      {
        ScopedSpan span(spans, "party.body", party);
        logs[static_cast<std::size_t>(party)] = core::train_computing_party_body(
            job, party, transport.endpoint(party), &adversary);
      }
      transport.close_poll(party);
      clocks.leave(party);
    });
  }
  // Bodies: model owner, data owner, then parties 0..2.
  run_actors(bodies, 2 + static_cast<std::size_t>(kByzantineParty));
  const std::int64_t window_t1 =
      *std::max_element(clocks.body_t1.begin(), clocks.body_t1.end());
  const double cpu_t1 = process_cpu_seconds();
  const net::TrafficSnapshot traffic = transport.traffic();
  // Peak memory of the session itself, before the output checks run.
  result.peak_rss_mb = peak_rss_mb();

  std::vector<std::int64_t> step_at(steps + 1, window_t1);
  for (std::size_t s = 0; s < steps; ++s) {
    step_at[s] = steps_seen.at(step_tag(s));
  }
  const std::int64_t setup_t1 = step_at[1];
  result.setup_s = ms(setup_t1 - session_t0) / 1e3;

  // Output checks: the revealed weights equal an honest engine run's
  // with the same seed, and both honest parties name party 1.
  {
    core::EngineConfig honest_config = config;
    honest_config.byzantine_party = -1;
    net::NetworkConfig reference_net;
    reference_net.num_parties = core::kNumActors;
    reference_net.recv_timeout = config.recv_timeout;
    net::Network reference_network(reference_net);
    core::TrustDdlEngine honest(spec, honest_config, reference_network);
    const std::int64_t reference_t0 = now_ns();
    honest.train(split.train, split.test, options);
    std::fprintf(stderr, "perfbench: honest reference run took %.1f s\n",
                 ms(now_ns() - reference_t0) / 1e3);
    const auto expected = honest.reference_model().parameters();
    bool same = expected.size() == job.param_count;
    std::vector<std::uint64_t> words;
    for (std::size_t i = 0; same && i < expected.size(); ++i) {
      const auto it = service.revealed().find(core::reveal_key(0, i));
      same = it != service.revealed().end() &&
             to_real(it->second, config.frac_bits).values() ==
                 expected[i]->value.values();
      if (same) {
        words.insert(words.end(), it->second.values().begin(),
                     it->second.values().end());
      }
    }
    result.digest = digest_words(words);
    if (!same) {
      result.fail("revealed weights under attack differ from the honest "
                  "engine run");
    }
  }
  for (int p = 0; p < core::kComputingParties; ++p) {
    if (p == kByzantineParty) {
      continue;
    }
    bool named = false;
    bool wrong = false;
    for (const auto& event : logs[static_cast<std::size_t>(p)].events) {
      named = named || event.suspect == kByzantineParty;
      wrong = wrong || (event.suspect >= 0 && event.suspect != kByzantineParty);
    }
    if (!named || wrong) {
      result.fail("honest party " + std::to_string(p) +
                  "'s DetectionLog does not name party 1 (alone)");
    }
  }

  const double ops = static_cast<double>(timed_steps * kBatch);
  result.attempted = static_cast<std::uint64_t>(ops);
  for (std::size_t s = 1; s < steps; ++s) {
    result.latency_ms.push_back(ms(step_at[s + 1] - step_at[s]));
  }
  result.ops = ops;
  result.window_s = ms(window_t1 - setup_t1) / 1e3;
  result.cpu_s = cpu_t1 - steps_seen.cpu_t0();
  result.bytes = traffic.diff(steps_seen.traffic_t0()).total_bytes;
  std::fprintf(stderr,
               "perfbench: byzantine-lan %zu timed steps in %.2f s (step p50 "
               "%.0f ms, p90 %.0f ms); honest-party detections %zu, %zu\n",
               timed_steps, result.window_s, quantile(result.latency_ms, 0.5),
               quantile(result.latency_ms, 0.9), logs[0].events.size(),
               logs[2].events.size());
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
  in.session_ops = static_cast<double>(steps * kBatch);
  in.logs = logs;
  in.byzantine_party = kByzantineParty;
  in.session_t0 = session_t0;
  in.rendezvous_t1 = rendezvous_t1;
  in.setup_t1 = setup_t1;
  account_layers(in, result);

  // Single-worker plaintext baseline over the same batches.
  Rng plain_rng(config.seed);
  nn::Sequential plain = nn::build_model(spec, plain_rng);
  const nn::SgdOptimizer optimizer(options.learning_rate / kBatch);
  std::size_t trained = 0;
  const std::int64_t plain_t0 = now_ns();
  while (ms(now_ns() - plain_t0) < 500.0) {
    for (const auto& batch : job.batches) {
      plain.train_step(batch.images, nn::one_hot(batch.labels, spec.classes),
                       optimizer);
      trained += batch.size();
    }
  }
  result.per_layer["nn.plain_samples_per_s"] = Metric{
      static_cast<double>(trained) / (ms(now_ns() - plain_t0) / 1e3), "1/s"};
  write_trace(args.trace_dir, "byzantine-lan", spans.snapshot(), transport);
  return result;
}

}  // namespace perfbench
