// serve-lan: the serving layer over the in-memory network with 2 ms
// emulated links, driven by an open-loop load generator.
//
// After one warm-up request, phase 1 offers open-loop arrivals of
// single-row requests; each is timed from the moment it was due, so a
// stalled system is charged for the wait it imposes on later requests.
// Phase 2 submits a burst of at most ServeConfig::queue_capacity
// requests at once.  Two client actors each run one submitting and one
// awaiting thread.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/network.hpp"
#include "nn/model_zoo.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace trustddl;

// Settings that define the workload (everything else keeps its library
// default so a later change of a default is measured):
//   2 ms one-way links  — the deployment axis where round trips dominate;
//   2 client actors     — concurrent submitters without a client per core;
//   kRatePerSecond      — about 30% of the ~5 req/s the seed sustains
//                         with 1-row batches (one takes ~0.2 s on a
//                         4-core x86-64 host).  At half that rate the
//                         queueing amplifies host noise into a p90 that
//                         moves 10% between runs; at 30% it moves ~5%;
//   kBurstRequests      — one full admission queue, never more than
//                         ServeConfig::queue_capacity (no refusals).
constexpr std::chrono::milliseconds kLinkLatency{2};
constexpr int kClients = 2;
constexpr double kRatePerSecond = 1.5;
constexpr std::size_t kBurstRequests = 64;
/// Latency limit on the Poisson-phase p90.
constexpr double kLatencyLimitMs = 1000.0;
/// Tolerance of the per-request latency decomposition.
constexpr double kDecompositionToleranceMs = 0.5;

enum class Phase { kWarmup, kPoisson, kBurst };

struct Request {
  Phase phase = Phase::kPoisson;
  int stage = 0;  ///< 0 warm-up, 1 Poisson, 2 burst
  std::size_t row = 0;
  int client = 0;
  std::int64_t due = 0;  ///< Poisson phase: scheduled submit time
  std::uint64_t seq = 0;
  std::int64_t submit_t0 = 0;
  std::int64_t submit_t1 = 0;
  std::int64_t done = 0;
  serve::InferenceResult result;
};

/// Stage barrier shared by the client threads.  A stage starts when
/// every request of the previous one was answered.
struct Stages {
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  std::vector<std::size_t> outstanding;  ///< per stage
  std::vector<std::int64_t> started;     ///< per stage

  int wait_for(int target) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage >= target; });
    return stage;
  }
};

/// Poisson-phase submit offsets (ns from the phase start) of process
/// `part` of a run's `parts`.  The run's gaps are exponential: the
/// N = parts * count quantiles (i + 0.5) / N of Exp(1), in an order
/// shuffled by the seed and scaled to a mean gap of seconds / count;
/// process `part` takes the part-th stretch of `count` consecutive gaps.
/// Every seed thus offers a run the same gap distribution in a
/// different order, which keeps the seed-to-seed spread of the latency
/// percentiles down without changing the arrival process's mean rate or
/// burstiness, and a run's processes see different arrivals.
std::vector<std::int64_t> poisson_offsets(std::size_t count, double seconds,
                                          std::uint64_t seed, int part,
                                          int parts) {
  const std::size_t total = count * static_cast<std::size_t>(parts);
  std::vector<double> gaps(total);
  for (std::size_t i = 0; i < total; ++i) {
    gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) /
                                  static_cast<double>(total));
  }
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::shuffle(gaps.begin(), gaps.end(), rng);
  double sum = 0.0;
  for (double gap : gaps) {
    sum += gap;
  }
  const double ns_per_unit = seconds * 1e9 * static_cast<double>(parts) / sum;
  std::vector<std::int64_t> offsets(count);
  double at = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    at += gaps[static_cast<std::size_t>(part) * count + i];
    offsets[i] = static_cast<std::int64_t>(at * ns_per_unit);
  }
  return offsets;
}

/// Requests a client's awaiting thread still has to collect, in
/// submission order.
struct AwaitQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> pending;
  bool closed = false;

  void push(std::size_t index) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(index);
    }
    cv.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
  }
  bool pop(std::size_t& index) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !pending.empty() || closed; });
    if (pending.empty()) {
      return false;
    }
    index = pending.front();
    pending.pop_front();
    return true;
  }
};

}  // namespace

Result run_serve_lan(const Args& args) {
  Result result;
  const nn::ModelSpec spec = nn::mnist_cnn_spec();
  core::EngineConfig config;
  // Pinned: masked-open truncation keeps honest states bit-identical
  // under attack and is the planned malicious default.
  config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  const serve::ServeConfig serve_config;
  const std::size_t burst =
      std::min(kBurstRequests, serve_config.queue_capacity);
  const std::size_t poisson = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(kRatePerSecond * args.seconds)));
  constexpr int kStages = 3;

  // Inputs from the workload seed: images and the arrival schedule.
  data::SyntheticMnistConfig data_config;
  data_config.train_count = 10;
  data_config.test_count = 1 + poisson + burst;
  data_config.seed = args.seed;
  const data::Dataset rows = data::generate_synthetic_mnist(data_config).test;
  const std::vector<std::int64_t> offsets =
      poisson_offsets(poisson, args.seconds, args.seed, args.part, args.parts);

  std::vector<Request> requests;
  const auto add = [&](Phase phase, int stage, int client) {
    Request request;
    request.phase = phase;
    request.stage = stage;
    request.row = requests.size();
    request.client = client;
    requests.push_back(request);
  };
  add(Phase::kWarmup, 0, 0);
  for (std::size_t i = 0; i < poisson; ++i) {
    add(Phase::kPoisson, 1, static_cast<int>(i % kClients));
    requests.back().due = offsets[i];
  }
  for (std::size_t i = 0; i < burst; ++i) {
    add(Phase::kBurst, 2, static_cast<int>(i % kClients));
  }

  SpanLog spans;
  PartyClocks clocks;
  const std::int64_t session_t0 = now_ns();
  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors + kClients;
  net_config.recv_timeout = config.recv_timeout;
  net_config.emulate_latency = true;
  net_config.link_latency = kLinkLatency;
  net::Network network(net_config);
  RecordingTransport transport(network, args.trace
                                            ? RecordingTransport::Mode::kFull
                                            : RecordingTransport::Mode::kBoundary);
  const std::int64_t rendezvous_t1 = now_ns();

  Stages stages;
  stages.outstanding.assign(kStages, 0);
  stages.started.assign(kStages + 1, 0);
  for (const auto& request : requests) {
    ++stages.outstanding[static_cast<std::size_t>(request.stage)];
  }
  std::array<AwaitQueue, kClients> queues;
  double cpu_t0 = 0.0;
  double cpu_t1 = 0.0;
  net::TrafficSnapshot traffic_t0;
  net::TrafficSnapshot traffic_t1;
  serve::SchedulerStats scheduler_stats;
  std::array<mpc::DetectionLog, 3> logs;
  std::array<std::size_t, 3> batches{};
  std::size_t param_count = 0;

  // Stage transitions run on whichever awaiting thread answers the last
  // request of a stage; the timed window is stages 1 and 2.
  const auto advance = [&](std::size_t index) {
    std::lock_guard<std::mutex> lock(stages.mu);
    const auto stage = static_cast<std::size_t>(requests[index].stage);
    if (--stages.outstanding[stage] != 0) {
      return;
    }
    const std::int64_t now = now_ns();
    if (stage == 0) {
      clocks.sample_start();
      cpu_t0 = process_cpu_seconds();
      traffic_t0 = transport.traffic();
    } else if (stage + 1 == kStages) {
      cpu_t1 = process_cpu_seconds();
      traffic_t1 = transport.traffic();
      clocks.sample_end();
    }
    stages.started[stage + 1] = now;
    stages.stage = static_cast<int>(stage) + 1;
    stages.cv.notify_all();
  };

  std::vector<std::function<void()>> bodies;
  nn::Sequential model;
  bodies.emplace_back([&] {
    ScopedSpan span(spans, "owner.body", core::kModelOwner);
    serve::serve_model_owner_body(spec, config, model,
                                  transport.endpoint(core::kModelOwner),
                                  serve_config, kClients, &scheduler_stats);
  });
  {
    // Same reference-model construction as serve::run_serving_session.
    ScopedSpan span(spans, "setup.model", core::kModelOwner);
    Rng model_rng(config.seed);
    model = nn::build_model(spec, model_rng);
    param_count = model.parameters().size();
  }
  for (int party = 0; party < core::kComputingParties; ++party) {
    bodies.emplace_back([&, party] {
      clocks.enter(party);
      ScopedSpan span(spans, "party.body", party);
      serve::ServerOptions options;
      options.serve = serve_config;
      const auto slot = static_cast<std::size_t>(party);
      logs[slot] = serve::serve_computing_party_body(
          spec, config, param_count, party, transport.endpoint(party), options,
          &batches[slot]);
      transport.close_poll(party);
      clocks.leave(party);
    });
  }
  std::array<std::unique_ptr<serve::InferenceClient>, kClients> clients;
  for (int c = 0; c < kClients; ++c) {
    serve::ClientOptions options;
    options.frac_bits = config.frac_bits;
    options.dist_tolerance = config.dist_tolerance;
    // Same per-client seed derivation as serve::run_serving_session.
    options.seed = options.seed * 1000003 + 17 * static_cast<std::uint64_t>(c + 1);
    clients[static_cast<std::size_t>(c)] = std::make_unique<serve::InferenceClient>(
        transport.endpoint(serve::kFirstClientId + c), options);
  }
  const auto row_tensor = [&](std::size_t row) {
    return data::slice(rows, row, 1).images;
  };
  const auto submit = [&](std::size_t index) {
    Request& request = requests[index];
    serve::InferenceClient& client = *clients[static_cast<std::size_t>(request.client)];
    const RealTensor image = row_tensor(request.row);
    ScopedSpan span(spans, "client.submit", serve::kFirstClientId + request.client,
                    index);
    request.submit_t0 = now_ns();
    request.seq = client.submit(image);
    request.submit_t1 = now_ns();
    queues[static_cast<std::size_t>(request.client)].push(index);
  };
  for (int c = 0; c < kClients; ++c) {
    bodies.emplace_back([&, c] {  // submitting thread
      for (int stage = 0; stages.wait_for(stage) < kStages; ++stage) {
        const std::int64_t start = stages.started[static_cast<std::size_t>(stage)];
        for (std::size_t i = 0; i < requests.size(); ++i) {
          Request& request = requests[i];
          if (request.client != c || request.stage != stage) {
            continue;
          }
          if (request.phase == Phase::kPoisson) {
            request.due += start;
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(request.due)));
          }
          submit(i);
        }
      }
      queues[static_cast<std::size_t>(c)].close();
    });
    bodies.emplace_back([&, c] {  // awaiting thread
      serve::InferenceClient& client = *clients[static_cast<std::size_t>(c)];
      std::size_t index = 0;
      while (queues[static_cast<std::size_t>(c)].pop(index)) {
        Request& request = requests[index];
        {
          ScopedSpan span(spans, "client.await", serve::kFirstClientId + c, index);
          request.result = client.await(request.seq, 1);
        }
        request.done = now_ns();
        advance(index);
      }
      client.stop();
    });
  }

  run_actors(bodies);
  // Peak memory of the session itself, before the reference check runs.
  result.peak_rss_mb = peak_rss_mb();
  const std::int64_t setup_t1 = stages.started[1];
  const std::int64_t window_t0 = stages.started[1];
  const std::int64_t window_t1 = stages.started[kStages];
  result.setup_s = ms(setup_t1 - session_t0) / 1e3;

  // Output check (the trustddl_client --check rule): every served label
  // equals the in-memory engine's label for the same row.
  std::vector<std::size_t> engine_labels;
  {
    core::TrustDdlEngine engine(spec, config);
    engine_labels = engine.infer(data::slice(rows, 0, rows.size()), 32).labels;
  }
  double gen_lag = 0.0;
  for (const auto& request : requests) {
    if (request.result.status != serve::Status::kOk) {
      ++result.failed;
      result.problems.push_back(std::string("request not served: ") +
                                serve::status_name(request.result.status));
      continue;
    }
    if (request.result.labels.size() != 1 ||
        request.result.labels[0] != engine_labels.at(request.row)) {
      result.fail("served label differs from TrustDdlEngine::infer for row " +
                  std::to_string(request.row));
    }
    if (request.phase == Phase::kPoisson) {
      const double latency = ms(request.done - request.due);
      result.latency_ms.push_back(latency);
      gen_lag = std::max(gen_lag, ms(request.submit_t0 - request.due));
      if (latency > kLatencyLimitMs) {
        ++result.failed;
      }
    }
  }
  result.attempted = requests.size() - 1;
  std::int64_t last_due = 0;
  std::int64_t last_answer = 0;
  std::int64_t burst_first = std::numeric_limits<std::int64_t>::max();
  std::int64_t burst_last = 0;
  for (const auto& request : requests) {
    if (request.phase == Phase::kPoisson) {
      last_due = std::max(last_due, request.due);
      last_answer = std::max(last_answer, request.done);
    } else if (request.phase == Phase::kBurst) {
      burst_first = std::min(burst_first, request.submit_t0);
      burst_last = std::max(burst_last, request.done);
    }
  }
  if (ms(last_answer - last_due) > kLatencyLimitMs) {
    std::fprintf(stderr,
                 "perfbench: FLAG backlog grew: last answer %.0f ms after the "
                 "last due time (limit %.0f ms)\n",
                 ms(last_answer - last_due), kLatencyLimitMs);
  }
  result.burst_rps =
      static_cast<double>(burst) / (ms(burst_last - burst_first) / 1e3);
  result.ops = static_cast<double>(result.attempted);
  result.window_s = ms(window_t1 - window_t0) / 1e3;
  result.cpu_s = cpu_t1 - cpu_t0;
  result.bytes = traffic_t1.diff(traffic_t0).total_bytes;
  std::fprintf(stderr,
               "perfbench: serve-lan %zu requests at %.1f/s over %.1f s (p50 "
               "%.1f ms, p90 %.1f ms, generator lag max %.2f ms), burst of %zu "
               "at %.1f req/s; scheduler: %llu batches, %llu rows\n",
               poisson, kRatePerSecond, args.seconds,
               quantile(result.latency_ms, 0.5), quantile(result.latency_ms, 0.9),
               gen_lag, burst, result.burst_rps,
               static_cast<unsigned long long>(scheduler_stats.batches),
               static_cast<unsigned long long>(scheduler_stats.batched_rows));

  if (!args.trace) {
    return result;
  }

  // Per-layer accounting over the timed window (Poisson + burst).
  LayerInputs in;
  in.recorder = &transport;
  const net::TrafficSnapshot traffic = transport.traffic();
  in.traffic = &traffic;
  in.parties = &clocks;
  in.t0 = window_t0;
  in.t1 = window_t1;
  in.ops = result.ops;
  in.session_ops = static_cast<double>(requests.size());
  in.logs = logs;
  in.session_t0 = session_t0;
  in.rendezvous_t1 = rendezvous_t1;
  in.setup_t1 = setup_t1;
  account_layers(in, result);

  // Batch shape per phase, from the manifests the owner sent; their
  // totals must match the scheduler's own ledger.
  std::map<std::pair<int, std::uint64_t>, std::size_t> by_seq;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    by_seq[{serve::kFirstClientId + requests[i].client, requests[i].seq}] = i;
  }
  std::map<Phase, std::pair<double, double>> shape;  // rows, batches
  std::uint64_t manifest_rows = 0;
  std::uint64_t manifest_batches = 0;
  std::map<std::string, std::int64_t> manifest_sent;  // manifest tag -> t0
  std::map<std::size_t, std::string> manifest_of;     // request -> tag
  for (const auto& sent : transport.manifests()) {
    if (sent.manifest.shutdown) {
      continue;
    }
    const std::string tag = serve::manifest_tag(sent.manifest.index);
    manifest_sent[tag] = sent.t0;
    ++manifest_batches;
    manifest_rows += sent.manifest.total_rows();
    Phase phase = Phase::kWarmup;
    for (const auto& entry : sent.manifest.entries) {
      const std::size_t index = by_seq.at({entry.client, entry.seq});
      phase = requests[index].phase;
      manifest_of[index] = tag;
    }
    shape[phase].first += static_cast<double>(sent.manifest.total_rows());
    shape[phase].second += 1.0;
  }
  if (manifest_rows != scheduler_stats.batched_rows ||
      manifest_batches != scheduler_stats.batches) {
    result.fail("accounting: manifests seen on the wire differ from "
                "SchedulerStats");
  }
  const auto per_batch = [&](Phase phase) {
    const auto& [rows_sum, count] = shape[phase];
    return count > 0 ? rows_sum / count : 0.0;
  };

  // Per-request critical path: generator lag, submit, owner queue,
  // party-side queue, batch execution, result collection.
  std::map<std::pair<int, std::string>, std::int64_t> sent_at;  // (actor, tag)
  std::map<std::string, std::int64_t> last_pickup;              // tag -> t1
  std::map<std::pair<int, std::string>, std::int64_t> last_result;
  for (const auto& event : transport.events()) {
    if (event.cls != TagClass::kServe) {
      continue;
    }
    if (event.op == NetOp::kSend) {
      sent_at[{event.actor, event.tag}] = event.t1;
      if (event.actor < core::kComputingParties) {
        auto& slot = last_result[{event.peer, event.tag}];
        slot = std::max(slot, event.t1);
      }
    } else if ((event.op == NetOp::kPollWait || event.op == NetOp::kProbeHit) &&
               event.actor < core::kComputingParties) {
      auto& slot = last_pickup[event.tag];
      slot = std::max(slot, event.t1);
    }
  }
  std::vector<double> submit_ms, queue_ms, party_queue_ms, batch_ms, finish_ms;
  double worst_residual = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    if (request.phase != Phase::kPoisson ||
        request.result.status != serve::Status::kOk) {
      continue;
    }
    const int client = serve::kFirstClientId + request.client;
    const std::string& man = manifest_of.at(i);
    const std::int64_t notice = sent_at.at({client, serve::notice_tag(request.seq)});
    const std::int64_t dispatched = manifest_sent.at(man);
    const std::int64_t picked = last_pickup.at(man);
    const std::int64_t answered =
        last_result.at({client, serve::result_tag(request.seq)});
    const double parts[] = {ms(request.submit_t0 - request.due),
                            ms(request.submit_t1 - request.submit_t0),
                            ms(dispatched - notice), ms(picked - dispatched),
                            ms(answered - picked), ms(request.done - answered)};
    submit_ms.push_back(parts[1]);
    queue_ms.push_back(parts[2]);
    party_queue_ms.push_back(parts[3]);
    batch_ms.push_back(parts[4]);
    finish_ms.push_back(parts[5]);
    double sum = 0.0;
    for (double part : parts) {
      sum += part;
    }
    worst_residual =
        std::max(worst_residual, std::fabs(sum - ms(request.done - request.due)));
  }
  std::fprintf(stderr,
               "perfbench: latency = lag + submit + queue + party_queue + "
               "batch + finish, worst residual %.4f ms (tolerance %.1f ms)\n",
               worst_residual, kDecompositionToleranceMs);
  if (worst_residual > kDecompositionToleranceMs) {
    result.fail("accounting: request latency decomposition residual " +
                std::to_string(worst_residual) + " ms");
  }
  const auto put = [&](const char* name, double value, const char* unit) {
    result.per_layer[name] = Metric{value, unit};
  };
  put("serve.rows_per_batch.poisson", per_batch(Phase::kPoisson), "count");
  put("serve.rows_per_batch.burst", per_batch(Phase::kBurst), "count");
  put("serve.submit_ms", mean(submit_ms), "ms");
  put("serve.queue_ms", mean(queue_ms), "ms");
  put("serve.party_queue_ms", mean(party_queue_ms), "ms");
  put("serve.batch_ms", mean(batch_ms), "ms");
  put("serve.finish_ms", mean(finish_ms), "ms");
  put("serve.gen_lag_ms", gen_lag, "ms");
  write_trace(args.trace_dir, "serve-lan", spans.snapshot(), transport);
  return result;
}

}  // namespace perfbench
