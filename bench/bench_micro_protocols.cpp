// Microbenchmarks of the protocol building blocks (google-benchmark):
// sharing/reconstruction, SHA-256 commitment hashing, the robust
// opening in each security mode, SecMul-BT / SecMatMul-BT /
// SecComp-BT, both fixed-point truncation strategies, and the
// deferred-opening round scheduler (sequential vs batched).  Each
// protocol iteration runs the real three-thread execution over the
// in-process network.
//
// Pass --rounds_json=<path> to additionally record a round-accounting
// snapshot of one Table I CNN training step (malicious mode, batching
// off vs on) — the before/after evidence for the OpenBatch scheduler.
//
// Pass --obs_json=<path> to measure the metrics-registry overhead on
// the SecMatMul-BT hot path (telemetry disabled vs enabled) and the
// admin-endpoint overhead (metrics on, no endpoint vs a live endpoint
// scraped at 10 Hz) and write the result — the evidence for the
// observability layer's <= 2% overhead contracts (DESIGN.md §8/§12).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/sha256.hpp"
#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "mpc/open.hpp"
#include "mpc/protocols_bt.hpp"
#include "mpc/triple_store.hpp"
#include "net/runtime.hpp"
#include "numeric/fixed_point.hpp"
#include "obs/admin_server.hpp"
#include "obs/metrics.hpp"

namespace trustddl {
namespace {

constexpr int kF = fx::kDefaultFracBits;

RingTensor random_ring(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

void BM_FixedPointEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> values(1024);
  for (auto& value : values) {
    value = rng.next_double(-100, 100);
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (double value : values) {
      acc += fx::encode(value);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_FixedPointEncodeDecode);

void BM_Sha256Commitment(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes payload(size, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256Commitment)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_CreateReplicatedShares(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const RingTensor secret = random_ring(Shape{n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc::share_secret(secret, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CreateReplicatedShares)->Arg(1 << 8)->Arg(1 << 14);

/// One full three-party robust opening per iteration.
void BM_Open(benchmark::State& state, mpc::SecurityMode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const RingTensor secret = random_ring(Shape{n}, rng);
  const auto views = mpc::share_secret(secret, rng);
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
      ctx.mode = mode;
    }
    net::run_parties(3, [&](net::PartyId party) {
      benchmark::DoNotOptimize(mpc::open_value(
          contexts[static_cast<std::size_t>(party)],
          views[static_cast<std::size_t>(party)]));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Open, hbc, mpc::SecurityMode::kHonestButCurious)
    ->Arg(1 << 8)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_Open, crash_fault, mpc::SecurityMode::kCrashFault)
    ->Arg(1 << 8)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_Open, malicious, mpc::SecurityMode::kMalicious)
    ->Arg(1 << 8)
    ->Arg(1 << 14);

void BM_SecMulBt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Shape shape{n};
  const auto x_views = mpc::share_secret(random_ring(shape, rng), rng);
  const auto y_views = mpc::share_secret(random_ring(shape, rng), rng);
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
    }
    net::run_parties(3, [&](net::PartyId party) {
      mpc::DealerBackend dealer(5, kF, party);
      mpc::TripleStore source(dealer, party);
      const auto triple = source.mul_triple(shape);
      benchmark::DoNotOptimize(mpc::sec_mul_bt(
          contexts[static_cast<std::size_t>(party)],
          x_views[static_cast<std::size_t>(party)],
          y_views[static_cast<std::size_t>(party)], triple));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SecMulBt)->Arg(1 << 8)->Arg(1 << 12);

/// One full three-party SecMatMul-BT; shared by the plain benchmark,
/// the metrics-enabled/-disabled comparison column and the --obs_json
/// overhead measurement.
void run_sec_matmul_bt_once(std::size_t n,
                            const std::array<mpc::PartyShare, 3>& x_views,
                            const std::array<mpc::PartyShare, 3>& y_views) {
  net::Network network(net::NetworkConfig{.num_parties = 3});
  std::array<mpc::PartyContext, 3> contexts;
  for (int party = 0; party < 3; ++party) {
    auto& ctx = contexts[static_cast<std::size_t>(party)];
    ctx.endpoint = network.endpoint(party);
    ctx.party = party;
  }
  net::run_parties(3, [&](net::PartyId party) {
    mpc::DealerBackend dealer(7, kF, party);
    mpc::TripleStore source(dealer, party);
    const auto triple = source.matmul_triple(n, n, n);
    benchmark::DoNotOptimize(mpc::sec_matmul_bt(
        contexts[static_cast<std::size_t>(party)],
        x_views[static_cast<std::size_t>(party)],
        y_views[static_cast<std::size_t>(party)], triple));
  });
}

/// metrics = false/true gives the disabled/enabled column of the
/// telemetry-overhead comparison; the flag is restored afterwards so
/// later benchmarks run under the process default.
void BM_SecMatMulBt(benchmark::State& state, bool metrics) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto x_views =
      mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  const auto y_views =
      mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(metrics);
  for (auto _ : state) {
    run_sec_matmul_bt_once(n, x_views, y_views);
  }
  obs::set_metrics_enabled(was_enabled);
}
BENCHMARK_CAPTURE(BM_SecMatMulBt, metrics_off, false)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_SecMatMulBt, metrics_on, true)->Arg(16)->Arg(64);

void BM_SecCompBt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Shape shape{n};
  const auto x_views = mpc::share_secret(random_ring(shape, rng), rng);
  const auto y_views = mpc::share_secret(random_ring(shape, rng), rng);
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
    }
    net::run_parties(3, [&](net::PartyId party) {
      mpc::DealerBackend dealer(9, kF, party);
      mpc::TripleStore source(dealer, party);
      benchmark::DoNotOptimize(mpc::sec_comp_bt(
          contexts[static_cast<std::size_t>(party)],
          x_views[static_cast<std::size_t>(party)],
          y_views[static_cast<std::size_t>(party)],
          {source.comp_aux(shape), source.mul_triple(shape)}));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SecCompBt)->Arg(1 << 8)->Arg(1 << 12);

void BM_Truncation(benchmark::State& state, mpc::TruncationMode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Shape shape{n};
  const auto z_views = mpc::share_secret(random_ring(shape, rng), rng);
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
    }
    net::run_parties(3, [&](net::PartyId party) {
      const auto& z = z_views[static_cast<std::size_t>(party)];
      if (mode == mpc::TruncationMode::kLocal) {
        benchmark::DoNotOptimize(mpc::truncate_product_local(z, kF));
      } else {
        mpc::DealerBackend dealer(11, kF, party);
        mpc::TripleStore source(dealer, party);
        benchmark::DoNotOptimize(mpc::truncate_product_masked(
            contexts[static_cast<std::size_t>(party)], z,
            source.trunc_pair(shape)));
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Truncation, local, mpc::TruncationMode::kLocal)
    ->Arg(1 << 12);
BENCHMARK_CAPTURE(BM_Truncation, masked_open, mpc::TruncationMode::kMaskedOpen)
    ->Arg(1 << 12);

/// Sequential-vs-batched opening of `range(0)` values: the per-call
/// round cost the OpenBatch scheduler amortizes.  Counters report
/// opening rounds per iteration and the achieved values-per-round
/// (openings-per-call is 1 for the sequential baseline by definition).
void BM_OpenScheduling(benchmark::State& state, bool batched) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  const Shape shape{256};
  std::vector<std::array<mpc::PartyShare, 3>> views;
  for (std::size_t i = 0; i < count; ++i) {
    views.push_back(mpc::share_secret(random_ring(shape, rng), rng));
  }
  std::uint64_t rounds = 0;
  std::uint64_t values = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
    }
    net::run_parties(3, [&](net::PartyId party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      if (batched) {
        mpc::OpenBatch batch(ctx);
        std::vector<mpc::DeferredTensor> handles;
        for (const auto& view : views) {
          handles.push_back(
              batch.enqueue_value(view[static_cast<std::size_t>(party)]));
        }
        batch.flush();
        benchmark::DoNotOptimize(handles.back().get());
      } else {
        for (const auto& view : views) {
          benchmark::DoNotOptimize(mpc::open_value(
              ctx, view[static_cast<std::size_t>(party)]));
        }
      }
    });
    rounds += contexts[0].detections.opens;
    values += contexts[0].detections.values_opened;
    messages += network.traffic().total_messages;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["rounds_per_batch"] = static_cast<double>(rounds) / iterations;
  state.counters["values_per_round"] =
      static_cast<double>(values) / static_cast<double>(rounds);
  state.counters["messages"] = static_cast<double>(messages) / iterations;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK_CAPTURE(BM_OpenScheduling, sequential, false)->Arg(2)->Arg(8);
BENCHMARK_CAPTURE(BM_OpenScheduling, batched, true)->Arg(2)->Arg(8);

/// The converted layer-backward hot path: two data-independent matmuls
/// with masked-open rescale, eager (4 rounds) vs one batch (2 rounds).
void BM_BackwardPairRescaled(benchmark::State& state, bool batched) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const auto x_views = mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  const auto y_views = mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    net::Network network(net::NetworkConfig{.num_parties = 3});
    std::array<mpc::PartyContext, 3> contexts;
    for (int party = 0; party < 3; ++party) {
      auto& ctx = contexts[static_cast<std::size_t>(party)];
      ctx.endpoint = network.endpoint(party);
      ctx.party = party;
    }
    net::run_parties(3, [&](net::PartyId party) {
      const auto index = static_cast<std::size_t>(party);
      auto& ctx = contexts[index];
      mpc::DealerBackend dealer(14, kF, party);
      mpc::TripleStore source(dealer, party);
      mpc::OpenBatch batch(ctx);
      std::array<mpc::DeferredShare, 2> products;
      for (auto& product : products) {
        auto triple = source.matmul_triple(n, n, n);
        auto pair = source.trunc_pair(Shape{n, n});
        product = mpc::sec_matmul_bt_rescaled_prepare(
            batch, x_views[index], y_views[index], std::move(triple),
            mpc::TruncationMode::kMaskedOpen, std::move(pair));
        if (!batched) {
          batch.flush_all();
        }
      }
      batch.flush_all();
      benchmark::DoNotOptimize(products[0].get());
      benchmark::DoNotOptimize(products[1].get());
    });
    rounds += contexts[0].detections.opens;
    messages += network.traffic().total_messages;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["rounds_per_batch"] = static_cast<double>(rounds) / iterations;
  state.counters["messages"] = static_cast<double>(messages) / iterations;
}
BENCHMARK_CAPTURE(BM_BackwardPairRescaled, eager, false)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_BackwardPairRescaled, batched, true)->Arg(16)->Arg(64);

/// One Table I CNN training step through the full engine; returns the
/// cost report for the round-accounting snapshot.
core::CostReport table1_train_step_cost(bool batch_openings,
                                        core::TruncationMode trunc_mode) {
  data::SyntheticMnistConfig data_config;
  data_config.train_count = 2;
  data_config.test_count = 2;
  data_config.seed = 42;
  const auto split = data::generate_synthetic_mnist(data_config);

  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kMalicious;
  config.trunc_mode = trunc_mode;
  config.batch_openings = batch_openings;
  config.emulate_latency = true;
  config.link_latency = std::chrono::microseconds(1);
  config.collect_timeout = std::chrono::milliseconds(300);
  core::TrustDdlEngine engine(nn::mnist_cnn_spec(), config);

  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = split.train.size();  // exactly one SGD step
  options.learning_rate = 0.2;
  options.reveal_weights = false;  // pure per-step protocol cost
  return engine.train(split.train, split.test, options).cost;
}

void append_snapshot_entry(std::ostream& out, const char* key,
                           const core::CostReport& cost) {
  out << "    \"" << key << "\": {"
      << "\"opening_rounds\": " << cost.opening_rounds << ", "
      << "\"values_opened\": " << cost.values_opened << ", "
      << "\"openings_per_round\": "
      << static_cast<double>(cost.values_opened) /
             static_cast<double>(cost.opening_rounds)
      << ", \"total_messages\": " << cost.total_messages
      << ", \"total_bytes\": " << cost.total_bytes << "}";
}

/// Record the before/after round accounting of the deferred-opening
/// scheduler on one Table I CNN training step.  Returns false if the
/// snapshot could not be written.
bool write_rounds_snapshot(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n"
      << "  \"workload\": \"table1_cnn_train_step\",\n"
      << "  \"mode\": \"malicious\",\n"
      << "  \"emulate_latency\": true,\n";
  for (const auto trunc : {core::TruncationMode::kMaskedOpen,
                           core::TruncationMode::kLocal}) {
    const bool masked = trunc == core::TruncationMode::kMaskedOpen;
    const auto before = table1_train_step_cost(false, trunc);
    const auto after = table1_train_step_cost(true, trunc);
    out << "  \"" << (masked ? "masked_open" : "local_trunc") << "\": {\n";
    append_snapshot_entry(out, "unbatched", before);
    out << ",\n";
    append_snapshot_entry(out, "batched", after);
    out << ",\n    \"message_reduction\": "
        << 1.0 - static_cast<double>(after.total_messages) /
                     static_cast<double>(before.total_messages)
        << ",\n    \"round_reduction\": "
        << 1.0 - static_cast<double>(after.opening_rounds) /
                     static_cast<double>(before.opening_rounds)
        << "\n  }" << (masked ? ",\n" : "\n");
  }
  out << "}\n";
  out.flush();
  if (!out) {
    std::cerr << "error: failed writing " << path << "\n";
    return false;
  }
  std::cout << "wrote round-accounting snapshot to " << path << "\n";
  return true;
}

/// Wall time of `iterations` SecMatMul-BT protocol runs at the current
/// metrics setting.
double sec_matmul_bt_seconds(std::size_t n, int iterations) {
  Rng rng(6);
  const auto x_views = mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  const auto y_views = mpc::share_secret(random_ring(Shape{n, n}, rng), rng);
  Stopwatch watch;
  for (int i = 0; i < iterations; ++i) {
    run_sec_matmul_bt_once(n, x_views, y_views);
  }
  return watch.elapsed_seconds();
}

/// Same workload while an admin endpoint is live and a poller thread
/// scrapes /metrics at `hz` — the cost model of a real fleet monitor
/// pointed at this process.
double sec_matmul_bt_seconds_scraped(std::size_t n, int iterations, int hz) {
  obs::AdminOptions options;  // port 0 = ephemeral
  obs::AdminServer server(options);
  server.start();
  std::atomic<bool> stop{false};
  std::thread scraper([&server, &stop, hz] {
    // Sleep first: the poller cadence starts one period in, so a
    // window shorter than a period sees at most its fair share of
    // scrapes instead of a guaranteed burst at t=0.
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1000 / hz));
      if (stop.load(std::memory_order_relaxed)) {
        break;
      }
      (void)obs::http_get("127.0.0.1", server.port(), "/metrics", 500);
    }
  });
  const double seconds = sec_matmul_bt_seconds(n, iterations);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  server.stop();
  return seconds;
}

/// Measure the telemetry overhead on SecMatMul-BT (the busiest
/// instrumented path: spans, per-tag-class transport counters, recv
/// wait and kernel-pool histograms all fire) and write the snapshot.
/// Repetitions alternate disabled/enabled and the minimum per mode is
/// kept, so drift hits both columns alike.  A second pair measures the
/// admin endpoint the same way: metrics on without an endpoint vs
/// metrics on with a 10 Hz /metrics scraper — snapshots render on the
/// admin thread, so the workload should barely notice.  Returns false
/// if the snapshot could not be written.
bool write_obs_snapshot(const std::string& path) {
  constexpr std::size_t kN = 64;
  constexpr int kIterations = 12;
  constexpr int kRepetitions = 5;
  const bool was_enabled = obs::metrics_enabled();

  obs::set_metrics_enabled(false);
  sec_matmul_bt_seconds(kN, 2);  // warm caches, pool threads, dealer
  double off_seconds = 1e300;
  double on_seconds = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    obs::set_metrics_enabled(false);
    off_seconds = std::min(off_seconds, sec_matmul_bt_seconds(kN, kIterations));
    obs::set_metrics_enabled(true);
    on_seconds = std::min(on_seconds, sec_matmul_bt_seconds(kN, kIterations));
  }

  // Longer windows for the admin pair: the measurement must span
  // several scrape periods, or the realized scrape rate quantizes to
  // 0 or >hz per window and the comparison measures timing luck.
  constexpr int kScrapeHz = 10;
  constexpr int kAdminIterations = 48;
  obs::set_metrics_enabled(true);
  double admin_off_seconds = 1e300;
  double admin_on_seconds = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    admin_off_seconds = std::min(
        admin_off_seconds, sec_matmul_bt_seconds(kN, kAdminIterations));
    admin_on_seconds = std::min(
        admin_on_seconds,
        sec_matmul_bt_seconds_scraped(kN, kAdminIterations, kScrapeHz));
  }
  obs::set_metrics_enabled(was_enabled);

  const double overhead_percent = (on_seconds / off_seconds - 1.0) * 100.0;
  const double admin_overhead_percent =
      (admin_on_seconds / admin_off_seconds - 1.0) * 100.0;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n"
      << "  \"workload\": \"sec_matmul_bt\",\n"
      << "  \"matrix_n\": " << kN << ",\n"
      << "  \"iterations_per_repetition\": " << kIterations << ",\n"
      << "  \"repetitions\": " << kRepetitions << ",\n"
      << "  \"seconds_metrics_off\": " << off_seconds << ",\n"
      << "  \"seconds_metrics_on\": " << on_seconds << ",\n"
      << "  \"overhead_percent\": " << overhead_percent << ",\n"
      << "  \"overhead_target_percent\": 2.0,\n"
      << "  \"admin_scrape\": {\n"
      << "    \"scrape_hz\": " << kScrapeHz << ",\n"
      << "    \"iterations_per_repetition\": " << kAdminIterations << ",\n"
      << "    \"seconds_admin_off\": " << admin_off_seconds << ",\n"
      << "    \"seconds_admin_on\": " << admin_on_seconds << ",\n"
      << "    \"overhead_percent\": " << admin_overhead_percent << ",\n"
      << "    \"overhead_target_percent\": 2.0\n"
      << "  }\n"
      << "}\n";
  out.flush();
  if (!out) {
    std::cerr << "error: failed writing " << path << "\n";
    return false;
  }
  std::cout << "wrote telemetry-overhead snapshot to " << path << " ("
            << overhead_percent << "% enabled-mode overhead, "
            << admin_overhead_percent << "% 10 Hz admin-scrape overhead)\n";
  return true;
}

}  // namespace
}  // namespace trustddl

int main(int argc, char** argv) {
  std::string rounds_json;
  std::string obs_json;
  // Strip our flags before google-benchmark parses the rest.
  for (int i = 1; i < argc;) {
    if (std::strncmp(argv[i], "--rounds_json=", 14) == 0) {
      rounds_json = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--obs_json=", 11) == 0) {
      obs_json = argv[i] + 11;
    } else {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) {
      argv[j] = argv[j + 1];
    }
    --argc;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (!rounds_json.empty() && !trustddl::write_rounds_snapshot(rounds_json)) {
    return 1;
  }
  if (!obs_json.empty() && !trustddl::write_obs_snapshot(obs_json)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
