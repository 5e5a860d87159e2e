// Compute-kernel microbenchmark: scalar vs SIMD matmul kernels and
// the auto-tuned dispatcher (numeric/kernels.hpp) on the matrix
// shapes the Table I CNN actually produces, plus the elementwise /
// digest micro-kernels the protocols lean on.
//
// Matmul shapes (batch 10, the paper's SGD batch size):
//   conv im2col   [5 x 25]    * [25 x 1960]   (5x5 kernel, 14x14 out)
//   dense 980x100 [100 x 980] * [980 x 10]
//   dense 100x10  [10 x 100]  * [100 x 10]
//   square 384    [384 x 384] * [384 x 384]   (cache-resident reference)
//   square 1024   (B is 8 MB — exceeds L2, where blocking pays off)
//
// Every number is a per-iteration time distribution: warm-up, then
// `--trials` independent repetitions summarized as median/P95/CV
// (bench_util.hpp).  The table prints GFLOP-equivalent throughput
// derived from the median (2*m*k*n multiply-add "flops" per second —
// for the ring kernels these are 64-bit integer operations, counted
// the same way so the columns compare); the JSON keeps the raw
// distributions so scripts/check_bench.py can separate a real
// regression from a noisy run.
//
// Columns per shape and domain (Z_{2^64} ring and double):
//   naive(scalar)  — PR-3 baseline: serial naive matmul, SIMD forced off
//   naive(simd)    — same kernel with the detected SIMD backend
//   blocked 1t     — cache-blocked kernel, serial, SIMD on
//   blocked Nt     — cache-blocked kernel on the thread pool (skipped
//                    when the container only exposes one hardware
//                    thread: a serial pool makes the column noise)
//   dispatch       — kernels::matmul, i.e. the auto-tuned crossover the
//                    protocols actually call
//
// Ring results are asserted bit-identical across every kernel and
// backend before timing — a bench that measured a wrong kernel would
// be worse than no bench.
//
// Flags: --threads=N  thread count for the pooled column (default 4)
//        --trials=N   timed repetitions per measurement (default 9)
//        --json=PATH  write the machine-readable snapshot committed
//                     as BENCH_kernels.json at the repo root
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "numeric/kernels.hpp"
#include "numeric/simd.hpp"
#include "numeric/tensor.hpp"

using namespace trustddl;

namespace {

struct ShapeCase {
  std::string name;
  std::size_t m, k, n;
};

const std::vector<ShapeCase> kShapes = {
    {"cnn_conv_im2col_b10", 5, 25, 1960},
    {"cnn_dense_980x100_b10", 100, 980, 10},
    {"cnn_dense_100x10_b10", 10, 100, 10},
    {"square_384", 384, 384, 384},
    {"square_1024", 1024, 1024, 1024},
};

double gflops(const ShapeCase& shape, double seconds) {
  return 2.0 * static_cast<double>(shape.m) * static_cast<double>(shape.k) *
         static_cast<double>(shape.n) / seconds / 1e9;
}

RingTensor random_ring(const Shape& shape, Rng& rng) {
  RingTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_u64();
  }
  return out;
}

RealTensor random_real(const Shape& shape, Rng& rng) {
  RealTensor out(shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next_double(-2.0, 2.0);
  }
  return out;
}

std::string arg_string(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

/// Distribution columns for one matmul shape in one domain.
struct MatmulStats {
  bench::TrialStats naive_scalar;
  bench::TrialStats naive_simd;
  bench::TrialStats blocked_1t;
  bench::TrialStats blocked_nt;  // valid only when !pool_serial
  bench::TrialStats dispatch;
};

struct CaseResult {
  ShapeCase shape;
  MatmulStats ring;
  MatmulStats real;
};

/// One elementwise/digest micro-kernel, scalar vs SIMD.
struct MicroResult {
  std::string name;
  std::size_t bytes;  // working-set description for the report
  bench::TrialStats scalar;
  bench::TrialStats simd;
  double speedup() const { return scalar.median_s / simd.median_s; }
};

void print_json_stats(std::FILE* out, const char* key,
                      const bench::TrialStats& stats, bool valid,
                      const char* trailer) {
  if (valid) {
    std::fprintf(out,
                 "\"%s\": {\"median_s\": %.6e, \"p95_s\": %.6e, "
                 "\"cv\": %.4f, \"trials\": %d}%s",
                 key, stats.median_s, stats.p95_s, stats.cv, stats.trials,
                 trailer);
  } else {
    std::fprintf(out, "\"%s\": null%s", key, trailer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::arg_size(argc, argv, "threads", 4);
  const int trials =
      static_cast<int>(bench::arg_size(argc, argv, "trials", 9));
  const std::string json_path = arg_string(argc, argv, "json");

  kernels::KernelConfig serial;
  serial.threads = 1;
  kernels::KernelConfig parallel;
  parallel.threads = static_cast<int>(threads);

  const unsigned hardware = std::thread::hardware_concurrency();
  // hardware_concurrency()==1 is a real container configuration (the
  // CI sandbox): a 4-thread pool then timeslices one core and the
  // pooled column only measures scheduler noise — skip it.
  const bool pool_serial = hardware <= 1;
  const simd::Backend simd_backend = simd::active_backend();
  const char* backend = simd::backend_name(simd_backend);

  std::printf("=== Compute kernels: scalar vs %s, naive/blocked/dispatch ===\n",
              backend);
  std::printf(
      "hardware_concurrency=%u, pool threads=%zu%s, trials=%d, "
      "sha_ni=%s, matmul cutoff=%zu bytes\n\n",
      hardware, threads,
      pool_serial ? " (serial pool — Nt columns skipped)" : "", trials,
      simd::cpu_has_sha_ni() ? "yes" : "no",
      kernels::effective_matmul_cutoff_bytes(serial));

  const auto time_backend = [&](simd::Backend b, const auto& fn) {
    simd::force_backend(b);
    const bench::TrialStats stats = bench::run_trials(fn, trials);
    simd::clear_forced_backend();
    return stats;
  };

  std::printf("%-24s %13s %13s %13s %13s %13s\n", "shape (GFLOP-equiv)",
              "naive scalar", "naive simd", "blocked 1t", "blocked Nt",
              "dispatch");

  Rng rng(4242);
  std::vector<CaseResult> results;
  for (const ShapeCase& shape : kShapes) {
    const RingTensor ra = random_ring(Shape{shape.m, shape.k}, rng);
    const RingTensor rb = random_ring(Shape{shape.k, shape.n}, rng);
    const RealTensor da = random_real(Shape{shape.m, shape.k}, rng);
    const RealTensor db = random_real(Shape{shape.k, shape.n}, rng);

    // Correctness gate before timing: every ring kernel must agree
    // exactly with the scalar naive reference, on every backend.
    simd::force_backend(simd::Backend::kScalar);
    const RingTensor reference = kernels::matmul_naive(ra, rb);
    simd::clear_forced_backend();
    if (kernels::matmul_naive(ra, rb) != reference ||
        kernels::matmul_blocked(serial, ra, rb) != reference ||
        kernels::matmul_blocked(parallel, ra, rb) != reference ||
        kernels::matmul(serial, ra, rb) != reference ||
        kernels::matmul(parallel, ra, rb) != reference) {
      std::fprintf(stderr, "FATAL: ring kernel mismatch on %s\n",
                   shape.name.c_str());
      return 1;
    }

    CaseResult result;
    result.shape = shape;
    result.ring.naive_scalar = time_backend(simd::Backend::kScalar, [&] {
      bench::do_not_optimize(kernels::matmul_naive(ra, rb)[0]);
    });
    result.ring.naive_simd = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul_naive(ra, rb)[0]);
    });
    result.ring.blocked_1t = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul_blocked(serial, ra, rb)[0]);
    });
    if (!pool_serial) {
      result.ring.blocked_nt = time_backend(simd_backend, [&] {
        bench::do_not_optimize(kernels::matmul_blocked(parallel, ra, rb)[0]);
      });
    }
    result.ring.dispatch = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul(serial, ra, rb)[0]);
    });

    result.real.naive_scalar = time_backend(simd::Backend::kScalar, [&] {
      bench::do_not_optimize(kernels::matmul_naive(da, db)[0]);
    });
    result.real.naive_simd = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul_naive(da, db)[0]);
    });
    result.real.blocked_1t = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul_blocked(serial, da, db)[0]);
    });
    if (!pool_serial) {
      result.real.blocked_nt = time_backend(simd_backend, [&] {
        bench::do_not_optimize(kernels::matmul_blocked(parallel, da, db)[0]);
      });
    }
    result.real.dispatch = time_backend(simd_backend, [&] {
      bench::do_not_optimize(kernels::matmul(serial, da, db)[0]);
    });
    results.push_back(result);

    const auto print_row = [&](const char* tag, const MatmulStats& stats) {
      char nt_column[32];
      if (pool_serial) {
        std::snprintf(nt_column, sizeof(nt_column), "%13s", "-");
      } else {
        std::snprintf(nt_column, sizeof(nt_column), "%13.3f",
                      gflops(shape, stats.blocked_nt.median_s));
      }
      std::printf("%-24s %13.3f %13.3f %13.3f %s %13.3f  (%s)\n",
                  tag == std::string("ring") ? shape.name.c_str() : "",
                  gflops(shape, stats.naive_scalar.median_s),
                  gflops(shape, stats.naive_simd.median_s),
                  gflops(shape, stats.blocked_1t.median_s), nt_column,
                  gflops(shape, stats.dispatch.median_s), tag);
    };
    print_row("ring", result.ring);
    print_row("double", result.real);
  }

  // The acceptance headline: the dispatcher (what the protocols call)
  // against the PR-3 baseline (serial naive matmul without SIMD).
  double ring_geomean = 1.0;
  for (const CaseResult& result : results) {
    ring_geomean *=
        result.ring.naive_scalar.median_s / result.ring.dispatch.median_s;
  }
  ring_geomean =
      std::pow(ring_geomean, 1.0 / static_cast<double>(results.size()));
  std::printf("\ngeomean ring speedup (dispatch vs scalar naive 1t): %.2fx\n",
              ring_geomean);

  // ---- Elementwise / digest micro-kernels: scalar vs SIMD. ----
  // 512 u64 per operand: all three operands sit inside L1 (so the
  // columns measure the kernels, not the memory system) and the length
  // matches the per-row spans the matmul/elementwise paths actually
  // sweep (n = 10..1960 on the Table I shapes).
  constexpr std::size_t kElems = 512;
  const RingTensor ma = random_ring(Shape{kElems}, rng);
  const RingTensor mb = random_ring(Shape{kElems}, rng);
  RingTensor mdst(Shape{kElems});
  std::vector<MicroResult> micro;

  const auto micro_case = [&](const std::string& name, std::size_t bytes,
                              const auto& fn) {
    MicroResult result;
    result.name = name;
    result.bytes = bytes;
    result.scalar = time_backend(simd::Backend::kScalar, fn);
    result.simd = time_backend(simd_backend, fn);
    micro.push_back(result);
  };

  micro_case("ring_add", kElems * 8, [&] {
    simd::ring_add(mdst.data(), ma.data(), mb.data(), kElems);
    bench::do_not_optimize(mdst[0]);
  });
  micro_case("ring_hadamard", kElems * 8, [&] {
    simd::ring_mul(mdst.data(), ma.data(), mb.data(), kElems);
    bench::do_not_optimize(mdst[0]);
  });
  micro_case("ring_truncate", kElems * 8, [&] {
    simd::ring_truncate(mdst.data(), ma.data(), 16, kElems);
    bench::do_not_optimize(mdst[0]);
  });
  micro_case("ring_axpy", kElems * 8, [&] {
    simd::ring_axpy(mdst.data(), 0x9E3779B97F4A7C15ull, ma.data(), kElems);
    bench::do_not_optimize(mdst[0]);
  });

  // The commitment digest micro-kernel: one long single-stream hash.
  Bytes sha_payload(3 * 65536);
  for (std::size_t i = 0; i < sha_payload.size(); ++i) {
    sha_payload[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  micro_case("sha256_single_192KiB", sha_payload.size(), [&] {
    bench::do_not_optimize(Sha256::hash(sha_payload)[0]);
  });

  std::printf("\n%-24s %13s %13s %9s   (micro-kernels, GB/s)\n", "kernel",
              "scalar", backend, "speedup");
  double micro_geomean = 1.0;
  for (const MicroResult& result : micro) {
    const double gb = static_cast<double>(result.bytes) / 1e9;
    std::printf("%-24s %13.3f %13.3f %8.2fx\n", result.name.c_str(),
                gb / result.scalar.median_s, gb / result.simd.median_s,
                result.speedup());
    micro_geomean *= result.speedup();
  }
  micro_geomean =
      std::pow(micro_geomean, 1.0 / static_cast<double>(micro.size()));
  std::printf("geomean micro speedup (%s vs scalar): %.2fx\n", backend,
              micro_geomean);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"format\": \"trustddl.bench_kernels.v2\",\n");
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hardware);
    std::fprintf(out, "  \"pool_threads\": %zu,\n", threads);
    std::fprintf(out, "  \"pool_serial\": %s,\n",
                 pool_serial ? "true" : "false");
    std::fprintf(out, "  \"simd_backend\": \"%s\",\n", backend);
    std::fprintf(out, "  \"sha_ni\": %s,\n",
                 simd::cpu_has_sha_ni() ? "true" : "false");
    std::fprintf(out, "  \"trials\": %d,\n", trials);
    std::fprintf(out, "  \"metric\": \"seconds_per_iteration\",\n");
    std::fprintf(out,
                 "  \"ring_geomean_speedup_dispatch_vs_scalar_naive\": "
                 "%.4f,\n",
                 ring_geomean);
    std::fprintf(out, "  \"micro_geomean_speedup_simd_vs_scalar\": %.4f,\n",
                 micro_geomean);
    std::fprintf(out, "  \"shapes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(out, "    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, "
                        "\"n\": %zu,\n",
                   r.shape.name.c_str(), r.shape.m, r.shape.k, r.shape.n);
      const auto print_domain = [&](const char* key, const MatmulStats& s,
                                    const char* trailer) {
        std::fprintf(out, "     \"%s\": {", key);
        print_json_stats(out, "naive_scalar_1t", s.naive_scalar, true, ", ");
        print_json_stats(out, "naive_simd_1t", s.naive_simd, true, ",\n"
                                                                  "               ");
        print_json_stats(out, "blocked_1t", s.blocked_1t, true, ", ");
        print_json_stats(out, "blocked_nt", s.blocked_nt, !pool_serial,
                         ",\n               ");
        print_json_stats(out, "dispatch_1t", s.dispatch, true, "");
        std::fprintf(out, "}%s\n", trailer);
      };
      print_domain("ring", r.ring, ",");
      print_domain("double", r.real, i + 1 < results.size() ? "}," : "}");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"micro\": [\n");
    for (std::size_t i = 0; i < micro.size(); ++i) {
      const MicroResult& r = micro[i];
      std::fprintf(out, "    {\"name\": \"%s\", \"bytes\": %zu,\n     ",
                   r.name.c_str(), r.bytes);
      print_json_stats(out, "scalar", r.scalar, true, ", ");
      print_json_stats(out, "simd", r.simd, true, ",\n     ");
      std::fprintf(out, "\"speedup_simd_vs_scalar\": %.4f}%s\n", r.speedup(),
                   i + 1 < micro.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
