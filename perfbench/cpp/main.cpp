// perfbench: one process of one benchmark workload.  Usually started by
// perfbench/run.py, which builds this program, runs several processes
// per workload and pools their figures into the end-to-end metrics.
//
//   perfbench --workload <serve-lan|train-tcp|byzantine-lan> --seed <n>
//             --seconds <s> [--part <k> --parts <n>] [--trace 0|1]
//             [--trace-dir <dir>]
//
// The last line on stdout is one JSON object: correct, attempted and
// failed, the raw timed-window figures (setup_s, peak_rss_mb, ops,
// window_s, cpu_s, bytes, latency_ms, burst_rps, digest) and, with
// --trace 1, the per-layer metrics.  Any exception exits with code 1
// and no result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-lan|train-tcp|"
               "byzantine-lan> --seed <n> --seconds <s> [--part <k> "
               "--parts <n>] [--trace 0|1] [--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.trace_dir = ".bench_build/perfbench-trace";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--part") {
      args.part = std::atoi(value.c_str());
    } else if (flag == "--parts") {
      args.parts = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0) || args.parts < 1 ||
      args.part < 0 || args.part >= args.parts) {
    return usage();
  }
  try {
    perfbench::Result result;
    if (args.workload == "serve-lan") {
      result = perfbench::run_serve_lan(args);
    } else if (args.workload == "train-tcp") {
      result = perfbench::run_train_tcp(args);
    } else if (args.workload == "byzantine-lan") {
      result = perfbench::run_byzantine_lan(args);
    } else {
      return usage();
    }
    if (args.trace) {
      perfbench::fill_missing_layers(result);
    }
    perfbench::print_result(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
