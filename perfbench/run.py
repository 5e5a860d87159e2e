#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run builds the TrustDDL
libraries and the perfbench executable under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build.

--trace 0 splits the run over PROCESSES[workload] fresh processes, each
timing --seconds / n.  They get the same inputs, except that the
serve-lan processes take consecutive slices of one arrival schedule.
The figures are pooled: Harrell-Davis latency percentiles over every
process's samples, throughput, CPU and bytes as totals over totals, and
medians of setup_s and peak memory.  Fresh processes make every setup_s
sample pay the first-use costs a user pays, and pooling turns a process
that runs slow into a 1/n share of the run's figures.  The processes'
revealed-weight digests must agree.
--trace 1 runs one untraced and one traced process on the first slice,
prints the traced process's per-layer metrics and adds trace_overhead,
the traced throughput as a share of the untraced one.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics.  Any build or run failure exits non-zero without it.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Processes per run.  A single serve-lan process's figures move by ~10%
# from one process to the next on a 4-core host, so it pools more.
PROCESSES = {"serve-lan": 5, "train-tcp": 3, "byzantine-lan": 3}
# Whole-run budget; the first run of a checkout also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the perfbench target; returns its path."""
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as handle:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in handle.read():
                shutil.rmtree(out_dir)  # configured for another checkout
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.exists(cache):
        try:
            subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_BUDGET_S)
        except subprocess.SubprocessError:
            shutil.rmtree(out_dir, ignore_errors=True)  # retry from scratch
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out_dir, "perfbench")


def run_once(binary, args, part, parts, trace, deadline):
    """Process `part` of a run's `parts`; returns its parsed JSON result."""
    out_dir = os.path.dirname(binary)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / parts),
               "--part", str(part), "--parts", str(parts),
               "--trace", "1" if trace else "0",
               "--trace-dir", os.path.join(out_dir, "trace")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def beta_cdf(x, a, b):
    """Regularized incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for step in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + step * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + step / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return front * h


def quantile(values, q):
    """Harrell-Davis quantile: a Beta-weighted mean of every order
    statistic.  A run pools a few dozen latencies, and the plain sample
    p90 of so few rests on the largest two or three."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:]))


def throughput(workload, result):
    if workload == "serve-lan":
        return result["burst_rps"]
    return result["ops"] / result["window_s"]


def end_to_end(workload, results):
    """Pool per-process figures into the end-to-end metrics."""
    latencies = [x for result in results for x in result["latency_ms"]]
    ops = sum(result["ops"] for result in results)

    def median(key):
        return statistics.median(result[key] for result in results)

    def per_op(key):
        return sum(result[key] for result in results) / ops

    # Every process times the same number of operations (burst requests,
    # samples), so the harmonic mean of their rates is total operations
    # over total time.
    rate = statistics.harmonic_mean(
        [throughput(workload, result) for result in results])
    values = {
        "setup_s": (median("setup_s"), "s"),
        "p50_ms": (quantile(latencies, 0.5), "ms"),
        "p90_ms": (quantile(latencies, 0.9), "ms"),
        "ops_per_s": (rate, "1/s"),
        "cpu_ms_per_op": (per_op("cpu_s") * 1e3, "ms"),
        "mb_per_op": (per_op("bytes") / 2**20, "MB"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    log(f"{len(latencies)} latency samples over {len(results)} processes")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=PROCESSES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.SubprocessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    parts = PROCESSES[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            untraced = run_once(binary, args, 0, parts, False, deadline)
            traced = run_once(binary, args, 0, parts, True, deadline)
            results = [untraced, traced]
            metrics = dict(traced["per_layer"])
            metrics["trace_overhead"] = {
                "value": throughput(args.workload, traced) /
                         throughput(args.workload, untraced),
                "unit": "ratio"}
            counted = [traced]
        else:
            results = [run_once(binary, args, part, parts, False, deadline)
                       for part in range(parts)]
            metrics = end_to_end(args.workload, results)
            counted = results
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            IndexError, ZeroDivisionError, statistics.StatisticsError) as error:
        log(f"run failed: {error}")
        return 1

    correct = all(result["correct"] for result in results)
    digests = {result["digest"] for result in results}
    if len(digests) > 1:
        log(f"revealed weights differ between processes: {sorted(digests)}")
        correct = False
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in counted),
                      "failed": sum(int(r["failed"]) for r in counted),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
