#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {fleet,churn,train} --seed N \
        --seconds S --trace {0,1}

The script builds perfbench/perfbench.cc together with the library sources
(CMake; build tree in $CARGO_TARGET_DIR, default .bench_build/), runs the
binary with the workload's pinned compute-thread count and no other IMDIFF_*
variable, and prints one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, read from the metrics-registry
snapshots the binary takes around its last set-up and its traced timed
region. The line before the result holds the run's exact fingerprint and
quality numbers. perfbench/README.md explains every workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Compute threads per workload (IMDIFF_NUM_THREADS). Never the host's core
# count: served-vs-serial scores are bitwise identical at these counts, and
# the measured throughput does not follow the machine's size.
THREADS = {"fleet": 2, "churn": 2, "train": 2}

# The contract allows 180 s per run; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "points_per_s": "1/s",
    "alert_p50_ms": "ms",
    "alert_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

MB = 1024.0 * 1024.0


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no library sources next to perfbench/", file=log)
        return None
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], stdout=log, stderr=log) != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("IMDIFF_")}
    env["IMDIFF_NUM_THREADS"] = str(THREADS[args.workload])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def registry_delta(before, after):
    """Counter and histogram (count, sum) deltas between two snapshots."""
    counters = {k: v - before["counters"].get(k, 0)
                for k, v in after["counters"].items()}
    hists = {}
    for k, h in after["histograms"].items():
        b = before["histograms"].get(k, {"count": 0, "sum": 0.0})
        hists[k] = (h["count"] - b["count"], h["sum"] - b["sum"])
    return counters, hists, after["gauges"]


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(report):
    """The per-layer table of perfbench/README.md.

    Timed-region numbers come from the traced measurement; training numbers
    (and graph captures, which happen in the warm-up) from the traced run's
    last set-up."""
    reg = report["registry"]
    tc, th, gauges = registry_delta(reg["timed_before"], reg["timed_after"])
    sc, sh, _ = registry_delta(reg["setup_before"], reg["setup_after"])
    spans = report["spans"]
    units = max(1, report["units"])

    def both(name):
        return tc.get(name, 0) + sc.get(name, 0)

    def mean_ms(hists, name):
        count, total = hists.get(name, (0, 0.0))
        return 1e3 * ratio(total, count)

    hits, misses = tc.get("serve.cache_hits", 0), tc.get("serve.cache_misses", 0)
    batches = tc.get("serve.batches", 0)
    batched = tc.get("serve.batched_windows", 0)
    windows = tc.get("detector.windows_scored", 0)
    batch_score = th.get("serve.batch_score_seconds", (0, 0.0))
    if "core.score_s" in spans:  # train: harness-timed ScoreWindowBatch
        score_ms_per_window = 1e3 * ratio(spans["core.score_s"], windows)
    else:
        score_ms_per_window = 1e3 * ratio(batch_score[1], batched)
    arena_hits, arena_misses = both("arena.hits"), both("arena.misses")
    quality = report["quality"]
    m = {
        "serve.drain_s": (spans.get("serve.drain_s", 0.0), "s"),
        "serve.submit_s": (spans.get("serve.submit_s", 0.0), "s"),
        "serve.cache_hit_rate": (ratio(hits, hits + misses), "ratio"),
        "serve.windows_per_batch": (ratio(batched, batches), "count"),
        "serve.batches": (batches, "count"),
        "serve.batch_score_ms": (mean_ms(th, "serve.batch_score_seconds"),
                                 "ms"),
        "serve.sessions_evicted": (tc.get("serve.sessions_evicted", 0),
                                   "count"),
        "serve.sessions_rehydrated": (tc.get("serve.sessions_rehydrated", 0),
                                      "count"),
        "serve.requests_dropped": (tc.get("serve.requests_dropped", 0),
                                   "count"),
        "core.windows_scored": (windows, "count"),
        "core.score_ms_per_window": (score_ms_per_window, "ms"),
        "core.plan_ms": (1e3 * spans.get("core.plan_s", 0.0) / units, "ms"),
        "core.reduce_ms": (1e3 * spans.get("core.reduce_s", 0.0) / units,
                           "ms"),
        "core.missing_filled": (tc.get("online.missing_filled", 0), "count"),
        "core.fit_epoch_s": (mean_ms(sh, "train.epoch_seconds") / 1e3, "s"),
        "nn.train_step_ms": (mean_ms(sh, "train.step_seconds"), "ms"),
        "nn.train_steps": (sh.get("train.step_seconds", (0, 0.0))[0],
                           "count"),
        "graph.executions": (tc.get("graph.executions", 0), "count"),
        "graph.captures": (both("graph.captures"), "count"),
        "graph.plan_mb": (gauges.get("graph.plan_bytes", 0.0) / MB, "MB"),
        "graph.validation_failures": (both("graph.validation_failures"),
                                      "count"),
        "tensor.arena_hit_rate": (ratio(arena_hits, arena_hits + arena_misses),
                                  "ratio"),
        "tensor.arena_pooled_mb": (gauges.get("arena.pooled_bytes", 0.0) / MB,
                                   "MB"),
        "utils.pool_tasks": (tc.get("pool.tasks_executed", 0), "count"),
        "utils.pool_task_s": (th.get("pool.task_seconds", (0, 0.0))[1], "s"),
        "utils.pool_wait_s": (th.get("pool.queue_wait_seconds", (0, 0.0))[1],
                              "s"),
        "data.gen_s": (spans.get("data.gen_s", 0.0), "s"),
        "metrics.f1": (quality["f1"], "score"),
        "metrics.r_auc_pr": (quality["r_auc_pr"], "score"),
        "metrics.add_samples": (quality["add_samples"], "samples"),
        "trace.overhead_frac": (
            1.0 - ratio(report["traced_points_per_s"],
                        report["e2e"]["points_per_s"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    report = run_binary(binary, args)
    if report is None:
        print("perfbench: the benchmark binary failed", file=sys.stderr)
        return 1

    failures = list(report["failures"])
    failed = report["failed"]
    if report["threads"] != THREADS[args.workload]:
        failures.append("compute threads %d, expected %d"
                        % (report["threads"], THREADS[args.workload]))
        failed += 1
    if args.trace:
        metrics = per_layer(report)
    else:
        metrics = {k: {"value": report["e2e"][k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    for line in failures:
        print("perfbench: FAILED: " + line, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "units": report["units"],
        "latency_samples": report["latency_samples"],
        "quality": report["quality"],
        "fingerprint": report["fingerprint"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
