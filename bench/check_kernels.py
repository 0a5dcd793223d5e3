#!/usr/bin/env python3
"""Kernel perf-regression gate for CI.

Compares a freshly measured kernel sweep (bench_micro --kernels-out) against
the committed baseline BENCH_kernels.json and fails when any (kernel, variant)
row's throughput dropped by more than --max-drop (default 30%, loose enough
for shared CI runners but tight enough to catch a scalarized kernel or a
vectorization regression).

Throughput per row: gflops when the baseline reports one (> 0), then gbps —
memory-bound kernels (softmax, gelu, layernorm) report gflops as
0.000 but carry bandwidth — and finally 1 / seconds_per_op for rows that
report neither (composite kernels like block_score).

Rows present in the baseline but missing from the current sweep fail the gate
(a silently dropped benchmark is a regression in coverage, not a pass). New
rows in the current sweep are reported but do not fail.

Usage:
  check_kernels.py BASELINE CURRENT [--max-drop 0.30]
  check_kernels.py --self-test BASELINE

--self-test synthesizes a 50% slowdown of every baseline row and asserts the
gate trips on it (and that an identical copy passes): the CI gate proves on
every run that it is still capable of failing.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[(row["kernel"], row["variant"])] = row
    if not rows:
        sys.exit(f"error: no kernel rows in {path}")
    return rows


def throughput(baseline_row, row):
    # The BASELINE row decides the metric so both sides are compared in the
    # same units even if the current sweep starts reporting gflops.
    if baseline_row.get("gflops", 0.0) > 0.0:
        return row.get("gflops", 0.0)
    if baseline_row.get("gbps", 0.0) > 0.0:
        return row.get("gbps", 0.0)
    seconds = row.get("seconds_per_op", 0.0)
    return 1.0 / seconds if seconds > 0.0 else 0.0


def compare(baseline, current, max_drop):
    """Returns a list of failure strings; empty means the gate passes."""
    failures = []
    for key, base_row in sorted(baseline.items()):
        kernel, variant = key
        cur_row = current.get(key)
        if cur_row is None:
            failures.append(f"{kernel}/{variant}: missing from current sweep")
            continue
        base = throughput(base_row, base_row)
        cur = throughput(base_row, cur_row)
        if base <= 0.0:
            failures.append(f"{kernel}/{variant}: baseline throughput is 0")
            continue
        drop = 1.0 - cur / base
        status = "FAIL" if drop > max_drop else "ok"
        print(f"  {status:4s} {kernel}/{variant}: "
              f"{base:.3g} -> {cur:.3g} ({-drop:+.1%})")
        if drop > max_drop:
            failures.append(
                f"{kernel}/{variant}: throughput dropped {drop:.1%} "
                f"(limit {max_drop:.0%})")
    for key in sorted(set(current) - set(baseline)):
        print(f"  new  {key[0]}/{key[1]}: not in baseline (ignored)")
    return failures


def self_test(baseline, max_drop):
    identical = compare(baseline, dict(baseline), max_drop)
    if identical:
        sys.exit("self-test FAILED: identical sweep did not pass: "
                 + "; ".join(identical))
    slowed = {}
    for key, row in baseline.items():
        slow = dict(row)
        slow["seconds_per_op"] = row.get("seconds_per_op", 0.0) * 2.0
        slow["gflops"] = row.get("gflops", 0.0) * 0.5
        slow["gbps"] = row.get("gbps", 0.0) * 0.5
        slowed[key] = slow
    failures = compare(baseline, slowed, max_drop)
    if len(failures) != len(baseline):
        sys.exit("self-test FAILED: synthetic 50% slowdown tripped "
                 f"{len(failures)}/{len(baseline)} rows")
    print(f"self-test passed: 50% slowdown trips all {len(baseline)} rows, "
          "identical sweep passes")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="max tolerated relative throughput drop")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on a synthetic slowdown")
    args = parser.parse_args()

    baseline = load_doc(args.baseline)
    if args.self_test:
        self_test(baseline, args.max_drop)
        return
    if args.current is None:
        parser.error("CURRENT is required unless --self-test")
    current = load_doc(args.current)
    failures = compare(baseline, current, args.max_drop)
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        print("\nIf the regression is expected (e.g. an intentional "
              "algorithm change), update BENCH_kernels.json from a quiet "
              "machine or apply the 'allow-perf-regression' PR label.")
        sys.exit(1)
    print("perf gate passed")


if __name__ == "__main__":
    main()
