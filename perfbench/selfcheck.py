#!/usr/bin/env python3
"""The benchmark's own test: exact repeats per seed, and a second seed.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seconds S] [--seeds A,B] [workload ...]

For each workload (default: all three) it runs perfbench/run.py three times:
seed A untraced, seed A traced, and seed B untraced. Every run must pass its
correctness gate. The two seed-A runs must agree bit for bit on the exact
fingerprint: counts, score hashes and quality numbers. The traced run also
checks that its traced measurement repeats its untraced one. Seed B must
produce a different fingerprint, so no workload is tuned to one seed.
A short --seconds keeps the check cheap; the fingerprint is a function of
(seed, seconds), so all runs of one check use the same value.
Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "churn", "train")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-2000:])
    if len(lines) < 2:
        return None, None, "no result (exit code %d)" % proc.returncode
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return info, result, "failed its correctness gate"
    return info, result, None


def check(workload, seeds, seconds):
    problems = []
    runs = {}
    for label, seed, trace in (("A", seeds[0], 0), ("A traced", seeds[0], 1),
                               ("B", seeds[1], 0)):
        info, _, error = run(workload, seed, seconds, trace)
        if error:
            problems.append("seed %d (%s): %s" % (seed, label, error))
        runs[label] = info
        if info is not None:
            print("%s seed %d%s: %s" % (workload, seed,
                                        " traced" if trace else "",
                                        json.dumps(info["fingerprint"])))
    a, a2, b = runs["A"], runs["A traced"], runs["B"]
    if a and a2 and a["fingerprint"] != a2["fingerprint"]:
        diff = sorted(k for k in a["fingerprint"]
                      if a["fingerprint"][k] != a2["fingerprint"].get(k))
        problems.append("unsteady: two runs of seed %d differ on %s"
                        % (seeds[0], ", ".join(diff)))
    if a and b and a["fingerprint"] == b["fingerprint"]:
        problems.append("seeds %d and %d gave the same fingerprint"
                        % tuple(seeds))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads:
        if workload not in WORKLOADS:
            parser.error("unknown workload %r" % workload)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) != 2 or seeds[0] == seeds[1]:
        parser.error("--seeds takes two different seeds")
    problems = []
    for workload in args.workloads:
        problems += ["%s: %s" % (workload, p)
                     for p in check(workload, seeds, args.seconds)]
    for p in problems:
        print("selfcheck: FAILED: " + p, file=sys.stderr)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
