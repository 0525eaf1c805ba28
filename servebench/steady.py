#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs every workload in two sets of ten runs, each run on its own seed, and
prints for each end-to-end metric the median and quartile spread
((Q3 - Q1) / median, quartiles as ``statistics.quantiles(values, n=4)``
gives them) of each set, and whether the two sets agree: both spreads stay
within the metric's bound, the two medians differ by at most the bound (as
a share of the first), and both sets fail the same share of operations.
Every metric, ``setup_s`` included, is held to all three rules. The
command, run length, workloads and bounds come from ``BENCHMARK.json``.

Usage, from the repository root:

    python3 servebench/steady.py [--workload NAME ...]

Exits 0 when every metric of every workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
FIRST_SEED = 1


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    agree = True
    seed = FIRST_SEED
    for workload in workloads:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(bench["command"], workload, seed, seconds))
                seed += 1
            sets.append(runs)
        print(f"\n{workload}: {RUNS} runs per set, seeds "
              f"{seed - 2 * RUNS}..{seed - 1}, {seconds} s each")
        print(f"  {'metric':<22}{'median 1':>14}{'spread 1':>10}"
              f"{'median 2':>14}{'spread 2':>10}{'shift':>8}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            (med1, spr1), (med2, spr2) = (
                summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            shift = abs(med2 - med1) / med1
            ok = shift <= bound and spr1 <= bound and spr2 <= bound
            agree &= ok
            print(f"  {name:<22}{med1:>14.6g}{spr1:>10.3f}{med2:>14.6g}{spr2:>10.3f}"
                  f"{shift:>8.3f}{bound:>7}  {'agree' if ok else 'DISAGREE'}")
        shares = [
            {r["failed"] / r["attempted"] for r in runs} for runs in sets
        ]
        same = len(shares[0] | shares[1]) == 1
        agree &= same
        print(f"  failed share: {sorted(shares[0] | shares[1])}  "
              f"{'agree' if same else 'DISAGREE'}")
    print("\nall agree" if agree else "\nsome metrics disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
