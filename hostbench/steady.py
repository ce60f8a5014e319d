#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 hostbench/steady.py --workload irregular-full --runs 10

Run it from the repository root. Run i (from 1) is the benchmark command
of BENCHMARK.json with `--workload W --seed i --seconds <run_seconds>
--trace 0`; only untraced runs print the bounded metrics. The spread is the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median; a metric is WIDE when it exceeds the metric's bound and STEADY
when it stays below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} exited {proc.returncode} without a result")
    return json.loads(lines[-1]), elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares, correct = {}, set(), True
    for seed in range(1, args.runs + 1):
        res, elapsed = run_once(bench["command"], args.workload, seed, seconds)
        correct &= res["correct"]
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {elapsed:6.1f}s  correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, all correct={correct}, "
          f"failed/attempted={sorted(shares)}")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        verdict = "WIDE" if spread > bound else ("STEADY" if spread < bound / 3 else "ok")
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound:6.2f} {verdict}")


if __name__ == "__main__":
    main()
