#!/usr/bin/env python3
"""Steadiness check for the benchmark named in BENCHMARK.json.

Runs every workload in two interleaved sets of runs, each run on its own
seed, and prints for each end-to-end metric both sets' medians and
quartiles, the spread (interquartile distance over the median), the
drift of the second median from the first in the metric's worse
direction, and whether both stay within the metric's bound. It also
compares the share of failed operations between the sets, and
summarises the same way the figures each run prints as `name=value
unit` report lines but does not gate (no bound applies to them).

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

The first set uses seeds 1..runs, the second runs+1..2*runs. Run it
from the root of the repository. Runs are sequential: the benchmark
measures a loaded host, so nothing else should run beside it. Exits 0
when every metric agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["reported"] = {}
    for line in lines[:-1]:
        name, eq, rest = line.partition("=")
        words = rest.split()
        if eq and " " not in name and len(words) == 2:
            try:
                result["reported"][name] = float(words[0])
            except ValueError:
                pass
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    # results[set][workload] -> list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for i in range(args.runs):
        for s in range(SETS):
            seed = 1 + s * args.runs + i
            for w in workloads:
                r = run_once(bench, w, seed)
                results[s][w].append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)

    ok = True
    print()
    print(f"{'workload':<13} {'metric':<19} {'set':<4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'drift':>7}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = [summary([r["metrics"][name]["value"] for r in results[s][w]]) for s in range(SETS)]
            a, b = rows[0][0], rows[1][0]
            worse = (b - a) if m["better"] == "lower" else (a - b)
            drift = worse / a if a else 0.0
            agree = all(r[3] <= bound for r in rows) and drift <= bound
            steady = all(r[3] < bound / 3 for r in rows)
            ok &= agree
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else " (spread above bound/3)")
            for s, (med, q1, q3, spread) in enumerate(rows):
                d = f"{drift:+.3f}" if s == SETS - 1 else ""
                v = verdict if s == SETS - 1 else ""
                print(f"{w:<13} {name:<19} {s + 1:<4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.2f} {d:>7}  {v}")
        shares = [sum(r["failed"] for r in results[s][w]) / sum(r["attempted"] for r in results[s][w])
                  for s in range(SETS)]
        same = len(set(shares)) == 1
        ok &= same
        print(f"{w:<13} failed share per set: {shares} {'same' if same else 'DIFFERENT'}")
    reported = sorted({n for s in results for rs in s.values() for r in rs for n in r["reported"]})
    if reported:
        print()
        print("printed, not gated:")
    for w in workloads:
        for name in reported:
            rows = []
            for s in range(SETS):
                vals = [r["reported"][name] for r in results[s][w] if name in r["reported"]]
                if len(vals) == len(results[s][w]):
                    rows.append(summary(vals))
            for s, (med, q1, q3, spread) in enumerate(rows):
                shift = f"{rows[1][0] / rows[0][0] - 1:+.3f}" if s == 1 and len(rows) == 2 and rows[0][0] else ""
                print(f"{w:<13} {name:<19} {s + 1:<4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {'':>6} {shift:>7}")
    print("all metrics agree" if ok else "some metrics disagree")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
