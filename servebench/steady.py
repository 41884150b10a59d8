#!/usr/bin/env python3
"""Steadiness check for the serving benchmark, run from the repository root.

    python3 servebench/steady.py [--runs 10] [--workloads W ...] [--out runs.jsonl]
    python3 servebench/steady.py --analyze runs.jsonl

Runs every workload --runs times in each of two sets, A and B, with seed
1..--runs, interleaving the sets run by run (A then B, then B then A, ...)
the way a parent/change comparison alternates. For every end-to-end
metric of BENCHMARK.json it prints, per set, the median and the spread
(distance between the first and third quartile, as a share of the
median), and the B-over-A change of the median in the metric's worse
direction. A metric is steady when its spread and that change both stay
within its bound; the table flags the rest. Each run's result and
diagnostics line go to --out as one JSON object per line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2].split(": ", 1)[1])
    return {"result": json.loads(lines[-1]), "diagnostics": diagnostics}


def analyze(records, bench):
    worst = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        print(f"\n{workload}")
        print(f"  {'metric':24} {'median A':>12} {'median B':>12} {'spread A':>9} "
              f"{'spread B':>9} {'B vs A':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for label in "AB":
                sets[label] = [r["result"]["metrics"][name]["value"] for r in records
                               if r["workload"] == workload and r["set"] == label]
            if min(len(v) for v in sets.values()) < 2:
                continue
            med = {k: statistics.median(v) for k, v in sets.items()}
            spr = {k: spread(v) for k, v in sets.items()}
            change = (med["B"] - med["A"]) / med["A"]
            if metric["better"] == "higher":
                change = -change
            # setup_s's spread is not bounded, only the change of its median.
            limit = bound / 3
            flags = ""
            if name != "setup_s" and max(spr.values()) > limit:
                flags += " spread>bound/3"
            if change > limit:
                flags += " change>bound/3"
            if (name != "setup_s" and max(spr.values()) > bound) or change > bound:
                flags += " FAIL"
                worst = False
            print(f"  {name:24} {med['A']:12.5g} {med['B']:12.5g} {spr['A']:9.3f} "
                  f"{spr['B']:9.3f} {change:8.3f} {bound:6.2f}{flags}")
        steal = [r["diagnostics"]["steal_pct"] for r in records if r["workload"] == workload]
        calib = [r["diagnostics"]["calibration_s"] for r in records if r["workload"] == workload]
        print(f"  steal% min/median/max {min(steal):.1f}/{statistics.median(steal):.1f}/"
              f"{max(steal):.1f}; calibration_s {min(calib):.3f}..{max(calib):.3f}")
    return worst


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=".bench_build/steady.jsonl")
    parser.add_argument("--analyze", help="only analyze a previous --out file")
    args = parser.parse_args()
    if args.analyze:
        with open(args.analyze) as f:
            records = [json.loads(line) for line in f]
        sys.exit(0 if analyze(records, bench) else 1)

    records = []
    with open(args.out, "w") as out:
        for i in range(args.runs):
            seed = 1 + i
            for workload in args.workloads:
                for label in ("AB" if i % 2 == 0 else "BA"):
                    record = run_once(workload, seed, bench["run_seconds"])
                    record.update(workload=workload, seed=seed, set=label)
                    records.append(record)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"run {i + 1}/{args.runs} {workload} set {label} seed {seed} "
                          f"steal {record['diagnostics']['steal_pct']:.1f}%", flush=True)
    sys.exit(0 if analyze(records, bench) else 1)


if __name__ == "__main__":
    main()
