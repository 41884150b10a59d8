#!/usr/bin/env python3
"""Smoke self-test of the serving benchmark, run from the repository root.

    python3 servebench/smoke_test.py

Runs every workload for a few scripts on a tiny corpus,
untraced and traced, and checks that each run prints the result object
with every metric name and unit BENCHMARK.json declares; that the same
seed prepares byte-identical command streams; and that the payload check
flags an injected wrong payload. Exits non-zero on the first failure.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

TINY = ["--nodes", "5000", "--scripts", "6", "--seconds", "1"]
# BENCHMARK.json's workloads plus canvas_typing, which run.py keeps
# runnable outside the benchmark.
WORKLOADS = ["canvas_typing", "twig_rank", "relax_rewrite"]


def fail(message):
    sys.exit("smoke_test: FAIL: " + message)


def run(workload, trace, extra=()):
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", "7",
         "--trace", str(trace), *TINY, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, expected_units, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected_units:
        missing = sorted(set(expected_units) - set(units))
        extra = sorted(set(units) - set(expected_units))
        wrong = sorted(n for n in units if n in expected_units and units[n] != expected_units[n])
        fail(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"{label}: {name} is not a number")


def check_deterministic_streams(workload):
    tool = os.path.join(".bench_build", "servebench", "servebench")
    dirs = [os.path.join(".bench_build", f"smoke-{workload}-{i}") for i in (0, 1)]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        subprocess.run([tool, "prepare", "--workload", workload, "--seed", "7",
                        "--scripts", "8", "--warmup-scripts", "1", "--nodes", "5000",
                        "--dir", d],
                       check=True, stdout=subprocess.DEVNULL)
    for name in ("commands.stream", "corpus.xml"):
        if not filecmp.cmp(os.path.join(dirs[0], name), os.path.join(dirs[1], name),
                           shallow=False):
            fail(f"{workload}: {name} differs between two prepares of one seed")
    for d in dirs:
        shutil.rmtree(d)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {metric["name"]: metric["unit"] for metric in bench[group]}
        for workload in WORKLOADS:
            check_result(run(workload, trace), expected, f"{workload} trace={trace}")
            print(f"ok  {workload} trace={trace}: {len(expected)} metrics", flush=True)
    for workload in WORKLOADS:
        check_deterministic_streams(workload)
        print(f"ok  {workload}: identical streams for one seed", flush=True)
    corrupted = run(WORKLOADS[0], 0, ["--corrupt-command", "3"])
    if corrupted["correct"] is not False or corrupted["failed"] != 1:
        fail(f"injected wrong payload not flagged: {corrupted}")
    print("ok  injected wrong payload flagged as 1 failed command")


if __name__ == "__main__":
    main()
