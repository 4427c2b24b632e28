#!/usr/bin/env python3
"""Builds and runs the ReStore end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The engine (../src) and the load generator
are built with CMake into .bench_build (or $CARGO_TARGET_DIR); the binary's
result line is checked against BENCHMARK.json -- every metric it names, with
its unit, and nothing else -- and re-printed as the last line of stdout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot-read", "cold-complete", "live-ingest"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "restore_perfbench")


def expected_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, expected):
    """Returns what is wrong with one result object against BENCHMARK.json."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in expected.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name] != unit:
            problems.append("metric %s in %s, expected %s" %
                            (name, got[name], unit))
    for name in got:
        if name not in expected:
            problems.append("metric %s not in BENCHMARK.json" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    return problems


def run_one(binary, workload, args, expected):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, RESTORE_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s exited with %d" % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    problems = check_result(result, expected)
    if problems:
        log("%s: %s" % (workload, "; ".join(problems)))
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and rates, for the benchmark's tests")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "restore", "db.h")):
        log("no engine sources next to %s" % HERE)
        return 1
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    expected = expected_metrics(spec, args.trace)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_one(binary, workload, args, expected)
        if result is None:
            return 1
        if args.workload == "all":
            print(workload, json.dumps(result), flush=True)
        else:
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
