#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, untraced and traced,
at tiny scale. Checks that each run is correct, emits exactly the metrics
BENCHMARK.json names with their units (run.py enforces that), and that the
traced run wrote its spans. Takes about half a minute after the build.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot-read", "cold-complete", "live-ingest"]
SEED = 7


def main():
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(failures)
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(SEED),
                   "--seconds", "2", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            label = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: correct=%s failed=%d" %
                                (label, result["correct"], result["failed"]))
            if trace:
                spans = os.path.join(ROOT, ".bench_out", "spans-%s-seed%d.json"
                                     % (workload, SEED))
                with open(spans) as f:
                    if not json.load(f):
                        failures.append("%s: no spans written" % label)
            print("ok  " if len(failures) == before else "FAIL", label,
                  flush=True)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
