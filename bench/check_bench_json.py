#!/usr/bin/env python3
"""Bench-regression gate: compare fresh BENCH_*.json files against committed
baselines and fail on significant regressions of the named hot metrics.

Usage (from the build directory, after running the benches):

    python3 ../bench/check_bench_json.py \
        --fresh BENCH_micro.json --baseline ../bench/baselines/BENCH_micro.json
    python3 ../bench/check_bench_json.py \
        --fresh BENCH_fig10.json --baseline ../bench/baselines/BENCH_fig10.json \
        --metrics total_seconds --threshold 0.5

A metric "regresses" when its fresh real_ns (or the named counter, for
figure JSONs) exceeds the baseline by more than --threshold (default 0.25 =
25%). Improvements never fail the gate.

Concurrency acceptance: with --check-concurrency (and >= --min-cpus CPUs),
the script additionally requires the scratch-arena concurrent-inference
bench to beat the mutex-serialized contrast bench by --speedup x aggregate
throughput (items_per_second). One run of each is too noisy to judge (the
ratio has read 0.73x to 2.57x on one box), so the check compares the
medians of at least CONCURRENT_REPETITIONS repetitions of each
(--benchmark_repetitions), read from the JSON named after the flag
(default: --fresh). The Bench-regression gate step of
.github/workflows/ci.yml runs the pair that way.

Re-baselining: benchmark numbers are machine-specific, so after an
intentional perf change (or a runner generation change) regenerate the
baselines on the CI runner class and commit them. RESTORE_NUM_THREADS=1 is
MANDATORY for bench_micro — it is what the CI gate step runs under (see
.github/workflows/ci.yml); a pool-parallel baseline would make every
subsequent width-1 gate run look like a regression:

    cd build && RESTORE_NUM_THREADS=1 ./bench_micro
    ./bench_fig10_selection > /dev/null
    ./bench_server
    cp BENCH_micro.json BENCH_fig10.json BENCH_server.json ../bench/baselines/
"""

import argparse
import json
import os
import statistics
import sys

# Hot metrics gated by default, keyed by the basename of the fresh JSON
# (--metrics overrides). Matched as exact names after normalization (see
# find_record); threading/real_time suffixes in google-benchmark names are
# tolerated via prefix match.
#
# BENCH_micro.json: BM_DbQps is the Db-level end-to-end serving bench
# (concurrent sessions, cache disabled, pre-trained models): it guards the
# completion plumbing AROUND the models, which the model-only benches cannot
# see. BM_CompleteViaPath and BM_CompleteTable complete one four-table
# movies path (the relational half of cold completion: the row-id join, the
# synthesized blocks and the final column writes). BM_IngestRefresh is the
# live-data loop (Append -> RefreshStaleModels -> query); it is dominated by
# retraining, so it guards the ingest/publish/hot-swap plumbing rather than
# kernel speed.
#
# BENCH_server.json (bench_server, the HTTP load harness): real_ns is the
# mean per-request latency of each phase. Its committed baseline was
# bootstrapped on a 1-CORE box — like the BENCH_micro baseline — and network
# latency percentiles are noisier than in-process timings, so the CI gate
# runs it with --threshold 1.0 until a few runner generations of data
# justify tightening.
DEFAULT_METRICS_BY_FILE = {
    "BENCH_micro.json": [
        "BM_MadeForward/256",
        "BM_MadeSample/512",
        "BM_MadeSampleSliced/512",
        "BM_MadeSampleHop",
        "BM_MadePredictTf",
        "BM_ConcurrentInference",
        "BM_DbQps",
        "BM_CompleteViaPath",
        "BM_CompleteTable",
        "BM_IngestRefresh",
        "BM_DriftCheck",
    ],
    "BENCH_server.json": [
        "ServerHealthz",
        "ServerQuery",
    ],
}
# Unknown basenames fall back to the micro list (the historical behavior).
DEFAULT_METRICS = DEFAULT_METRICS_BY_FILE["BENCH_micro.json"]

CONCURRENT_BENCH = "BM_ConcurrentInference"
CONCURRENT_MUTEX_BENCH = "BM_ConcurrentInferenceMutex"
CONCURRENT_THREADS = 4
CONCURRENT_REPETITIONS = 5


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    records = doc.get("benchmarks", [])
    if not isinstance(records, list):
        raise SystemExit(f"{path}: 'benchmarks' is not a list")
    return records


def find_record(records, metric):
    """Exact name match first; else component-prefix match (tolerates
    google-benchmark suffixes like /real_time or /threads:4 — but
    'BM_Foo' must not match 'BM_FooBar/...')."""
    exact = [r for r in records if r.get("name") == metric]
    if exact:
        return exact[0]
    prefixed = [r for r in records
                if str(r.get("name", "")).startswith(metric + "/")]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        # Prefer the highest thread count (the concurrency acceptance shape).
        def threads(r):
            name = r["name"]
            if "/threads:" in name:
                return int(name.rsplit("/threads:", 1)[1].split("/")[0])
            return 1

        return max(prefixed, key=threads)
    return None


def metric_value(record, counter):
    # WriteBenchJson flattens counters (e.g. items_per_second) into the
    # record object itself, next to real_ns/cpu_ns.
    key = counter if counter else "real_ns"
    if key in record:
        return float(record[key])
    return None


def repetitions(records, name, counter):
    """The counter of every record named exactly `name`: one per repetition
    (google-benchmark's _mean/_median/... aggregates carry suffixed names)."""
    values = [metric_value(r, counter) for r in records
              if r.get("name") == name]
    return [v for v in values if v]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--metrics", nargs="*", default=None,
        help="benchmark names to gate (default: the per-file hot metrics "
             "from DEFAULT_METRICS_BY_FILE, chosen by the --fresh basename)")
    parser.add_argument(
        "--all-metrics", action="store_true",
        help="gate every record present in the baseline (figure JSONs)")
    parser.add_argument(
        "--counter", default="",
        help="gate this counter instead of real_ns (for figure JSONs)")
    parser.add_argument(
        "--higher-is-better", action="store_true",
        help="the gated value is a quality metric: a DECREASE regresses")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative regression (0.25 = 25%%)")
    parser.add_argument(
        "--min-baseline", type=float, default=0.0,
        help="skip records whose |baseline| value is below this (relative "
             "regression is meaningless near zero)")
    parser.add_argument(
        "--check-concurrency", nargs="?", const="", default=None,
        metavar="JSON",
        help="also require the scratch-arena >2x win over the mutex-"
             "serialized concurrency bench, in the medians of at least "
             f"{CONCURRENT_REPETITIONS} repetitions of each, read from JSON "
             "(default: --fresh)")
    parser.add_argument(
        "--require-counters", action="append", default=[],
        metavar="BENCH:c1,c2,...",
        help="fail unless the named fresh record carries every listed "
             "counter (validates e.g. that BM_DbQps emits its ExecStats "
             "fields into the JSON); repeatable")
    parser.add_argument("--speedup", type=float, default=2.0)
    parser.add_argument("--min-cpus", type=int, default=4,
                        help="skip the concurrency check below this core "
                             "count (the win needs real parallelism)")
    args = parser.parse_args()

    fresh = load_records(args.fresh)
    base = load_records(args.baseline)
    failures = []

    metrics = args.metrics
    if metrics is None:
        metrics = DEFAULT_METRICS_BY_FILE.get(
            os.path.basename(args.fresh), DEFAULT_METRICS)
    if args.all_metrics:
        metrics = [r["name"] for r in base]

    for metric in metrics:
        f_rec = find_record(fresh, metric)
        b_rec = find_record(base, metric)
        if f_rec is None:
            failures.append(f"{metric}: missing from {args.fresh}")
            continue
        if b_rec is None:
            print(f"  NEW    {metric}: no baseline yet "
                  f"(commit one to start gating it)")
            continue
        f_val = metric_value(f_rec, args.counter)
        b_val = metric_value(b_rec, args.counter)
        if f_val is None or b_val is None or b_val == 0:
            failures.append(f"{metric}: no comparable value")
            continue
        if abs(b_val) < args.min_baseline:
            print(f"  SKIP   {metric}: baseline {b_val:.3f} below "
                  f"--min-baseline {args.min_baseline}")
            continue
        if args.higher_is_better:
            rel = (b_val - f_val) / abs(b_val)
        else:
            rel = (f_val - b_val) / abs(b_val)
        verdict = "OK" if rel <= args.threshold else "REGRESSED"
        print(f"  {verdict:9s}{f_rec['name']}: baseline {b_val:.3f}, "
              f"fresh {f_val:.3f} ({rel:+.1%}, limit +{args.threshold:.0%})")
        if rel > args.threshold:
            failures.append(
                f"{metric}: {rel:+.1%} vs baseline (limit +{args.threshold:.0%})")

    for spec in args.require_counters:
        bench_name, _, counter_list = spec.partition(":")
        counters = [c for c in counter_list.split(",") if c]
        record = find_record(fresh, bench_name)
        if record is None:
            failures.append(
                f"{bench_name}: missing from {args.fresh} "
                f"(--require-counters)")
            continue
        missing = [c for c in counters if c not in record]
        if missing:
            failures.append(
                f"{record['name']}: missing counters {missing}")
        else:
            print(f"  OK       {record['name']}: emits "
                  f"{len(counters)} required counters")

    if args.check_concurrency is not None:
        cpus = os.cpu_count() or 1
        if cpus < args.min_cpus:
            print(f"  SKIP   concurrency speedup check: {cpus} CPUs "
                  f"< {args.min_cpus}")
        else:
            source = args.check_concurrency or args.fresh
            records = load_records(source)
            suffix = f"/real_time/threads:{CONCURRENT_THREADS}"
            arena = repetitions(records, CONCURRENT_BENCH + suffix,
                                "items_per_second")
            mutex = repetitions(records, CONCURRENT_MUTEX_BENCH + suffix,
                                "items_per_second")
            if min(len(arena), len(mutex)) < CONCURRENT_REPETITIONS:
                failures.append(
                    f"concurrency benches need >= {CONCURRENT_REPETITIONS} "
                    f"repetitions each with items_per_second in {source}, "
                    f"found {len(arena)} and {len(mutex)}")
            else:
                ratio = statistics.median(arena) / statistics.median(mutex)
                verdict = "OK" if ratio > args.speedup else "TOO SLOW"
                print(f"  {verdict:9s}scratch-arena vs mutex-serialized "
                      f"aggregate throughput, medians of {len(arena)} and "
                      f"{len(mutex)} runs: {ratio:.2f}x "
                      f"(required > {args.speedup:.1f}x)")
                if ratio <= args.speedup:
                    failures.append(
                        f"concurrent inference speedup {ratio:.2f}x <= "
                        f"{args.speedup:.1f}x")

    if failures:
        print("\nBench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        print("(intentional change? re-baseline per the header of "
              "bench/check_bench_json.py)")
        return 1
    print("Bench gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
