"""One run of one workload: set-up, the timed closed loop, the oracle.

Closed loop, one client, one thread: the next operation starts when the
previous one returned. The loop runs whole cycles of the workload's
fixed operation order until ``--seconds`` have passed, so two commits
are compared on the same mix whatever their speed. End-to-end numbers
come from this untraced loop only; ``--trace 1`` runs ``layers.trace``
instead and reports the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

from benchmarks.harness import layers, workloads
from benchmarks.harness.stats import (
    MIN_SAMPLES_BEYOND, Clock, geomean, percentile, quiesced, typical_time)

ROOT = Path(__file__).resolve().parents[2]

#: set-up is repeated until this share of ``--seconds`` is spent, so a
#: 10 ms set-up is not judged on one sample nor a 400 ms one on three
SETUP_SHARE = 0.25
SETUP_MIN, SETUP_MAX = 3, 25
MIN_CYCLES = 3
GC_EVERY_S = 0.25


def manifest() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(workload: Any, seconds: float) -> dict:
    clock = Clock()
    setup_times = []
    begun = time.perf_counter()
    while len(setup_times) < SETUP_MAX:
        with quiesced():
            setup_times.append(clock.timed(workload.setup)[0])
        if len(setup_times) >= SETUP_MIN and time.perf_counter() - begun > seconds * SETUP_SHARE:
            break

    samples: dict[str, list[float]] = {cls.name: [] for cls in workload.classes}
    cycles: list[list[float]] = []  # the calibrated times of each cycle's operations
    cycle_chunk: list[float] = []  # mean yardstick time during each cycle
    failures: list[str] = []
    attempted = failed = 0
    with quiesced():
        begun = collected = time.perf_counter()
        while True:
            times: list[float] = []
            first_chunk = len(clock.chunks)
            for op in workload.cycle(len(cycles)):
                attempted += 1
                try:
                    elapsed, value = clock.timed(op.call)
                except Exception:  # an operation that raises is a failed operation
                    failed += 1
                    failures.append(f"{op.cls}: {traceback.format_exc(limit=3)}")
                    continue
                samples[op.cls].append(elapsed)
                times.append(elapsed)
                if not op.check(value):
                    failed += 1
                    failures.append(f"{op.cls}: value differs from the expected one")
            cycles.append(times)
            cycle_chunk.append(statistics.fmean(clock.chunks[first_chunk:]))
            now = time.perf_counter()
            if now - begun >= seconds and len(cycles) >= MIN_CYCLES:
                break
            if now - collected > GC_EVERY_S:  # bounded garbage, outside every timed op
                gc.collect()
                collected = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle_failures = workload.oracle()
    failures += oracle_failures
    failed = min(attempted, failed + len(oracle_failures))
    typical = {name: typical_time(s) * 1e3 for name, s in samples.items() if s}
    # The tail is the worst-calibrated part of a run, so it is taken over
    # the quieter half of the cycles (whole cycles, so the mix is unchanged).
    quiet = statistics.median(cycle_chunk)
    p95, beyond = percentile(
        [t for times, chunk in zip(cycles, cycle_chunk) if chunk <= quiet for t in times], 0.95)
    return {
        "metrics": {
            "setup_s": typical_time(setup_times),
            "run_ms_geomean": geomean(list(typical.values())),
            "run_ms_p95": p95 * 1e3,
            "queries_per_s": attempted / len(cycles) / typical_time([sum(t) for t in cycles]),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures[:20],
        "cycles": len(cycles),
        "chunk_ms": {"median": statistics.median(clock.chunks) * 1e3,
                     "min": min(clock.chunks) * 1e3, "max": max(clock.chunks) * 1e3},
        "setup_runs": len(setup_times),
        "p95_samples_beyond": beyond,
        "p95_supported": beyond >= MIN_SAMPLES_BEYOND,
        "op_counts": {name: len(s) for name, s in samples.items()},
        "class_ms": typical,
        "digests": workloads.digests(workload),
    }


def run_traced(workload: Any, seconds: float) -> dict:
    tracer = layers.trace(workload, seconds)
    return {
        "metrics": tracer.metrics,
        "attempted": tracer.attempted,
        "failed": tracer.failed,
        "failed_share": tracer.failed / max(1, tracer.attempted),
        "failures": tracer.flags,
        "probe_errors": tracer.errors,
        "classes": tracer.classes,
        "breakdown": tracer.breakdown,
        "spans": tracer.rec.to_json(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Everything one run measured, as a JSON-ready dict."""
    workload = workloads.make(name, seed, smoke)
    detail = run_traced(workload, seconds) if trace else run_untraced(workload, seconds)
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), smoke=smoke,
                  correct=detail["failed"] == 0)
    return detail


def result_line(detail: dict, declared: dict) -> dict:
    """The one JSON object the benchmark contract wants on the last line."""
    kind = "per_layer" if detail["trace"] else "end_to_end"
    return {
        "correct": detail["correct"],
        "attempted": max(1, detail["attempted"]),
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": detail["metrics"].get(m["name"]), "unit": m["unit"]}
            for m in declared[kind]
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    declared = manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="oracle-scale data")
    parser.add_argument("--detail", help="also write everything measured to this JSON file")
    args = parser.parse_args(argv)

    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    for failure in detail["failures"]:
        print(f"# {failure}", file=sys.stderr)
    for metric, error in detail.get("probe_errors", {}).items():
        print(f"# probe {metric}: {error}", file=sys.stderr)
    line = result_line(detail, declared)
    for name, entry in line["metrics"].items():
        print(f"{name:32s} {entry['value']!s:>24s} {entry['unit']}")
    print(json.dumps(line))
    return 0
