#!/usr/bin/env python3
"""Regenerate the EXPERIMENTS.md measurement tables in one run.

Usage:  python -m benchmarks.report [--fast]

Prints, per experiment id (see DESIGN.md section 3), the same rows and
series EXPERIMENTS.md records: the regenerated Table 1, the section 2
example values, the T2 translation table, the Table 3 derivation and
rule counts, the F1 pipelining series, the F2 join/point-query series,
the V1 vector checks and the U1 update timings.
"""

from __future__ import annotations

import sys

import numpy as np

from benchmarks.bench_fig_algebra import _join_executor
from benchmarks.bench_fig_pipelining import MEMBERSHIP, NESTED_FROM, _setup
from benchmarks.bench_table3_rules import CORPUS
from benchmarks.conftest import build_company_db
from repro.algebra import Executor, Optimizer, build_plan
from repro.monoids import table1
from repro.normalize import normalize, normalize_with_trace
from repro.objects import run_update
from repro.obs import Tracer
from repro.oql import translate_oql
from repro.vectors import fft_query


def median_time(fn, repeats: int = 5) -> float:
    """Median wall time of ``fn`` measured through repro.obs spans —
    the same clock and span machinery the query pipeline reports with."""
    tracer = Tracer(enabled=True)
    for _ in range(repeats):
        with tracer.span("call"):
            fn()
    times = sorted(span.duration for span in tracer.roots)
    return times[len(times) // 2]


def heading(text: str) -> None:
    print(f"\n## {text}\n")


def report_t1() -> None:
    heading("T1 — Table 1 (regenerated)")
    rows = table1()
    widths = {key: max(len(key), max(len(str(r[key])) for r in rows)) for key in rows[0]}
    print("  " + "  ".join(key.ljust(widths[key]) for key in rows[0]))
    for row in rows:
        print("  " + "  ".join(str(row[key]).ljust(widths[key]) for key in row))


def report_t3() -> None:
    heading("T3 — the Portland derivation and corpus rule counts")
    nested = translate_oql(CORPUS[0])
    _, trace = normalize_with_trace(nested)
    print(trace.render())
    counts: dict[str, int] = {}
    for query in CORPUS:
        _, t = normalize_with_trace(translate_oql(query))
        for rule, n in t.rule_counts().items():
            counts[rule] = counts.get(rule, 0) + n
    print("\ncorpus rule counts:", dict(sorted(counts.items())))


def report_f1(sizes) -> None:
    heading("F1 — pipelining (raw / normalized / algebra, ms)")
    for workload in ("membership", "nested-from"):
        print(f"  {workload}:")
        for size in sizes:
            raw, canonical, evaluator, plan, executor = _setup(workload, size)
            r = median_time(lambda: evaluator.evaluate(raw))
            n = median_time(lambda: evaluator.evaluate(canonical))
            a = median_time(lambda: executor.execute(plan))
            print(
                f"    n={size:>4}: raw={r * 1e3:8.2f}  normalized={n * 1e3:8.2f}  "
                f"algebra={a * 1e3:8.2f}  raw/algebra={r / a:6.1f}x"
            )


def report_f2(sizes) -> None:
    heading("F2 — join strategies (cross+filter vs hash, ms)")
    for size in sizes:
        db = build_company_db(num_employees=size, seed=2)
        cross_plan, cross_exec = _join_executor(db, use_hash=False)
        hash_plan, hash_exec = _join_executor(db, use_hash=True)
        c = median_time(lambda: cross_exec.execute(cross_plan))
        h = median_time(lambda: hash_exec.execute(hash_plan))
        print(f"  n={size:>4}: cross={c * 1e3:8.1f}  hash={h * 1e3:8.1f}  ratio={c / h:5.1f}x")

    db = build_company_db(num_employees=2000, seed=2)
    point = "select distinct d.name from d in Departments where d.dno = 3"
    term = normalize(db.translate(point))
    scan_plan = Optimizer(set()).optimize(build_plan(term))
    db.create_index("Departments", "dno")
    index_plan = Optimizer(db.catalog.index_keys()).optimize(build_plan(term))
    executor = Executor(db.evaluator(), db.catalog.index_mappings())
    s = median_time(lambda: executor.execute(scan_plan), 7)
    i = median_time(lambda: executor.execute(index_plan), 7)
    print(f"  point query: scan={s * 1e6:7.0f}us  index={i * 1e6:7.0f}us  ratio={s / i:5.0f}x")


def report_v1(sizes) -> None:
    heading("V1 — FFT as a query vs numpy")
    for n in sizes:
        xs = np.random.default_rng(n).normal(size=n).tolist()
        t = median_time(lambda: fft_query(xs), 3)
        err = max(abs(m - r) for m, r in zip(fft_query(xs), np.fft.fft(xs)))
        print(f"  n={n:>4}: {t * 1e3:7.1f} ms   max err vs numpy = {err:.2e}")


def report_g1(sizes) -> None:
    heading("G1 — group-by: nested comprehension vs Nest (ms)")
    from benchmarks.bench_groupby import QUERY

    for size in sizes:
        db = build_company_db(num_employees=size, seed=6)
        interp = median_time(lambda: db.run(QUERY, engine="interpret"), 3)
        nest = median_time(lambda: db.run(QUERY, engine="algebra"), 3)
        print(
            f"  n={size:>4}: interpret={interp * 1e3:9.1f}  nest={nest * 1e3:7.1f}  "
            f"ratio={interp / nest:6.1f}x"
        )


def report_p1(num_cities: int) -> None:
    heading("P1 — pipeline phase breakdown (repro.obs spans, ms)")
    from repro.db import demo_travel_database

    queries = {
        "filter": "select distinct c.name from c in Cities "
                  "where c.population > 100000",
        "unnest": "select distinct h.name from c in Cities, h in c.hotels "
                  "where h.stars >= 4",
        "nested": "select distinct h.name from h in "
                  "(select distinct x from c in Cities, x in c.hotels)",
    }
    from repro.obs.tracer import PIPELINE_PHASES

    db = demo_travel_database(num_cities=num_cities)
    db.profile(True)
    # the tracer's canonical phase order, minus the phases this table
    # doesn't exercise (lint is strict-mode-only, typecheck is opt-in)
    phase_order = tuple(p for p in PIPELINE_PHASES if p not in ("lint", "typecheck"))
    print("  " + "query".ljust(8) + "".join(p.rjust(11) for p in phase_order))
    for name, oql in queries.items():
        result = db.run_detailed(oql)
        phases = result.span.phase_times_ms()
        cells = "".join(f"{phases.get(p, 0.0):11.3f}" for p in phase_order)
        print(f"  {name.ljust(8)}{cells}")
    db.profile(False)


def report_c1() -> None:
    heading("C1 — query cache: cold vs warm pipeline (ms)")
    from benchmarks.bench_cache import NUM_CITIES, QUERIES, _cached_db, _run_all

    db = _cached_db()

    def cold():
        db.cache.clear()
        _run_all(db)

    cold_t = median_time(cold)
    compile_db = _cached_db(results=False)
    _run_all(compile_db)
    warm_compile_t = median_time(lambda: _run_all(compile_db))
    _run_all(db)
    warm_result_t = median_time(lambda: _run_all(db))
    print(
        f"  {len(QUERIES)} queries, n={NUM_CITIES} cities:\n"
        f"    cold (full pipeline)     = {cold_t * 1e3:8.2f}\n"
        f"    warm (compile cache)     = {warm_compile_t * 1e3:8.2f}"
        f"   {cold_t / warm_compile_t:6.1f}x\n"
        f"    warm (result cache)      = {warm_result_t * 1e3:8.2f}"
        f"   {cold_t / warm_result_t:6.1f}x"
    )
    stats = db.cache.stats_dict()
    print(
        f"    counters: compile {stats['compile_hits']} hits / "
        f"{stats['compile_misses']} misses, result {stats['result_hits']} hits / "
        f"{stats['result_misses']} misses, {stats['evictions']} evictions"
    )


def report_p2() -> None:
    heading("P2 — partition-parallel execution (4 workers, ms)")
    from benchmarks.bench_parallel import (
        CPU_QUERY,
        LATENCY_QUERY,
        NUM_EMPLOYEES,
        WORKERS,
        _bench_db,
        _parallel_config,
    )

    serial_db = _bench_db()
    par_db = _bench_db(_parallel_config())
    print(f"  n={NUM_EMPLOYEES} employees, {WORKERS} workers:")
    for label, oql in (("latency-bound", LATENCY_QUERY), ("cpu-bound", CPU_QUERY)):
        serial_t = median_time(lambda: serial_db.run(oql))
        par_t = median_time(lambda: par_db.run(oql))
        print(
            f"    {label:<14} serial={serial_t * 1e3:8.2f}  "
            f"parallel={par_t * 1e3:8.2f}   {serial_t / par_t:5.2f}x"
        )
    stats = par_db.run_detailed(LATENCY_QUERY).stats
    print(f"    partitions={stats.partitions} workers={stats.parallel_workers}")


def report_j1() -> None:
    heading("J1 — the compiled hot execution path (ms)")
    from benchmarks.bench_jit import WORKLOADS, _dbs, _prepared

    dbs = _dbs()
    print("  executor-level (plan precompiled once, executed repeatedly):")
    for label, (schema, oql) in WORKLOADS.items():
        plan_off, ex_off = _prepared(dbs[schema], oql, jit=False)
        plan_on, ex_on = _prepared(dbs[schema], oql, jit=True)
        off_t = median_time(lambda: ex_off.execute(plan_off))
        on_t = median_time(lambda: ex_on.execute(plan_on))
        print(
            f"    {label:<12} interpreted={off_t * 1e3:8.2f}  "
            f"jit={on_t * 1e3:8.2f}   {off_t / on_t:5.2f}x"
        )
    db = dbs["company"]
    db.enable_jit()
    result = db.run_detailed(next(iter(WORKLOADS.values()))[1])
    if result.jit is not None:
        print(
            f"    expression coverage on scan-pred: "
            f"compiled={result.jit['compiled']} "
            f"fallback={result.jit['fallback']}"
        )


def report_u1(sizes) -> None:
    heading("U1 — update program timings")
    from benchmarks.bench_section4_updates import _insertion_program, _object_db

    for n in sizes:
        db = _object_db(n)
        program = _insertion_program("City-1")
        evaluator = db.evaluator()
        t = median_time(lambda: run_update(program, evaluator))
        print(f"  n={n:>5}: {t * 1e3:7.2f} ms")


def main(argv=None) -> int:
    fast = "--fast" in (argv if argv is not None else sys.argv[1:])
    f1_sizes = (20, 80) if fast else (20, 80, 320)
    f2_sizes = (50, 200) if fast else (50, 200, 800)
    v1_sizes = (16, 64) if fast else (16, 64, 256)
    u1_sizes = (100,) if fast else (100, 1000)
    g1_sizes = (50,) if fast else (50, 200)
    p1_cities = 8 if fast else 32

    print("# Reproduction report — Fegaras & Maier, SIGMOD 1995")
    report_t1()
    report_t3()
    report_f1(f1_sizes)
    report_f2(f2_sizes)
    report_g1(g1_sizes)
    report_c1()
    report_p1(p1_cities)
    report_p2()
    report_j1()
    report_v1(v1_sizes)
    report_u1(u1_sizes)
    print("\n(shapes asserted automatically by `pytest benchmarks/`)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
