"""Experiment J1 (extension) — compiling the hot path.

The JIT targets the *execution* half of a query: once a plan exists
(compiled-query cache, prepared statement, or simply the same plan
executed over and over), every Select predicate, Join key, Unnest path,
Nest key and Reduce head is evaluated once per row. These benchmarks
time exactly that — ``Executor.execute`` over a precompiled plan — with
the jit off (per-row AST interpretation in the operator loops) and on
(one generated function per plan). The numbers that count are the
harness's (``jit.execute_ratio``, ``analytics_large_warm``; EXPERIMENTS.md
H22); what this file *asserts* is clock-free — every workload's plan is
fused, nothing falls back, results are identical — plus two wall-clock
floors far below what is measured.

Two predicate-heavy workloads carry the headline shape:

- **scan-pred** — a single-extent scan whose predicate is a deep
  arithmetic/boolean expression (the shape QL2xx-clean OLAP filters
  take after normalization);
- **unnest-pred** — the travel schema's Cities→hotels→rooms unnest
  pipeline with a correlated multi-conjunct room filter.

Two more series record cheap predicates and heads, where row plumbing,
not expression evaluation, dominated before the plan itself was compiled.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

import pytest

from benchmarks.conftest import build_company_db, build_travel_db
from repro.algebra.physical import Executor
from repro.algebra.translate import build_plan
from repro.jit import JITConfig
from repro.jit.plan import fused, precompile_plan
from repro.normalize import normalize

NUM_EMPLOYEES = 2000
NUM_CITIES = 30

SCAN_PRED = (
    "sum(select 1 from e in Employees where "
    "(e.salary * 3 + e.age * 2 - e.dno) mod 7 < 5 and "
    "e.salary + e.age * e.dno > 10000 and "
    "(e.age - 20) * (e.age - 20) < 2000 and e.dno * e.dno >= 0 and "
    "(e.salary div 100 + e.age * 3) mod 11 != 5 and "
    "e.salary * 2 - e.age * e.dno + 17 > 0)"
)
UNNEST_PRED = (
    "sum(select 1 from c in Cities, h in c.hotels, r in h.rooms where "
    "r.price * 2 + r.beds * 10 > 300 and "
    "(r.price - 50) * (r.beds + 1) < 9000 and r.price mod 7 != 3 and "
    "(r.beds * r.beds + r.price div 10) mod 5 < 4 and "
    "r.price + r.beds * 3 - 7 > 60 and h.stars * 20 + r.price > 100 and "
    "(r.price * r.beds + h.stars) mod 13 != 6 and "
    "r.beds * 2 + h.stars * 3 > 4)"
)
CHEAP_PRED = "sum(select 1 from e in Employees where e.salary > 40000)"
RECORD_HEAD = (
    "select struct(n: e.name, s: e.salary + e.age) "
    "from e in Employees where e.salary > 30000"
)

WORKLOADS = {
    "scan-pred": ("company", SCAN_PRED),
    "unnest-pred": ("travel", UNNEST_PRED),
    "cheap-pred": ("company", CHEAP_PRED),
    "record-head": ("company", RECORD_HEAD),
}


def _dbs():
    return {
        "company": build_company_db(num_employees=NUM_EMPLOYEES, seed=3),
        "travel": build_travel_db(num_cities=NUM_CITIES, seed=3),
    }


def _prepared(db, oql, jit: bool):
    """A (plan, executor) pair ready for repeated execution."""
    plan = db._optimize(build_plan(normalize(db.translate(oql)), pre_normalize=True))
    if jit:
        precompile_plan(plan)
        executor = Executor(
            db.evaluator(), db.catalog.index_mappings(), jit=JITConfig()
        )
    else:
        executor = Executor(db.evaluator(), db.catalog.index_mappings())
    return plan, executor


@contextmanager
def _quiesced_gc():
    """Collector pauses scale with the live heap — after a long pytest
    session they land asymmetrically on the shorter (jit) samples and
    compress the measured ratio. Collect once, then keep the collector
    out of the timed region."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _median_time(fn, repeats: int = 7) -> float:
    """Best-of-N wall time — robust against load spikes in CI."""
    times = []
    with _quiesced_gc():
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return min(times)


def _paired_speedup(off, on, repeats: int = 9) -> float:
    """Best-of-N for each side, sampled in alternation so slow drift in
    machine load hits both sides equally."""
    off_times, on_times = [], []
    with _quiesced_gc():
        for _ in range(repeats):
            start = time.perf_counter()
            off()
            off_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            on()
            on_times.append(time.perf_counter() - start)
    return min(off_times) / min(on_times)


# -- benchmark series ----------------------------------------------------------


@pytest.mark.parametrize("mode", ["interpreted", "jit"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_jit_series(benchmark, workload, mode):
    schema, oql = WORKLOADS[workload]
    benchmark.group = f"J1 {workload}"
    db = _dbs()[schema]
    plan, executor = _prepared(db, oql, jit=mode == "jit")
    benchmark(lambda: executor.execute(plan))


# -- shape assertions (run by plain pytest, recorded in EXPERIMENTS.md) --------


def _speedup(oql: str, schema: str, attempts: int = 2) -> float:
    db = _dbs()[schema]
    plan_off, ex_off = _prepared(db, oql, jit=False)
    plan_on, ex_on = _prepared(db, oql, jit=True)
    assert ex_off.execute(plan_off) == ex_on.execute(plan_on)
    return max(
        _paired_speedup(
            lambda: ex_off.execute(plan_off), lambda: ex_on.execute(plan_on)
        )
        for _ in range(attempts)
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_shape_fused(workload):
    """Clock-free: the plan runs as one generated function, every
    expression compiled, and answers what the interpreted loops answer."""
    schema, oql = WORKLOADS[workload]
    db = _dbs()[schema]
    plan_off, ex_off = _prepared(db, oql, jit=False)
    plan_on, ex_on = _prepared(db, oql, jit=True)
    report = precompile_plan(plan_on)
    assert fused(plan_on) is not None
    assert report["fallback"] == 0 and report["compiled"] > 0
    value = ex_on.execute(plan_on)
    assert type(value) is type(ex_off.execute(plan_off)) and value == ex_off.execute(plan_off)
    assert ex_on.stats == ex_off.stats


def test_shape_cheap_queries_never_slower():
    """Where plumbing dominates, the JIT must at least break even
    (within measurement noise)."""
    for oql, schema in ((CHEAP_PRED, "company"), (RECORD_HEAD, "company")):
        speedup = _speedup(oql, schema)
        assert speedup >= 0.9, f"jit made a cheap query slower: {speedup:.2f}x"


def test_shape_end_to_end_with_cache():
    """Through Database.run with the compiled-query cache attached (the
    deployment shape the JIT is designed for: compile once, execute per
    call), the jit side must win clearly on the heavy predicate."""
    from repro.cache import CacheConfig
    from repro.db import Database, company_schema, make_company

    def build(jit):
        db = Database(company_schema(), parallel=False, jit=jit)
        # Compile cache only: with the result cache on, both sides
        # collapse to cache hits and nothing executes at all.
        db.enable_cache(CacheConfig(results=False))
        db.load_extents(
            make_company(
                num_departments=max(2, NUM_EMPLOYEES // 10),
                num_employees=NUM_EMPLOYEES,
                seed=3,
            )
        )
        return db

    off_db, on_db = build(False), build(True)
    assert off_db.run(SCAN_PRED) == on_db.run(SCAN_PRED)  # warm the caches
    speedup = _paired_speedup(
        lambda: off_db.run(SCAN_PRED), lambda: on_db.run(SCAN_PRED)
    )
    assert speedup >= 1.5, (
        f"cached end-to-end speedup collapsed: {speedup:.2f}x"
    )
