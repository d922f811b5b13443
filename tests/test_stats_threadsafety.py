"""Concurrent ``Database.run``: stats, query records, the query log and
telemetry must accumulate exactly — no lost updates, no record shared
across threads — when one database is shared by many threads."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.db import Database, company_schema, make_company
from repro.values import to_python

THREADS = 8
PER_THREAD = 6


@pytest.fixture
def db():
    database = Database(company_schema())
    database.load_extents(
        make_company(num_departments=4, num_employees=40, seed=11)
    )
    return database


def hammer(db, oql):
    """Run ``oql`` from many threads at once; return every result."""
    barrier = threading.Barrier(THREADS)

    def work():
        barrier.wait()
        return [db.run_detailed(oql) for _ in range(PER_THREAD)]

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(work) for _ in range(THREADS)]
        return [result for future in futures for result in future.result()]


def test_per_run_stats_are_private(db):
    db.disable_cache()  # a result-cache hit executes nothing: stats is None
    results = hammer(db, "sum(select e.salary from e in Employees)")
    expected = to_python(db.run("sum(select e.salary from e in Employees)"))
    for result in results:
        assert to_python(result.value) == expected
        # every run gets its own ExecutionStats block — a shared or
        # doubly-merged block would show multiples of the extent size
        assert result.stats.rows_scanned == 40
        assert result.stats.rows_reduced == 40


def test_traced_runs_do_not_share_records_across_threads(db):
    lines = []
    db.profile(True, sink=lambda line: lines.append(line))
    results = hammer(db, "select e.name from e in Employees where e.age < 40")
    db.profile(False)
    assert len(results) == THREADS * PER_THREAD
    # every run times its own slots, and the log holds each once
    assert len({id(result.ns) for result in results}) == len(results)
    assert len(lines) == THREADS * PER_THREAD
    for line in lines:
        assert {"parse", "execute"} <= set(json.loads(line)["phases_ms"])


def test_query_log_records_every_run_exactly_once(db):
    db.profile(True)
    hammer(db, "count(select e from e in Employees)")
    entries = db.query_log.entries
    db.profile(False)
    assert len(entries) == THREADS * PER_THREAD


def test_query_log_file_lines_are_whole(db, tmp_path):
    path = tmp_path / "queries.jsonl"
    db.profile(True, path=str(path))
    hammer(db, "count(select e from e in Employees)")
    db.profile(False)
    import json

    lines = path.read_text().splitlines()
    assert len(lines) == THREADS * PER_THREAD
    for line in lines:
        json.loads(line)  # interleaved writes would corrupt a line


def test_telemetry_totals_are_exact(db):
    db.disable_cache()  # a result-cache hit executes nothing: stats is None
    from repro.obs.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    db.enable_telemetry(registry)
    hammer(db, "sum(select e.salary from e in Employees)")
    db.disable_telemetry()
    assert registry.total("repro_queries_total") == THREADS * PER_THREAD
    rows = registry.value("repro_executor_rows_total", counter="rows_scanned")
    assert rows == 40 * THREADS * PER_THREAD


def test_first_runs_racing_the_emission_share_one_function(db, count_calls):
    db.disable_cache()  # a result-cache hit executes nothing: stats is None
    from repro.jit.plan import _fuse

    emitted = count_calls(_fuse)
    results = hammer(db, "sum(select e.salary from e in Employees)")
    expected = to_python(db.run("sum(select e.salary from e in Employees)", engine="interpret"))
    assert len(emitted) == 1  # every thread's first run is the same shape
    for result in results:
        assert to_python(result.value) == expected
        assert result.jit is not None and result.stats.rows_scanned == 40
