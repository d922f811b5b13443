"""Database-level parallel execution: enablement, equality with the
serial engine, observability integration and the REPL toggle."""

import threading

import pytest

from repro.db import Database, company_schema, make_company
from repro.db.database import demo_company_database
from repro.parallel import ParallelConfig
from repro.values import to_python

QUERIES = [
    "sum(select e.salary from e in Employees)",
    "max(select e.age from e in Employees)",
    "count(select e from e in Employees where e.salary > 30000)",
    "select distinct e.dno from e in Employees",
    "select e.name from e in Employees where e.age < 40",
    "select struct(e: e.name, b: d.budget) "
    "from e in Employees, d in Departments where e.dno = d.dno",
    "select struct(d: dno, total: sum(select p.salary from p in partition)) "
    "from e in Employees group by dno: e.dno",
]

FAST = ParallelConfig(max_workers=4, min_partition_rows=1)


@pytest.fixture
def dbs():
    def make(parallel=None):
        db = Database(company_schema(), parallel=parallel)
        db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
        return db

    return make(), make(FAST)


def test_results_equal_serial(dbs):
    serial, par = dbs
    assert par.parallel is FAST
    for oql in QUERIES:
        assert to_python(serial.run(oql)) == to_python(par.run(oql)), oql


def test_run_detailed_records_fan_out(dbs):
    _, par = dbs
    result = par.run_detailed("sum(select e.salary from e in Employees)")
    assert result.engine == "algebra"
    assert result.stats.partitions == 4
    assert result.stats.parallel_workers == 4


# -- Experiment P2: a latency-bound and a CPU-bound aggregate, serial and fanned out --

P2 = {
    "latency": "sum(select fetch_score(e.salary) from e in Employees)",
    "cpu": "sum(select e.salary * e.age + e.dno from e in Employees)",
}


def _p2_db(parallel, fetch_score=lambda salary: salary // 100):
    """64 employees; ``fetch_score`` stands for a call to an external resource."""
    db = Database(company_schema(), cache=False, parallel=FAST if parallel else False)
    db.load_extents(make_company(num_departments=6, num_employees=64, seed=3))
    db.register_function("fetch_score", fetch_score)
    return db


@pytest.mark.parametrize("mode", ["serial", "parallel"])
@pytest.mark.parametrize("workload", list(P2))
def test_parallel_series(workload, mode):
    db = _p2_db(mode == "parallel")
    employees = db.evaluator().evaluate(db.translate("Employees"))
    expected = {
        "latency": sum(e.salary // 100 for e in employees),
        "cpu": sum(e.salary * e.age + e.dno for e in employees),
    }[workload]
    result = db.run_detailed(P2[workload])
    assert result.value == expected
    assert result.stats.partitions == (4 if mode == "parallel" else 0)


def test_latency_bound_heads_wait_in_every_partition_at_once():
    """P2's latency claim without a clock: each partition's first call of
    the head blocks until all four partitions are waiting together, so the
    query finishes only because their waits overlap."""
    together = threading.Barrier(4, timeout=10)
    waited = threading.local()

    def fetch_score(salary):
        if not getattr(waited, "done", False):
            waited.done = True
            together.wait()
        return salary // 100

    serial = _p2_db(False).run(P2["latency"])
    assert _p2_db(True, fetch_score).run(P2["latency"], verify=False) == serial


def test_cpu_bound_fan_out_does_the_serial_row_work():
    serial = _p2_db(False).run_detailed(P2["cpu"])
    parallel = _p2_db(True).run_detailed(P2["cpu"])
    assert parallel.value == serial.value
    assert parallel.stats.rows_scanned == serial.stats.rows_scanned == 64


def test_group_by_agrees_under_parallel():
    oql = (
        "select struct(d: dno, total: sum(select p.salary from p in partition), "
        "n: count(partition)) from e in Employees group by dno: e.dno"
    )
    value = _p2_db(True).run(oql)
    assert value == _p2_db(False).run(oql)
    assert sum(row.n for row in value) == 64


def test_enable_disable_cycle(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)  # pin the default
    serial = Database(company_schema())
    assert serial.parallel is None
    config = serial.enable_parallel(2)
    assert serial.parallel is config and config.max_workers == 2
    serial.disable_parallel()
    assert serial.parallel is None
    serial.enable_parallel()
    assert serial.parallel.max_workers == ParallelConfig().max_workers


def test_constructor_accepts_int_and_true():
    db = Database(company_schema(), parallel=3)
    assert db.parallel.max_workers == 3
    db = Database(company_schema(), parallel=True)
    assert db.parallel == ParallelConfig()


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "4")
    db = Database(company_schema())
    assert db.parallel is not None and db.parallel.max_workers == 4
    monkeypatch.setenv("REPRO_PARALLEL", "off")
    assert Database(company_schema()).parallel is None


def test_explicit_false_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    assert Database(company_schema(), parallel=False).parallel is None


def test_explain_analyze_under_parallel():
    db = demo_company_database()
    db.enable_parallel(FAST)
    out = db.explain(
        "select e.name from e in Employees where e.salary > 20000", analyze=True
    )
    assert "actual=100" in out  # the scan saw every employee exactly once


def test_verify_mode_passes(dbs):
    serial, _ = dbs
    serial.enable_parallel(FAST)
    for oql in QUERIES:
        serial.run(oql, verify=True)  # VerificationError would propagate


def test_telemetry_counts_parallel_queries(dbs):
    from repro.obs.telemetry.registry import MetricsRegistry

    _, par = dbs
    registry = MetricsRegistry()
    par.enable_telemetry(registry)
    par.run("sum(select e.salary from e in Employees)")
    par.run("select e.name from e in Employees")
    assert registry.total("repro_parallel_queries_total") == 2
    assert registry.histogram("repro_parallel_partitions").count == 2


def test_cached_results_unaffected(dbs):
    serial, par = dbs
    par.enable_cache()
    oql = "sum(select e.salary from e in Employees)"
    first = to_python(par.run(oql))
    second = to_python(par.run(oql))  # served from the result cache
    assert first == second == to_python(serial.run(oql))


def test_repl_parallel_toggle(dbs):
    from repro.repl import Repl

    serial, _ = dbs
    lines = []
    repl = Repl(serial, out=lines.append)
    repl.handle(":parallel on")
    assert serial.parallel is not None
    assert any("parallel is on" in line for line in lines)
    repl.handle(":parallel off")
    assert serial.parallel is None
    assert any("parallel is off" in line for line in lines)
    repl.handle(":parallel bogus")
    assert any("usage" in line for line in lines)
