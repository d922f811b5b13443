"""Generated code × partition-parallel execution: a ``ParallelExecutor``
runs the operator loops, so a plan with code is the parallel execution of
one without — value, error, counters — and no compiled code runs;
concurrent queries may race the jit phase on one cached plan. (``jit=``
is still accepted and changes nothing.)"""

from __future__ import annotations

import threading

import pytest

from repro.db import Database, company_schema, make_company
from repro.db.database import demo_company_database
from repro.errors import EvaluationError
from repro.jit import JITConfig
from repro.parallel import ParallelConfig
from repro.values import to_python
from tests.test_jit_fused import counts

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

#: force fan-out on the small test extents
FAST = ParallelConfig(max_workers=4, min_partition_rows=1)


def make_db(parallel=None, jit=None):
    db = Database(company_schema(), parallel=parallel, jit=jit)
    db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
    return db


class TestForcedFanOutParity:
    def test_parallel_jit_equals_serial_interpreted(self):
        serial = make_db()
        par = make_db(parallel=FAST, jit=JITConfig())
        for oql in QUERIES:
            assert to_python(serial.run(oql)) == to_python(par.run(oql)), oql

    def test_parallel_jit_equals_parallel_interpreted(self):
        plain = make_db(parallel=FAST)
        jitted = make_db(parallel=FAST, jit=JITConfig())
        for oql in QUERIES:
            assert to_python(plain.run(oql)) == to_python(jitted.run(oql)), oql

    def test_fan_out_actually_happened(self):
        par = make_db(parallel=FAST, jit=JITConfig())
        par.disable_cache()  # every run executes
        oql = "sum(select e.salary from e in Employees)"
        par.run(oql)
        result = par.run_detailed(oql)  # the plan has code; the fan-out ran anyway
        assert result.stats.partitions == 4
        assert result.jit is not None and result.jit["compiled"] >= 1

    def test_verify_mode_under_fan_out(self):
        # Nothing compiled runs under fan-out, so verify has nothing to
        # check there; the values still agree.
        par = make_db(parallel=FAST, jit=JITConfig())
        serial = make_db()
        for oql in QUERIES:
            assert to_python(par.run(oql, verify=True)) == to_python(serial.run(oql)), oql


class TestEnvFlags:
    def test_parallel_flag_and_generated_code_compose(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        db = demo_company_database(4, 40, seed=11)
        assert db.parallel is not None
        baseline = demo_company_database(4, 40, seed=11)
        baseline.disable_parallel()
        for oql in QUERIES * 2:  # the repeats' plans have code
            assert to_python(db.run(oql)) == to_python(baseline.run(oql)), oql


class TestSharedPlanThreadSafety:
    def test_concurrent_queries_share_one_database(self):
        # Many threads race Database.run on one jit+parallel database;
        # with a cache attached they also race the jit phase on shared
        # plan roots (idempotent, every write one store).
        db = make_db(parallel=FAST, jit=JITConfig())
        db.enable_cache()
        expected = {oql: to_python(make_db().run(oql)) for oql in QUERIES}
        failures: list = []

        def worker(oql: str) -> None:
            try:
                for _ in range(5):
                    value = to_python(db.run(oql))
                    if value != expected[oql]:
                        failures.append((oql, value))
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((oql, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(oql,)) for oql in QUERIES * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []


class TestFanOutRunsTheLoops:
    @pytest.mark.parametrize("oql", QUERIES)
    def test_jit_on_is_the_jit_off_parallel_execution(self, oql):
        off = make_db(parallel=FAST, jit=False).run_detailed(oql)
        on = make_db(parallel=FAST, jit=JITConfig()).run_detailed(oql)
        assert type(on.value) is type(off.value) and on.value == off.value
        if on.plan is None:  # count(...) of a select is the interpreter's
            assert off.plan is None
            return
        assert on.stats == off.stats and on.stats.partitions == 4
        assert counts(on.metrics, on.plan) == counts(off.metrics, off.plan)

    def test_errors_are_the_jit_off_errors(self):
        top = make_db().run("max(select e.salary from e in Employees)")
        oql = f"select 1 / (e.salary - {top}) from e in Employees"
        raised = []
        for jit in (False, JITConfig()):
            with pytest.raises(EvaluationError) as info:
                make_db(parallel=FAST, jit=jit).run(oql)
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    def test_no_compiled_code_runs(self, monkeypatch):
        # An emitter that writes every constant as 0 changes what the
        # generated function answers, and nothing a fan-out does.
        from repro.calculus.ast import Const
        from repro.jit import compiler

        monkeypatch.setitem(compiler._EMITTERS, Const, lambda self, term, scope: "0")
        oql = "sum(select e.salary from e in Employees where e.salary > 60000)"
        want = make_db().run(oql, engine="interpret")
        fanned, serial = make_db(parallel=FAST), make_db(parallel=False)
        assert [fanned.run(oql, verify=False) for _ in "ab"] == [want, want]
        assert serial.run(oql, verify=False) != want  # a shape seen before: its code
