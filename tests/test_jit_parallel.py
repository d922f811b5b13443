"""JIT × partition-parallel execution: forced fan-out parity, shared
compiled closures on prebuilt join sides, and thread-safety of the
compile-on-first-use path under concurrent queries."""

from __future__ import annotations

import threading

import pytest

from repro.db import Database, company_schema, make_company
from repro.db.database import demo_company_database
from repro.jit import JITConfig
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
        result = par.run_detailed("sum(select e.salary from e in Employees)")
        assert result.stats.partitions == 4
        assert result.jit is not None and result.jit["compiled"] >= 1

    def test_verify_mode_under_fan_out(self):
        # Per-row differential checks run inside worker threads; the
        # reference executor stays interpreted.
        par = make_db(parallel=FAST, jit=JITConfig(verify=True))
        serial = make_db()
        for oql in QUERIES:
            assert to_python(par.run(oql)) == to_python(serial.run(oql)), oql


class TestEnvFlags:
    def test_both_env_flags_compose(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        db = demo_company_database(4, 40, seed=11)
        assert db.jit is not None and db.parallel is not None
        baseline = demo_company_database(4, 40, seed=11)
        baseline.disable_jit()
        baseline.disable_parallel()
        for oql in QUERIES:
            assert to_python(db.run(oql)) == to_python(baseline.run(oql)), oql


class TestSharedPlanThreadSafety:
    def test_concurrent_queries_share_one_database(self):
        # Many threads race Database.run on one jit+parallel database;
        # with a cache attached they also race compile_node on shared
        # plan nodes (idempotent, jit_ready written last).
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

    def test_prebuilt_join_closures_are_shared(self):
        # The coordinator compiles the Join node once; every worker
        # reuses the same closures via the prebuilt hash table.
        from repro.algebra.ops import Join

        db = make_db(parallel=FAST, jit=JITConfig())
        oql = (
            "select struct(e: e.name, b: d.budget) "
            "from e in Employees, d in Departments where e.dno = d.dno"
        )
        result = db.run_detailed(oql)
        assert result.stats.partitions >= 2

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        joins = [n for n in walk(result.plan) if isinstance(n, Join)]
        assert joins and all(n.jit_ready for n in joins)


class TestWorkersRunTheCompiledNodes:
    @staticmethod
    def _compile_calls(monkeypatch, db, oql):
        """``(compile_term calls, partitions)`` of one run of ``oql``."""
        import repro.jit.plan as jit_plan

        calls: list = []
        real = jit_plan.compile_term

        def counting(term, bound, fallbacks=None):
            calls.append(term)
            return real(term, bound, fallbacks)

        monkeypatch.setattr(jit_plan, "compile_term", counting)
        stats = db.run_detailed(oql).stats
        return len(calls), stats.partitions

    @pytest.mark.parametrize(
        "oql",
        [
            "sum(select e.salary from e in Employees "
            "where e.salary > 10 and e.dno > 0)",
            "select s from e in Employees, s in e.skills "
            "where e.salary > 10 and s != 'x'",
        ],
        ids=["select", "select+unnest"],
    )
    def test_fan_out_compiles_each_expression_once(self, monkeypatch, oql):
        # Partition workers run the plan's own (already compiled) nodes:
        # a fanned-out query compiles exactly what the serial one does.
        serial, _ = self._compile_calls(monkeypatch, make_db(jit=JITConfig()), oql)
        compiled, partitions = self._compile_calls(
            monkeypatch, make_db(parallel=FAST, jit=JITConfig()), oql
        )
        assert compiled == serial > 0
        assert partitions == 4
