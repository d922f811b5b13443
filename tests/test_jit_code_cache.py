"""The process-wide code cache, counted not timed.

A plan's generated function is keyed by the plan's alpha-canonical form
(:func:`repro.jit.plan.plan_key`), so a fresh plan of a shape already
compiled skips emission and ``compile()``; every plan gets its code on its
first run. The work is counted with a spy on ``_fuse``, the one place code
is emitted.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algebra import Executor, Reduce, Scan, build_plan
from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from repro.calculus import const, var
from repro.calculus.ast import Call, MonoidRef
from repro.db import Database, company_schema, make_company, make_travel_agency, travel_schema
from repro.eval import Evaluator
from repro.jit import plan as jit_plan
from repro.jit.plan import _fuse, fused, plan_key, precompile_plan
from repro.normalize import normalize
from repro.oql import translate_oql
from repro.types.types import TBOOL

SCAN = "select {v}.name from {v} in Employees where {v}.salary > 50000"


def company(cache=False, **more) -> Database:
    db = Database(company_schema(), cache=cache, parallel=False, telemetry=False, **more)
    db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
    return db


KEPT = CacheConfig(results=False)


@pytest.fixture
def emitted(count_calls):
    """The plans ``_fuse`` emitted code for, in order."""
    return count_calls(_fuse)


class TestFirstRun:
    def test_without_a_compile_cache_the_first_run_emits_once(self, emitted):
        db = company()
        seen = []
        for _ in range(3):
            result = db.run_detailed(SCAN.format(v="e"))
            seen.append((len(emitted), result.jit is not None))
        assert seen == [(1, True), (1, True), (1, True)]

    def test_with_a_compile_cache_the_first_run_emits_once(self, emitted):
        db = company(cache=KEPT)
        reports = [db.run_detailed(SCAN.format(v="e")).jit for _ in range(3)]
        assert len(emitted) == 1 and None not in reports

    def test_a_prepared_statement_is_kept(self, emitted):
        prepared = company().prepare("select e.name from e in Employees where e.dno = $d")
        assert prepared.run_detailed(d=1).jit is not None and len(emitted) == 1

    def test_a_repeated_text_is_keyed_once_per_catalog_version(self, count_calls):
        db = company()
        keyed = count_calls(plan_key)
        for _ in range(3):
            db.run(SCAN.format(v="e"))
        assert len(keyed) == 1
        db.create_index("Employees", "dno")  # a new catalog version: the plan may change
        db.run(SCAN.format(v="e"))
        assert len(keyed) == 2

    def test_the_jit_phase_runs_on_every_plan(self):
        result = company().run_detailed(SCAN.format(v="e"))
        assert "jit" in result.phases_ms() and result.jit["compiled"] > 0


class TestKey:
    def test_alpha_variants_share_one_function_across_databases(self, emitted):
        first = company(cache=KEPT).run_detailed(SCAN.format(v="x"))
        second = company(cache=KEPT).run_detailed(SCAN.format(v="y"))
        assert len(emitted) == 1 and first.value == second.value
        assert first.plan is not second.plan
        assert fused(first.plan) is fused(second.plan)

    @pytest.mark.parametrize("verify", [False, True])
    def test_verify_mode_has_its_own_function(self, emitted, verify):
        plan = company().compile(SCAN.format(v="e")).plan
        with verification(verify):
            precompile_plan(plan)
        assert fused(plan, checked=verify) is not fused(plan, checked=not verify)
        assert len(emitted) == 2

    def test_literals_of_different_types_never_share(self, emitted):
        db = company(cache=KEPT)
        kinds = {}
        for literal in ("1", "1.0", "true", "'1'"):
            value = db.run(f"select {literal} from e in Employees where e.dno = 1")
            (element,) = set(value)
            kinds[literal] = type(element)
        assert kinds == {"1": int, "1.0": float, "true": bool, "'1'": str}
        assert len(emitted) == 4

    def test_signed_zeros_and_nested_literals_are_keyed_by_type(self):
        def key(value):
            return plan_key(Reduce(MonoidRef("list"), const(value), Scan("x", var("Xs"))), False)

        assert key(0.0) != key(-0.0)
        assert key((1,)) != key((1.0,)) != key((True,))
        assert key((1,)) == key((1,))

    def test_a_call_of_a_plan_variable_is_not_a_call_of_a_function(self):
        def plan(name):  # ``f()`` calls the row when the Scan binds ``f``
            return Reduce(MonoidRef("list"), Call("f", ()), Scan(name, var("Xs")))

        assert plan_key(plan("f"), False) != plan_key(plan("g"), False)
        assert plan_key(plan("g"), False) == plan_key(plan("h"), False)

    def test_a_scan_source_named_like_its_variable_is_a_global(self):
        def plan(name, source):
            return Reduce(MonoidRef("list"), var(name), Scan(name, var(source)))

        assert plan_key(plan("x", "x"), False) != plan_key(plan("y", "y"), False)
        assert plan_key(plan("x", "Xs"), False) == plan_key(plan("y", "Xs"), False)


class TestSharing:
    def test_functions_resolve_in_the_database_that_runs(self, emitted):
        dbs = [company(cache=KEPT), company(cache=KEPT)]
        dbs[0].register_function("bump", lambda n: n + 1)
        dbs[1].register_function("bump", lambda n: n * 10)
        oql = "sum(select bump(e.dno) from e in Employees)"
        dnos = dbs[0].run("select e.dno from e in Employees", engine="interpret")
        assert [db.run(oql) for db in dbs] == [
            sum(d + 1 for d in dnos),
            sum(d * 10 for d in dnos),
        ]
        assert len(emitted) == 1

    def test_methods_resolve_in_the_database_that_runs(self, emitted):
        answers = []
        for stars in (5, 1):
            schema = travel_schema()
            schema.define_method(
                "City",
                "has_luxury",
                lambda city, stars=stars: any(h["stars"] >= stars for h in city["hotels"]),
                result=TBOOL,
            )
            db = Database(schema, cache=KEPT, parallel=False, telemetry=False)
            db.load_extents(make_travel_agency(num_cities=6, seed=7))
            oql = "select distinct c.name from c in Cities where c.has_luxury()"
            answers.append((db.run(oql), db.run(oql, engine="interpret")))
        assert [got for got, _ in answers] == [want for _, want in answers]
        assert answers[0][0] < answers[1][0] and len(emitted) == 1  # a proper subset

    def test_threads_running_one_shape_create_one_entry(self, emitted):
        db = company()
        plans = [build_plan(normalize(translate_oql(SCAN.format(v="e")))) for _ in range(8)]
        start = threading.Barrier(8)
        values, failures = [], []

        def worker(plan) -> None:
            try:
                start.wait(timeout=30)  # then all race the jit phase on one shape
                precompile_plan(plan)
                values.append(Executor(db.evaluator()).execute(plan))
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(emitted) == 1 and len(jit_plan._CODE) == 1
        assert len(values) == 8 and all(value == values[0] for value in values)

    def test_constants_that_do_not_hash_compile_outside_the_cache(self, emitted):
        def plan():
            return Reduce(MonoidRef("list"), const([1, 2]), Scan("x", const((1, 2, 3))))

        first = Executor(Evaluator()).execute(plan())
        compiled = plan()
        assert precompile_plan(compiled)["compiled"] == 1
        assert Executor(Evaluator()).execute(compiled) == first == ((1, 2),) * 3
        assert len(emitted) == 2 and len(jit_plan._CODE) == 0  # emitted per plan


class TestBound:
    def test_the_least_recently_used_shape_is_evicted(self, emitted, monkeypatch):
        monkeypatch.setattr(jit_plan._CODE, "capacity", 2)

        def plan(n):  # a different shape per n
            return Reduce(MonoidRef("sum"), const(n), Scan("x", var("Xs")))

        for n in (1, 2, 1, 3):  # 1 was used after 2: 2 is the one to go
            fused(plan(n))
        assert len(emitted) == 3 and len(jit_plan._CODE) == 2
        fused(plan(1))
        assert len(emitted) == 3
        fused(plan(2))
        assert len(emitted) == 4 and len(jit_plan._CODE) == 2
