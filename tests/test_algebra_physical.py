"""Pipelined execution: joins, unnests, stats, index scans."""

import pytest

from repro.algebra import (
    Executor,
    IndexScan,
    Join,
    Optimizer,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
    build_plan,
    execute_plan,
)
from repro.analysis.verifier import verification
from repro.calculus import const, eq, proj, var
from repro.calculus.ast import MonoidRef
from repro.db import Database, company_schema, make_company
from repro.errors import EvaluationError, PlanError
from repro.eval import Evaluator
from repro.jit import Runtime
from repro.normalize import normalize
from repro.oql import translate_oql
from repro.values import Bag, Record


@pytest.fixture
def world():
    as_ = frozenset({Record(k=1, x=10), Record(k=2, x=20)})
    bs = frozenset({Record(k=1, y="a"), Record(k=1, y="b"), Record(k=3, y="c")})
    return {"Ls": as_, "Rs": bs}


def test_hash_join_matches_nested_loop(world):
    hash_plan = Reduce(
        MonoidRef("set"),
        proj(var("b"), "y"),
        Join(
            Scan("a", var("Ls")),
            Scan("b", var("Rs")),
            (proj(var("a"), "k"),),
            (proj(var("b"), "k"),),
        ),
    )
    loop_plan = Reduce(
        MonoidRef("set"),
        proj(var("b"), "y"),
        SelectOp(
            Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
            eq(proj(var("a"), "k"), proj(var("b"), "k")),
        ),
    )
    assert execute_plan(hash_plan, world) == execute_plan(loop_plan, world) == frozenset({"a", "b"})


def test_hash_join_stats(world):
    plan = build_plan(
        translate_oql("select distinct b.y from a in Ls, b in Rs where a.k = b.k")
    )
    executor = Executor(Evaluator(world))
    executor.execute(plan)
    assert executor.stats.hash_builds == 3
    assert executor.stats.rows_joined == 2


def test_join_residual_predicate(world):
    plan = Reduce(
        MonoidRef("set"),
        proj(var("b"), "y"),
        Join(
            Scan("a", var("Ls")),
            Scan("b", var("Rs")),
            (proj(var("a"), "k"),),
            (proj(var("b"), "k"),),
            residual=eq(proj(var("b"), "y"), const("a")),
        ),
    )
    assert execute_plan(plan, world) == frozenset({"a"})


@pytest.mark.parametrize("keys", [((proj(var("a"), "k"),), (proj(var("b"), "k"),)), ((), ())])
def test_join_residual_requires_boolean(world, keys):
    # A residual is a predicate position like any other: 1 is not True.
    plan = Reduce(
        MonoidRef("sum"),
        const(1),
        Join(Scan("a", var("Ls")), Scan("b", var("Rs")), *keys, residual=const(1)),
    )
    with pytest.raises(EvaluationError, match="qualifier predicate requires a boolean, got int: 1"):
        execute_plan(plan, world)


def test_cross_join(world):
    plan = Reduce(
        MonoidRef("sum"),
        const(1),
        Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
    )
    assert execute_plan(plan, world) == 6


def test_unnest(world):
    data = {"Cs": frozenset({Record(name="c1", xs=(1, 2)), Record(name="c2", xs=(3,))})}
    plan = Reduce(
        MonoidRef("bag"),
        var("x"),
        Unnest(Scan("c", var("Cs")), "x", proj(var("c"), "xs")),
    )
    assert execute_plan(plan, data) == Bag([1, 2, 3])


def test_selection_requires_boolean(world):
    plan = Reduce(
        MonoidRef("set"),
        var("a"),
        SelectOp(Scan("a", var("Ls")), const(1)),
    )
    with pytest.raises(EvaluationError):
        execute_plan(plan, world)


def test_indexed_scan_over_vector():
    from repro.values import Vector

    plan = Reduce(
        MonoidRef("list"),
        var("i"),
        Scan("x", var("v"), index_var="i"),
    )
    assert execute_plan(plan, {"v": Vector.from_dense([9, 9])}) == (0, 1)


def test_index_scan_uses_index(world):
    index = {(("Ls"), "k"): {1: [Record(k=1, x=10)], 2: [Record(k=2, x=20)]}}
    plan = Reduce(
        MonoidRef("set"),
        proj(var("a"), "x"),
        IndexScan("a", "Ls", "k", const(2)),
    )
    executor = Executor(Evaluator(world), indexes=index)
    assert executor.execute(plan) == frozenset({20})
    assert executor.stats.index_probes == 1


def test_index_scan_missing_index_raises(world):
    plan = Reduce(
        MonoidRef("set"),
        var("a"),
        IndexScan("a", "Ls", "k", const(2)),
    )
    with pytest.raises(PlanError):
        Executor(Evaluator(world)).execute(plan)


def test_reduce_primitive_monoid(world):
    plan = Reduce(MonoidRef("sum"), proj(var("a"), "x"), Scan("a", var("Ls")))
    assert execute_plan(plan, world) == 30


def test_reduce_vector_monoid_requires_pair():
    from repro.calculus import tup
    from repro.calculus.ast import MonoidRef as MR, Const

    ref = MR("vec", element=MR("sum"), size=Const(2))
    good = Reduce(ref, tup(var("x"), const(0)), Scan("x", const((1, 2))))
    out = execute_plan(good)
    assert out.to_list() == [3, 0]

    bad = Reduce(ref, var("x"), Scan("x", const((1, 2))))
    with pytest.raises(EvaluationError):
        execute_plan(bad)


def test_stats_reset_between_executions(world):
    plan = build_plan(translate_oql("select distinct a from a in Ls"))
    executor = Executor(Evaluator(world))
    executor.execute(plan)
    first = executor.stats.rows_scanned
    executor.execute(plan)
    assert executor.stats.rows_scanned == first


def test_scan_dereferences_object_sources():
    ev = Evaluator()
    obj = ev.store.new((1, 2, 3))
    ev.bind_global("Xs", obj)
    plan = Reduce(MonoidRef("sum"), var("x"), Scan("x", var("Xs")))
    assert Executor(ev).execute(plan) == 6


# -- Experiment F2, counted: the work a join strategy or an index saves ----------

JOIN_OQL = (
    "select distinct struct(e: e.name, d: d.name) "
    "from e in Employees, d in Departments where e.dno = d.dno"
)


def _join_plans():
    """The hash join the plan builder derives, and the same join demoted to
    a cross product filtered by the equality."""
    plan = build_plan(normalize(translate_oql(JOIN_OQL)))
    join = plan.child
    cross = Reduce(plan.monoid, plan.head, Join(
        join.left, join.right, residual=eq(*join.left_keys, *join.right_keys)
    ))
    return {"hash": plan, "cross+filter": cross}


@pytest.fixture
def residual_tests(monkeypatch):
    """Call it with a plan: the list that every later test of the plan's
    Join residual appends to. A run under verify mode hands each
    operator-position value to ``Runtime.check`` with its term."""

    def start(plan: Reduce) -> list:
        tested: list = []
        check = Runtime.check

        def counting(self, value, term, binding):
            if term is plan.child.residual:
                tested.append(value)
            return check(self, value, term, binding)

        monkeypatch.setattr(Runtime, "check", counting)
        return tested

    return start


def _checked_run(plan: Reduce, evaluator: Evaluator):
    with verification(True):
        executor = Executor(evaluator)
    return executor, executor.execute(plan)


@pytest.mark.parametrize("size", [50, 200, 800])
@pytest.mark.parametrize("strategy", ["cross+filter", "hash"])
def test_join_strategy_series(strategy, size, residual_tests):
    """Experiment F2's points: either strategy pairs each employee with its
    department, but only the cross product tests the n*m pairs to do so."""
    world = make_company(size // 10, size, seed=2)
    plan = _join_plans()[strategy]
    tested = residual_tests(plan)
    _, value = _checked_run(plan, Evaluator(world))
    names = {d.dno: d.name for d in world["Departments"]}
    assert value == frozenset(Record(e=e.name, d=names[e.dno]) for e in world["Employees"])
    assert len(tested) == (size * size // 10 if strategy == "cross+filter" else 0)


def test_shape_hash_join_forms_only_the_matching_pairs(residual_tests):
    """The cross product tests every (employee, department) pair against
    the equality; the hash join builds on the departments once and forms
    only the matching pairs. The gap grows with the input."""
    plans = _join_plans()
    plan, cross = plans["hash"], plans["cross+filter"]
    tested = residual_tests(cross)
    gaps = []
    for employees in (50, 800):
        departments = employees // 10
        evaluator = Evaluator(make_company(departments, employees, seed=2))
        hashed, value = _checked_run(plan, evaluator)
        tested.clear()
        assert _checked_run(cross, evaluator)[1] == value and len(value) == employees
        assert len(tested) == employees * departments
        assert hashed.stats.hash_builds == departments
        assert hashed.stats.rows_joined == employees
        gaps.append(len(tested) / (hashed.stats.hash_builds + hashed.stats.rows_joined))
    assert 1.5 < gaps[0] < gaps[1], gaps


def test_shape_index_probes_once_where_a_scan_reads_every_row():
    db = Database(company_schema())
    db.load_extents(make_company(200, 400, seed=2))
    term = normalize(db.translate("select distinct d.name from d in Departments where d.dno = 3"))
    scan_plan = Optimizer().optimize(build_plan(term))
    db.create_index("Departments", "dno")
    index_plan = Optimizer(db.catalog.index_keys()).optimize(build_plan(term))
    executor = Executor(db.evaluator(), db.catalog.index_mappings())
    assert executor.execute(scan_plan) == frozenset({"Dept-3"})
    assert (executor.stats.rows_scanned, executor.stats.index_probes) == (200, 0)
    assert executor.execute(index_plan) == frozenset({"Dept-3"})
    assert (executor.stats.rows_scanned, executor.stats.index_probes) == (1, 1)


@pytest.mark.parametrize("strategy", ["scan", "index"])
def test_point_query_series(strategy):
    """F2's point query through ``Database.run``: once Departments.dno is
    indexed, the optimizer picks the probe on its own."""
    db = Database(company_schema(), cache=False, parallel=False)
    db.load_extents(make_company(80, 800, seed=2))
    if strategy == "index":
        db.create_index("Departments", "dno")
    result = db.run_detailed("select distinct d.name from d in Departments where d.dno = 3")
    assert result.value == frozenset({"Dept-3"})
    probes = (1, 1) if strategy == "index" else (80, 0)
    assert (result.stats.rows_scanned, result.stats.index_probes) == probes
