"""Pipelined execution: joins, unnests, stats, index scans."""

import pytest

from repro.algebra import (
    Executor,
    IndexScan,
    Join,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
    build_plan,
    execute_plan,
)
from repro.calculus import const, eq, proj, var
from repro.calculus.ast import MonoidRef
from repro.errors import EvaluationError, PlanError
from repro.eval import Evaluator
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
