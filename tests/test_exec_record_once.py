"""One record per execution, folded once: the per-execution work of the
executor and of the record's readers, counted without a clock.

An execution's :class:`~repro.obs.metrics.PlanMetrics` is a list in the
plan's pre-order, which the plan keeps (``PlanNode.preorder``): a plan
run again walks nothing. ``ExecutionStats.of`` is the one whole-query
fold, and a result computes it once, however many readers (the query
log, telemetry, ``pipeline_report``) ask.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.algebra.ops import PlanNode, Reduce, Scan, SelectOp
from repro.algebra.physical import ExecutionStats, Executor
from repro.cache import CacheConfig
from repro.calculus import const, ge, proj, var
from repro.calculus.ast import MonoidRef
from repro.db import demo_travel_database
from repro.obs.telemetry import MetricsRegistry

QUERY = "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 2"


@pytest.fixture
def tree_walks(monkeypatch):
    """Start counting ``PlanNode.children`` calls: computing a pre-order
    (or any other walk of the tree) makes one per node."""

    def start() -> list:
        calls: list = []
        original = PlanNode.children

        def counting(self):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(PlanNode, "children", counting)
        return calls

    return start


@pytest.fixture
def folds(monkeypatch):
    """Start counting ``ExecutionStats.of`` calls."""

    def start() -> list:
        calls: list = []
        original = ExecutionStats.of.__func__

        def counting(cls, metrics):
            calls.append(metrics)
            return original(cls, metrics)

        monkeypatch.setattr(ExecutionStats, "of", classmethod(counting))
        return calls

    return start


def test_a_second_execution_computes_no_preorder(tree_walks):
    db = demo_travel_database(num_cities=3, seed=1)
    plan = db.compile(QUERY).plan
    executor = Executor(db.evaluator(), db.catalog.index_mappings())
    executor.execute(plan)
    order = plan.preorder()
    first = executor.metrics
    calls = tree_walks()
    executor.execute(plan)
    assert executor.stats.rows_scanned == 3
    assert calls == []
    assert plan.preorder() == order
    assert executor.metrics is not first and len(executor.metrics) == len(order)


def test_a_kept_preorder_makes_no_reference_cycle():
    """A plan is freed when its last reference goes, not at the cyclic
    collector's next pass: what a node keeps holds only nodes below it."""
    plan = Reduce(
        MonoidRef("set"),
        proj(var("a"), "k"),
        SelectOp(Scan("a", var("Ls")), ge(proj(var("a"), "x"), const(0))),
    )
    assert all(node.preorder()[0] is node for node in plan.preorder())  # each node keeps its own
    nodes = [weakref.ref(node) for node in plan.preorder()]
    gc.disable()
    try:
        del plan
        assert [node() for node in nodes] == [None] * 3
    finally:
        gc.enable()


def test_a_compile_hit_walks_no_plan(tree_walks):
    db = demo_travel_database(num_cities=3, seed=1)
    db.enable_cache(CacheConfig(results=False))
    db.profile(True)
    db.enable_telemetry(MetricsRegistry())
    db.run(QUERY)
    calls = tree_walks()
    result = db.run_detailed(QUERY)
    assert result.cache["compile"] == "hit" and result.stats.rows_scanned == 3
    assert calls == []


def test_one_fold_per_query_with_the_log_and_telemetry_on(folds):
    db = demo_travel_database(num_cities=3, seed=1)
    db.profile(True)
    registry = MetricsRegistry()
    db.enable_telemetry(registry)
    calls = folds()
    result = db.run_detailed(QUERY)
    assert len(calls) == 1 and calls[0] is result.metrics
    assert result.stats is result.stats
    assert db.query_log.entries[-1]["stats"] == result.stats.as_dict()
    result.pipeline_report()
    assert len(calls) == 1
    # telemetry reads the same fold: the root Reduce's block is the result's size
    assert registry.total("repro_rows_returned_total") == len(result.value)
    assert registry.total("repro_operator_rows_total") == sum(b.rows_out for b in result.metrics)
