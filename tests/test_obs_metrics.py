"""Per-operator metrics: one test per physical operator, and the
guarantee that tracing records the same counts. A block holds counts
only: the execution's one clock is its query record's ``execute`` slot."""

import dataclasses
import inspect

import pytest

from repro.algebra.ops import (
    IndexScan,
    Join,
    Nest,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
)
from repro.algebra.physical import ExecutionStats, Executor
from repro.calculus import const, ge, proj, var
from repro.calculus.ast import MonoidRef
from repro.db import Database
from repro.eval import Evaluator
from repro.obs.metrics import OperatorMetrics, PlanMetrics
from repro.values import Record


@pytest.fixture
def world():
    ls = frozenset({Record(k=1, x=10), Record(k=2, x=20), Record(k=3, x=30)})
    rs = frozenset({Record(k=1, y="a"), Record(k=1, y="b"), Record(k=4, y="c")})
    cs = frozenset(
        {Record(name="c1", xs=(1, 2, 3)), Record(name="c2", xs=(4,))}
    )
    return {"Ls": ls, "Rs": rs, "Cs": cs}


def run_with_metrics(plan, world, indexes=None):
    executor = Executor(Evaluator(world), indexes)
    value = executor.execute(plan)
    return value, executor.metrics, executor.stats


def node_block(metrics, op_type):
    """``(block, rows in)`` of the plan's first ``op_type`` node, pre-order."""
    for node, block in metrics.blocks():
        if isinstance(node, op_type):
            return block, metrics.rows_in(node)
    raise AssertionError(f"no {op_type.__name__} in plan")


class TestPerOperator:
    def test_scan(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "x"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Scan)
        assert rows_in == 0
        assert block.rows_out == 3
        assert value == frozenset({10, 20, 30})

    def test_select(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("a"), "k"),
            SelectOp(Scan("a", var("Ls")), ge(proj(var("a"), "x"), const(20))),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, SelectOp)
        assert rows_in == 3
        assert block.rows_out == 2  # x=10 filtered out

    def test_hash_join(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("b"), "y"),
            Join(
                Scan("a", var("Ls")),
                Scan("b", var("Rs")),
                (proj(var("a"), "k"),),
                (proj(var("b"), "k"),),
            ),
        )
        value, metrics, stats = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Join)
        assert rows_in == 6  # both scans feed the join
        assert block.rows_out == 2  # k=1 matches twice
        assert block.hash_builds == 3  # whole right side built
        assert block.hash_builds == stats.hash_builds
        assert value == frozenset({"a", "b"})

    def test_nested_loop_join(self, world):
        plan = Reduce(
            MonoidRef("sum"),
            const(1),
            Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
        )
        value, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Join)
        assert block.rows_out == 9  # full cross product
        assert block.hash_builds == 0
        assert value == 9

    def test_unnest(self, world):
        plan = Reduce(
            MonoidRef("bag"),
            var("x"),
            Unnest(Scan("c", var("Cs")), "x", proj(var("c"), "xs")),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Unnest)
        assert rows_in == 2  # two outer records
        assert block.rows_out == 4  # four inner elements total

    def test_index_scan(self, world):
        indexes = {
            ("Ls", "k"): {
                1: [Record(k=1, x=10)],
                2: [Record(k=2, x=20)],
                3: [Record(k=3, x=30)],
            }
        }
        plan = Reduce(
            MonoidRef("set"),
            proj(var("a"), "x"),
            IndexScan("a", "Ls", "k", const(2)),
        )
        value, metrics, stats = run_with_metrics(plan, world, indexes)
        block, rows_in = node_block(metrics, IndexScan)
        assert block.index_probes == 1
        assert block.rows_out == 1
        assert stats.index_probes == 1
        assert value == frozenset({20})

    def test_nest(self, world):
        plan = Reduce(
            MonoidRef("set"),
            var("g"),
            Nest(
                Scan("b", var("Rs")),
                keys=(("g", proj(var("b"), "k")),),
                folds=(("partition", MonoidRef("bag"), proj(var("b"), "y"), None),),
            ),
        )
        value, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Nest)
        assert rows_in == 3
        assert block.rows_out == 2  # two distinct keys: 1 and 4
        assert value == frozenset({1, 4})

    def test_reduce_collection_cardinality(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "k"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        block, rows_in = node_block(metrics, Reduce)
        assert rows_in == 3
        assert block.rows_out == len(value) == 3

    def test_reduce_primitive_is_one_row(self, world):
        plan = Reduce(MonoidRef("sum"), proj(var("a"), "x"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        assert value == 60
        assert node_block(metrics, Reduce)[0].rows_out == 1


class TestBlockDerivations:
    def test_rows_in_is_the_childrens_rows_out(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("a"), "k"),
            SelectOp(Scan("a", var("Ls")), ge(proj(var("a"), "x"), const(0))),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        for node in plan.preorder():
            kids = node.children()
            assert metrics.rows_in(node) == sum(metrics.block(kid).rows_out for kid in kids)

    def test_the_blocks_are_the_plans_preorder(self, world):
        plan = Reduce(
            MonoidRef("sum"),
            const(1),
            Join(Scan("a", var("Ls")), Unnest(Scan("c", var("Cs")), "x", proj(var("c"), "xs"))),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        assert isinstance(metrics, PlanMetrics) and isinstance(metrics, list)
        assert metrics.plan is plan
        assert [type(node) for node, _ in metrics.blocks()] == [Reduce, Join, Scan, Unnest, Scan]
        assert [block.rows_out for block in metrics] == [1, 12, 3, 4, 2]
        assert [metrics.rows_in(node) for node in plan.preorder()] == [12, 7, 0, 2, 0]

    def test_a_block_holds_counts_only(self, world):
        fields = [f.name for f in dataclasses.fields(OperatorMetrics)]
        assert fields == ["rows_out", "hash_builds", "index_probes"]
        plan = Reduce(MonoidRef("sum"), const(1), Scan("a", var("Ls")))
        _, metrics, _ = run_with_metrics(plan, world)
        assert all(set(vars(block)) == set(fields) for block in metrics)

    def test_equal_nodes_in_different_positions_do_not_share_counters(self, world):
        # structurally-equal scans must be metered separately (by position)
        left = Scan("a", var("Ls"))
        right = Scan("b", var("Rs"))
        plan = Reduce(MonoidRef("sum"), const(1), Join(left, right))
        _, metrics, _ = run_with_metrics(plan, world)
        assert metrics.block(left).rows_out == 3
        assert metrics.block(right).rows_out == 3
        assert metrics.block(left) is not metrics.block(right)

    def test_a_node_of_another_plan_has_no_block(self, world):
        plan = Reduce(MonoidRef("sum"), const(1), Scan("a", var("Ls")))
        _, metrics, _ = run_with_metrics(plan, world)
        with pytest.raises(KeyError):
            metrics.block(Scan("a", var("Ls")))  # equal, but not the plan's

    def test_execute_resets_metrics_between_runs(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "k"), Scan("a", var("Ls")))
        executor = Executor(Evaluator(world))
        executor.execute(plan)
        executor.execute(plan)
        assert node_block(executor.metrics, Scan)[0].rows_out == 3  # not 6


class TestSeedPathUntouched:
    QUERY = (
        "select distinct h.name from c in Cities, h in c.hotels "
        "where h.stars >= 2"
    )

    def test_disabled_tracing_is_byte_identical(self):
        from repro.db import demo_travel_database

        plain = demo_travel_database(num_cities=5, seed=3)
        traced = demo_travel_database(num_cities=5, seed=3)
        # Telemetry forces phase spans on; this test is about the seed
        # path, so pin it off (robust under REPRO_TELEMETRY=1).
        plain.disable_telemetry()
        traced.disable_telemetry()
        traced.profile(True)

        off = plain.run_detailed(self.QUERY)
        on = traced.run_detailed(self.QUERY)

        assert not plain.query_log.entries and len(traced.query_log.entries) == 1
        assert off.value == on.value
        assert off.stats.as_dict() == on.stats.as_dict()
        assert off.engine == on.engine == "algebra"
        # One record either way: the same counts per node.
        assert _counts(off) == _counts(on)

    def test_profile_off_restores_untraced_pipeline(self):
        from repro.db import demo_travel_database

        db = demo_travel_database(num_cities=4, seed=1)
        db.disable_telemetry()
        db.profile(True)
        db.run("count(Cities)")
        db.profile(False)
        db.run(self.QUERY)
        assert db.query_log.enabled is False
        assert len(db.query_log.entries) == 1  # kept, and not added to

    def test_no_switch_asks_for_a_timer(self):
        from repro.cache.prepared import Prepared
        from repro.db import demo_travel_database

        assert "metrics" not in inspect.signature(Database.run_detailed).parameters
        assert "metrics" not in inspect.signature(Prepared.run_detailed).parameters
        db = demo_travel_database(num_cities=4, seed=1)
        db.disable_telemetry()
        result = db.run_detailed(self.QUERY)
        assert not db.query_log.entries  # no history kept
        assert node_block(result.metrics, Scan)[0].rows_out == 4
        assert "execute" in result.phases_ms()  # the one clock

    def test_no_plan_no_record(self):
        from repro.db import demo_travel_database

        db = demo_travel_database(num_cities=4, seed=1)
        result = db.run_detailed(self.QUERY, engine="interpret")
        assert result.stats is None and result.metrics is None


def _counts(result):
    return [
        (node.label(), block.rows_out, block.hash_builds, block.index_probes)
        for node, block in result.metrics.blocks()
    ]


class TestStatsAsDict:
    def test_derived_from_dataclass_fields(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("b"), "y"),
            Join(
                Scan("a", var("Ls")),
                Scan("b", var("Rs")),
                (proj(var("a"), "k"),),
                (proj(var("b"), "k"),),
            ),
        )
        stats = run_with_metrics(plan, world)[2]
        expected = {f.name for f in dataclasses.fields(ExecutionStats)}
        assert set(stats.as_dict()) == expected
        assert stats.as_dict()["rows_scanned"] == 6
        assert stats.as_dict()["hash_builds"] == 3

    def test_stats_before_any_execution_are_zero(self, world):
        assert not any(Executor(Evaluator(world)).stats.as_dict().values())

    def test_operator_metrics_as_dict_is_field_complete(self):
        block = OperatorMetrics(rows_out=5, index_probes=1)
        expected = {f.name for f in dataclasses.fields(OperatorMetrics)}
        assert set(block.as_dict()) == expected
        assert block.as_dict()["rows_out"] == 5
