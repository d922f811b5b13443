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


def node_snap(metrics, plan, op_type):
    for snap in metrics.walk(plan):
        if isinstance(snap.node, op_type):
            return snap
    raise AssertionError(f"no {op_type.__name__} in plan")


class TestPerOperator:
    def test_scan(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "x"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        snap = node_snap(metrics, plan, Scan)
        assert snap.rows_in == 0
        assert snap.rows_out == 3
        assert value == frozenset({10, 20, 30})

    def test_select(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("a"), "k"),
            SelectOp(Scan("a", var("Ls")), ge(proj(var("a"), "x"), const(20))),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        snap = node_snap(metrics, plan, SelectOp)
        assert snap.rows_in == 3
        assert snap.rows_out == 2  # x=10 filtered out

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
        snap = node_snap(metrics, plan, Join)
        assert snap.rows_in == 6  # both scans feed the join
        assert snap.rows_out == 2  # k=1 matches twice
        assert snap.metrics.hash_builds == 3  # whole right side built
        assert snap.metrics.hash_builds == stats.hash_builds
        assert value == frozenset({"a", "b"})

    def test_nested_loop_join(self, world):
        plan = Reduce(
            MonoidRef("sum"),
            const(1),
            Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
        )
        value, metrics, _ = run_with_metrics(plan, world)
        snap = node_snap(metrics, plan, Join)
        assert snap.rows_out == 9  # full cross product
        assert snap.metrics.hash_builds == 0
        assert value == 9

    def test_unnest(self, world):
        plan = Reduce(
            MonoidRef("bag"),
            var("x"),
            Unnest(Scan("c", var("Cs")), "x", proj(var("c"), "xs")),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        snap = node_snap(metrics, plan, Unnest)
        assert snap.rows_in == 2  # two outer records
        assert snap.rows_out == 4  # four inner elements total

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
        snap = node_snap(metrics, plan, IndexScan)
        assert snap.metrics.index_probes == 1
        assert snap.rows_out == 1
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
        snap = node_snap(metrics, plan, Nest)
        assert snap.rows_in == 3
        assert snap.rows_out == 2  # two distinct keys: 1 and 4
        assert value == frozenset({1, 4})

    def test_reduce_collection_cardinality(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "k"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        snap = node_snap(metrics, plan, Reduce)
        assert snap.rows_in == 3
        assert snap.rows_out == len(value) == 3

    def test_reduce_primitive_is_one_row(self, world):
        plan = Reduce(MonoidRef("sum"), proj(var("a"), "x"), Scan("a", var("Ls")))
        value, metrics, _ = run_with_metrics(plan, world)
        assert value == 60
        assert node_snap(metrics, plan, Reduce).rows_out == 1


class TestSnapshotDerivations:
    def test_rows_in_is_the_childrens_rows_out(self, world):
        plan = Reduce(
            MonoidRef("set"),
            proj(var("a"), "k"),
            SelectOp(Scan("a", var("Ls")), ge(proj(var("a"), "x"), const(0))),
        )
        _, metrics, _ = run_with_metrics(plan, world)
        for snap in metrics.walk(plan):
            assert snap.rows_in == sum(child.rows_out for child in snap.children)

    def test_a_block_holds_counts_only(self, world):
        fields = [f.name for f in dataclasses.fields(OperatorMetrics)]
        assert fields == ["rows_out", "hash_builds", "index_probes"]
        plan = Reduce(MonoidRef("sum"), const(1), Scan("a", var("Ls")))
        _, metrics, _ = run_with_metrics(plan, world)
        assert all(set(vars(s.metrics)) == set(fields) for s in metrics.walk(plan))

    def test_equal_nodes_in_different_positions_do_not_share_counters(self, world):
        # structurally-equal scans must be metered separately (id-keyed)
        left = Scan("a", var("Ls"))
        right = Scan("b", var("Rs"))
        plan = Reduce(MonoidRef("sum"), const(1), Join(left, right))
        _, metrics, _ = run_with_metrics(plan, world)
        assert metrics.get(left).rows_out == 3
        assert metrics.get(right).rows_out == 3
        assert metrics.get(left) is not metrics.get(right)

    def test_execute_resets_metrics_between_runs(self, world):
        plan = Reduce(MonoidRef("set"), proj(var("a"), "k"), Scan("a", var("Ls")))
        executor = Executor(Evaluator(world))
        executor.execute(plan)
        executor.execute(plan)
        assert node_snap(executor.metrics, plan, Scan).rows_out == 3  # not 6


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

        assert off.span is None and on.span is not None
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
        assert db.run_detailed("count(Cities)").span is not None
        db.profile(False)
        result = db.run_detailed(self.QUERY)
        assert result.span is None
        assert db.query_log is None

    def test_no_switch_asks_for_a_timer(self):
        from repro.cache.prepared import Prepared
        from repro.db import demo_travel_database

        assert "metrics" not in inspect.signature(Database.run_detailed).parameters
        assert "metrics" not in inspect.signature(Prepared.run_detailed).parameters
        db = demo_travel_database(num_cities=4, seed=1)
        db.disable_telemetry()
        result = db.run_detailed(self.QUERY)
        assert result.span is None  # no tracer involved
        assert node_snap(result.metrics, result.plan, Scan).rows_out == 4
        assert "execute" in result.record.phases_ms()  # the one clock

    def test_no_plan_no_record(self):
        from repro.db import demo_travel_database

        db = demo_travel_database(num_cities=4, seed=1)
        result = db.run_detailed(self.QUERY, engine="interpret")
        assert result.stats is None and result.metrics is None


def _counts(result):
    return [
        (s.node.label(), s.rows_out, s.metrics.hash_builds, s.metrics.index_probes)
        for s in result.metrics.walk(result.plan)
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
