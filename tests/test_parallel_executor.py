"""The partition-parallel executor: partitioning, config, fan-out,
fallbacks, per-node metrics and trace spans."""

import pytest

from repro.algebra import Executor, IndexScan, Reduce, Scan, build_plan
from repro.analysis.verifier import verification
from repro.calculus import const, proj, var
from repro.calculus.ast import MonoidRef
from repro.errors import DatabaseError, VerificationError
from repro.eval import Evaluator
from repro.obs.metrics import PlanMetrics
from repro.oql import translate_oql
from repro.parallel import (
    ParallelConfig,
    ParallelExecutor,
    partition_rows,
    resolve_parallel,
)
from repro.parallel.config import config_from_env, parallel_env_enabled
from repro.values import Record


# ---------------------------------------------------------------------------
# partition_rows
# ---------------------------------------------------------------------------


def test_partitions_are_contiguous_in_order_and_nonempty():
    rows = tuple({"x": i} for i in range(17))
    for workers in (1, 2, 3, 4, 8, 17, 40):
        parts = partition_rows(rows, workers)
        assert all(parts), "no empty partitions"
        assert len(parts) <= max(workers, 1)
        flat = tuple(row for part in parts for row in part)
        assert flat == rows, "concatenation restores the scan order"


def test_partitions_cap_at_element_count():
    rows = tuple({"x": i} for i in range(3))
    parts = partition_rows(rows, 8)
    assert len(parts) == 3
    assert [len(p) for p in parts] == [1, 1, 1]


def test_partitions_empty_input():
    assert partition_rows((), 4) == []


def test_partitions_morsel_size():
    rows = tuple({"x": i} for i in range(7))
    parts = partition_rows(rows, 4, morsel_size=2)
    assert [len(p) for p in parts] == [2, 2, 2, 1]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(DatabaseError):
        ParallelConfig(max_workers=0)
    with pytest.raises(DatabaseError):
        ParallelConfig(min_partition_rows=-1)
    with pytest.raises(DatabaseError):
        ParallelConfig(morsel_size=0)


def test_resolve_parallel_variants(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)  # None defers to the flag
    assert resolve_parallel(None) is None
    assert resolve_parallel(False) is None
    assert resolve_parallel(True) == ParallelConfig()
    assert resolve_parallel(6).max_workers == 6
    config = ParallelConfig(max_workers=2)
    assert resolve_parallel(config) is config


def test_env_enablement(monkeypatch):
    for value in ("", "0", "false", "off", "no"):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        assert not parallel_env_enabled()
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    assert parallel_env_enabled()
    assert config_from_env() == ParallelConfig()
    monkeypatch.setenv("REPRO_PARALLEL", "8")
    assert config_from_env().max_workers == 8
    monkeypatch.delenv("REPRO_PARALLEL")
    assert not parallel_env_enabled()


# ---------------------------------------------------------------------------
# fan-out vs serial
# ---------------------------------------------------------------------------


@pytest.fixture
def env():
    return {
        "Ns": tuple(Record(k=i % 5, v=i) for i in range(100)),
        "Ds": tuple(Record(k=i, name=f"d{i}") for i in range(5)),
    }


def both(oql, env, config=None, metrics=None):
    plan = build_plan(translate_oql(oql))
    serial = Executor(Evaluator(env)).execute(plan)
    pex = ParallelExecutor(
        Evaluator(env),
        metrics=metrics,
        config=config or ParallelConfig(max_workers=4, min_partition_rows=1),
    )
    return serial, pex.execute(plan), pex


def test_parallel_sum_equals_serial(env):
    serial, par, pex = both("sum(select n.v from n in Ns)", env)
    assert serial == par == sum(range(100))
    assert pex.last_mode == "parallel"
    assert pex.stats.partitions == 4
    assert pex.stats.parallel_workers == 4


def test_parallel_filter_bag_equals_serial(env):
    serial, par, pex = both("select n.v from n in Ns where n.v > 42", env)
    assert serial == par
    assert pex.last_mode == "parallel"


def test_parallel_stats_match_serial(env):
    plan = build_plan(translate_oql("select n.v from n in Ns where n.v > 42"))
    ref = Executor(Evaluator(env))
    ref.execute(plan)
    pex = ParallelExecutor(
        Evaluator(env), config=ParallelConfig(max_workers=4, min_partition_rows=1)
    )
    pex.execute(plan)
    expected = ref.stats.as_dict()
    got = pex.stats.as_dict()
    assert {k: v for k, v in got.items() if k not in ("partitions", "parallel_workers")} == {
        k: v for k, v in expected.items() if k not in ("partitions", "parallel_workers")
    }


def test_parallel_hash_join_equals_serial(env):
    serial, par, pex = both(
        "select struct(v: n.v, d: d.name) from n in Ns, d in Ds where n.k = d.k",
        env,
    )
    assert serial == par
    assert pex.last_mode == "parallel"
    assert pex.stats.hash_builds == 5


def test_serial_fallback_few_rows(env):
    serial, par, pex = both(
        "sum(select n.v from n in Ns)",
        env,
        config=ParallelConfig(max_workers=4, min_partition_rows=1000),
    )
    assert serial == par
    assert pex.last_mode == "serial"
    assert pex.stats.partitions == 0


def test_serial_fallback_one_worker(env):
    serial, par, pex = both(
        "sum(select n.v from n in Ns)", env, config=ParallelConfig(max_workers=1)
    )
    assert serial == par
    assert pex.last_mode == "serial"


def test_serial_fallback_index_scan(env):
    plan = Reduce(
        MonoidRef("sum"),
        proj(var("n"), "v"),
        IndexScan("n", "Ns", "k", const(3)),
    )
    indexes = {("Ns", "k"): {3: [r for r in env["Ns"] if r["k"] == 3]}}
    serial = Executor(Evaluator(env), indexes).execute(plan)
    pex = ParallelExecutor(
        Evaluator(env),
        indexes,
        config=ParallelConfig(max_workers=4, min_partition_rows=1),
    )
    assert pex.execute(plan) == serial
    assert pex.last_mode == "serial"


def test_morsels_beyond_worker_count(env):
    serial, par, pex = both(
        "select n.v from n in Ns where n.v > 10",
        env,
        config=ParallelConfig(max_workers=3, min_partition_rows=1, morsel_size=7),
    )
    assert serial == par
    assert pex.stats.partitions == 15  # ceil(100 / 7)
    assert pex.stats.parallel_workers == 3


# ---------------------------------------------------------------------------
# group-by (Nest)
# ---------------------------------------------------------------------------


def nest_plan(part_monoid="bag"):
    """Reduce(set, partition, Nest(Scan n <- Ns, k: n.k))."""
    from repro.algebra import Nest

    return Reduce(
        MonoidRef("set"),
        var("partition"),
        Nest(
            Scan("n", var("Ns")),
            (("kk", proj(var("n"), "k")),),
            (("partition", MonoidRef(part_monoid), proj(var("n"), "v"), None),),
        ),
    )


@pytest.mark.parametrize("part_monoid", ["bag", "set", "list"])
def test_parallel_nest_equals_serial(env, part_monoid):
    plan = nest_plan(part_monoid)
    serial = Executor(Evaluator(env)).execute(plan)
    pex = ParallelExecutor(
        Evaluator(env), config=ParallelConfig(max_workers=4, min_partition_rows=1)
    )
    assert pex.execute(plan) == serial
    assert pex.last_mode == "parallel"
    assert pex.stats.rows_grouped == 5


# ---------------------------------------------------------------------------
# metrics: workers replay prepared state on the plan's own nodes
# ---------------------------------------------------------------------------

FAN_OUT = ParallelConfig(max_workers=4, min_partition_rows=1)
IN_THREAD = ParallelConfig(max_workers=4, min_partition_rows=1000)

REPLAY_PLANS = {
    "select": lambda: build_plan(
        translate_oql("select n.v from n in Ns where n.v > 42")
    ),
    "join": lambda: build_plan(
        translate_oql(
            "select struct(v: n.v, d: d.name) from n in Ns, d in Ds where n.k = d.k"
        )
    ),
    # Select -> hash Join -> Scan on the spine
    "select-join": lambda: build_plan(
        translate_oql(
            "select struct(v: n.v, d: d.name) from n in Ns, d in Ds "
            "where n.k = d.k and n.v > d.k + 40"
        )
    ),
    "nest": lambda: nest_plan(),
}


def _actuals(metrics, plan):
    return [
        (s.node.label(), s.rows_out, s.metrics.hash_builds, s.metrics.index_probes)
        for s in metrics.walk(plan)
    ]


def _row_counters(stats):
    skip = ("partitions", "parallel_workers")
    return {k: v for k, v in stats.as_dict().items() if k not in skip}


@pytest.mark.parametrize("config", [FAN_OUT, IN_THREAD], ids=["fan-out", "in-thread"])
@pytest.mark.parametrize("shape", sorted(REPLAY_PLANS))
def test_parallel_actuals_and_stats_equal_serial(env, shape, config):
    plan = REPLAY_PLANS[shape]()
    serial_metrics = PlanMetrics()
    serial = Executor(Evaluator(env), metrics=serial_metrics)
    expected = serial.execute(plan)
    par_metrics = PlanMetrics()
    pex = ParallelExecutor(Evaluator(env), metrics=par_metrics, config=config)
    assert pex.execute(plan) == expected
    assert pex.last_mode == ("parallel" if config is FAN_OUT else "serial")
    assert pex.stats.partitions == (4 if config is FAN_OUT else 0)
    assert _actuals(par_metrics, plan) == _actuals(serial_metrics, plan)
    assert _row_counters(pex.stats) == _row_counters(serial.stats)


def test_parallel_join_metrics_hash_builds(env):
    plan = REPLAY_PLANS["join"]()
    metrics = PlanMetrics()
    pex = ParallelExecutor(Evaluator(env), metrics=metrics, config=FAN_OUT)
    pex.execute(plan)
    by_name = {type(s.node).__name__: s.metrics for s in metrics.walk(plan)}
    assert by_name["Join"].hash_builds == pex.stats.hash_builds == 5
    assert by_name["Join"].rows_out == pex.stats.rows_joined == 100


def test_parallel_nest_metrics(env):
    plan = nest_plan()
    metrics = PlanMetrics()
    pex = ParallelExecutor(Evaluator(env), metrics=metrics, config=FAN_OUT)
    pex.execute(plan)
    by_name = {type(s.node).__name__: s.metrics for s in metrics.walk(plan)}
    assert by_name["Nest"].rows_out == pex.stats.rows_grouped == 5
    assert by_name["Nest"].invocations == 1
    assert by_name["Scan"].rows_out == 100
    # one stream opening per partition, honestly reported
    assert by_name["Scan"].invocations == 4


def test_serial_fallback_metrics_still_pair(env):
    plan = REPLAY_PLANS["select"]()
    metrics = PlanMetrics()
    pex = ParallelExecutor(Evaluator(env), metrics=metrics, config=IN_THREAD)
    pex.execute(plan)
    assert pex.last_mode == "serial"
    by_name = {type(s.node).__name__: s.rows_out for s in metrics.walk(plan)}
    assert by_name["Scan"] == 100
    assert by_name["SelectOp"] == 57


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_accepts_equivalent_parallel_run(env):
    with verification(True):
        serial, par, pex = both("sum(select n.v from n in Ns)", env)
    assert serial == par
    assert pex.last_mode == "parallel"


def test_verify_rejects_divergent_values():
    from repro.analysis.verifier import check_parallel_equivalence

    with pytest.raises(VerificationError):
        check_parallel_equivalence(object(), 10, 11)
    # float reassociation tolerance
    check_parallel_equivalence(object(), 0.1 + 0.2 + 0.3, 0.1 + (0.2 + 0.3))
    # two NaNs agree, alone and as an element
    check_parallel_equivalence(object(), float("nan"), float("nan"))
    check_parallel_equivalence(object(), (1, float("nan")), (1, float("nan")))
