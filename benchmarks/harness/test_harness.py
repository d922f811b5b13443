"""The harness's own checks (collected by tier-1; smoke scale, a few seconds)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.harness import compare, layers, runner, workloads
from benchmarks.harness.spans import Recorder, Span
from benchmarks.harness.stats import MIN_SAMPLES_BEYOND, percentile

DECLARED = runner.manifest()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _sequence(name: str, seed: int):
    workload = workloads.make(name, seed, smoke=True)
    workload.setup()
    order = [op.cls for k in range(3) for op in workload.cycle(k)]
    return order, workloads.digests(workload)


@pytest.mark.parametrize("name", ["catalogue_small", "update_mix_cached"])
def test_seed_fixes_operation_order_and_values(name):
    assert _sequence(name, 11) == _sequence(name, 11)
    order, digests = _sequence(name, 11)
    other_order, other_digests = _sequence(name, 12)
    assert sorted(order) == sorted(other_order)  # same mix ...
    assert order != other_order  # ... in another order
    assert digests != other_digests


def test_span_self_time_is_duration_minus_children():
    rec = Recorder()
    rec.spans = [
        Span("query", 0.0, 10.0, None, "q#0"),
        Span("parse", 1.0, 4.0, 0, "q#0"),
        Span("execute", 5.0, 9.0, 0, "q#0"),
        Span("scan", 6.0, 7.0, 2, "q#0"),
    ]
    assert rec.self_times() == [3.0, 3.0, 3.0, 1.0]


def test_spans_nest_and_share_the_query_id():
    rec = Recorder()
    with rec.span("query", "join#3") as outer:
        with rec.span("oql.parse"):
            pass
        with rec.span("algebra.execute") as inner:
            with rec.span("leaf"):
                pass
    parents = [s.parent for s in rec.spans]
    assert parents == [None, outer, outer, inner]
    assert {s.query for s in rec.spans} == {"join#3"}
    assert all(t >= 0 for t in rec.self_times())
    assert [s["name"] for s in rec.to_json()] == ["query", "oql.parse", "algebra.execute", "leaf"]


def test_percentile_needs_ten_samples_beyond():
    value, beyond = percentile([float(i) for i in range(1, 201)], 0.95)
    assert (value, beyond) == (190.0, 10)
    assert beyond >= MIN_SAMPLES_BEYOND
    _, beyond = percentile([float(i) for i in range(1, 101)], 0.95)
    assert beyond < MIN_SAMPLES_BEYOND


def _document(values: dict[str, list[float]], failed_share=(0.0,)) -> dict:
    return {"workloads": {"w": {
        "failed_share": list(failed_share),
        "end_to_end": {
            name: {"unit": "ms", "better": "higher" if name == "qps" else "lower",
                   "bound": 0.1, "values": vals}
            for name, vals in values.items()
        },
    }}}


def test_compare_verdicts():
    base = _document({"steady": [10, 10.1, 9.9], "slower": [10, 10.1, 9.9],
                      "faster": [10, 10.1, 9.9], "noisy": [10, 14, 7], "qps": [100, 101, 99]})
    change = _document({"steady": [10.5, 10.4, 10.6], "slower": [12, 12.1, 11.9],
                        "faster": [8, 8.1, 7.9], "noisy": [10, 10, 10], "qps": [80, 81, 79]})
    rows = {row["metric"]: row for row in compare.compare(base, change)}
    assert rows["steady"]["verdict"] == "ok"
    assert rows["slower"]["verdict"] == "regressed"
    assert rows["faster"]["verdict"] == "improved"
    assert rows["noisy"]["verdict"] == "unresolved"
    assert rows["qps"]["verdict"] == "regressed"  # higher is better
    assert rows["slower"]["ratio"] == pytest.approx(1.2)
    assert rows["failed_share"]["verdict"] == "ok"
    assert compare.failed(list(rows.values()))
    assert "regressed" in compare.render(list(rows.values()))


def test_compare_fails_on_any_rise_in_failed_share():
    same = {"steady": [10, 10, 10]}
    rows = compare.compare(_document(same), _document(same, failed_share=(0.0, 0.001)))
    assert [r["verdict"] for r in rows] == ["ok", "regressed"]
    assert compare.failed(rows)
    assert not compare.failed(compare.compare(_document(same), _document(same)))


def test_probe_failure_is_recorded_not_raised():
    tracer = layers.Tracer(workload=None, seconds=1.0)
    tracer.probe(("jit.compile_ms", "jit.execute_ratio"), lambda: {}["entry point gone"])
    assert tracer.metrics == {"jit.compile_ms": None, "jit.execute_ratio": None}
    assert "KeyError" in tracer.errors["jit.compile_ms"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        detail = runner.run_workload(name, seed=11, seconds=0.1, trace=trace, smoke=True)
        assert detail["failed_share"] == 0, detail["failures"]
        line = runner.result_line(detail, DECLARED)
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in DECLARED[kind]]
        missing = {k: detail.get("probe_errors", {}).get(k)
                   for k, v in line["metrics"].items() if v["value"] is None}
        assert not missing
        if trace:
            assert not detail["failures"]  # no class dropped: staged == Database.run


def test_entry_point_scrubs_repro_environment():
    """``run.py`` as the driver calls it, under flags that would flip every mode."""
    env = dict(os.environ, REPRO_CACHE="1", REPRO_JIT="1", REPRO_PARALLEL="2")
    done = subprocess.run(
        [sys.executable, str(Path(runner.__file__).with_name("run.py")),
         "--workload", "catalogue_small", "--seed", "12", "--seconds", "0.05", "--smoke"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0


def test_manifest_meets_the_benchmark_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in DECLARED["workloads"])
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(m) == {"name", "unit", "better"} for m in DECLARED["per_layer"])
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 12) < 3420  # set-up, oracle and probes fit too
