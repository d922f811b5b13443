"""``ExecutionStats`` is a view now; it must still be the old counters.

``tests/data/exec_stats_golden.json`` holds ``run_detailed(q).stats.as_dict()``
for every harness class and ``examples/*.oql`` query as PR 17's executor
counted them, one ``stats.rows_* += 1`` per row
(``tests/data/make_exec_stats_golden.py`` wrote it from that commit and
says what the corpus is). The by-node-class view of the per-operator
blocks must give the same numbers in every execution mode, the operator
loops' and the generated function's alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algebra.ops import SelectOp
from repro.cache import CacheConfig
from repro.parallel import ParallelConfig
from tests.data.make_exec_stats_golden import corpus, golden

GOLDEN = json.loads((Path(__file__).parent / "data" / "exec_stats_golden.json").read_text())
FAN_OUT = ParallelConfig(max_workers=4, min_partition_rows=1)
#: a compile cache keeps every plan, so every run of it is its generated
#: function; without one a first run is the operator loops
KEPT = CacheConfig(results=False)
MODES = {
    "none": {},
    "jit": {"cache": KEPT},
    "parallel": {"parallel": FAN_OUT},
    "jit+parallel": {"cache": KEPT, "parallel": FAN_OUT},
}
FAN_OUT_FIELDS = ("partitions", "parallel_workers")


@pytest.mark.parametrize("mode", MODES)
def test_stats_view_equals_the_parents_counters(mode):
    got = golden(MODES[mode])
    assert list(got) == list(GOLDEN)  # a new class or example: rerun the generator
    fanned_out = 0
    for label, want in GOLDEN.items():
        have = got[label]
        if want is not None and "parallel" in mode:
            # the golden run was serial: compare the row counters
            fanned_out += have["partitions"] > 0
            have = {**have, **{name: want[name] for name in FAN_OUT_FIELDS}}
        assert have == want, label
    if "parallel" in mode:
        assert fanned_out > 30


@pytest.mark.parametrize("mode", MODES)
def test_stats_are_the_by_class_sums_of_the_blocks(mode):
    """``result.stats`` and ``result.metrics`` are one record."""
    for label, thunk in corpus(MODES[mode]):
        result = thunk()
        if result.stats is None:
            assert result.metrics is None, label
            continue
        by_class: dict[str, dict[str, int]] = {}
        selected_out = 0
        for snap in result.metrics.walk(result.plan):
            sums = by_class.setdefault(type(snap.node).__name__, {})
            for name, value in snap.metrics.as_dict().items():
                sums[name] = sums.get(name, 0) + value
            if isinstance(snap.node, SelectOp):
                selected_out += snap.rows_in - snap.rows_out

        def total(op: str, name: str = "rows_out") -> int:
            return by_class.get(op, {}).get(name, 0)

        stats = result.stats.as_dict()
        assert stats.pop("partitions") >= 0 and stats.pop("parallel_workers") >= 0
        assert stats == {
            "rows_scanned": total("Scan") + total("IndexScan"),
            "rows_joined": total("Join"),
            "rows_unnested": total("Unnest"),
            "rows_selected_out": selected_out,
            "rows_reduced": next(result.metrics.walk(result.plan)).rows_in,
            "rows_grouped": total("Nest"),
            "hash_builds": total("Join", "hash_builds"),
            "index_probes": total("IndexScan", "index_probes"),
        }, label
        assert all(sums["time_ns"] == 0 for sums in by_class.values()), label  # untimed
