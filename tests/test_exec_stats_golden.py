"""``ExecutionStats`` is a view now; it must still be the old counters.

``tests/data/exec_stats_golden.json`` holds ``run_detailed(q).stats.as_dict()``
for every harness class and ``examples/*.oql`` query as PR 17's executor
counted them, one ``stats.rows_* += 1`` per row
(``tests/data/make_exec_stats_golden.py`` wrote it from that commit and
says what the corpus is). The by-node-class view of the per-operator
blocks must give the same numbers with and without a compile cache,
timed (tracing on) or not, and in verify mode, whose checked function
counts what the unchecked one does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algebra.ops import SelectOp
from repro.cache import CacheConfig
from tests.data.make_exec_stats_golden import corpus, golden

GOLDEN = json.loads((Path(__file__).parent / "data" / "exec_stats_golden.json").read_text())
#: a compile cache keeps the compiled plans, results off: every run executes
MODES = {
    "none": {},
    "cache": {"cache": CacheConfig(results=False)},
    "traced": {"profile": True},
    "verify": {"verify": True},
}


@pytest.mark.parametrize("mode", MODES)
def test_stats_view_equals_the_parents_counters(mode):
    got = golden(MODES[mode])
    assert list(got) == list(GOLDEN)  # a new class or example: rerun the generator
    for label, want in GOLDEN.items():
        assert got[label] == want, label


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

        assert result.stats.as_dict() == {
            "rows_scanned": total("Scan") + total("IndexScan"),
            "rows_joined": total("Join"),
            "rows_unnested": total("Unnest"),
            "rows_selected_out": selected_out,
            "rows_reduced": next(result.metrics.walk(result.plan)).rows_in,
            "rows_grouped": total("Nest"),
            "hash_builds": total("Join", "hash_builds"),
            "index_probes": total("IndexScan", "index_probes"),
        }, label
        # a block holds counts only, traced or not: the run's clock is its record
        counts = {"rows_out", "hash_builds", "index_probes"}
        assert all(set(sums) == counts for sums in by_class.values()), label
