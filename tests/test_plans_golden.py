"""The operator table changes who *reads* a plan's structure, not what
they read.

``tests/data/plans_golden.json`` holds, for every harness class and
``examples/*.oql`` query, the executed plan's ``render()``, the
``Database.explain()`` text (estimates), the ``precompile_plan`` report
and the ``analyze_dependencies`` verdict, as the per-class code before
``repro.algebra.ops``'s table produced them
(``tests/data/make_plans_golden.py`` says how it was written). Placement,
jit, plan-check, invalidation and EXPLAIN now loop over that table and
must give the same answers in every mode that touches a plan. With a
result cache attached, EXPLAIN adds one line, the cache verdict, which
is checked against the ``deps`` column and then left out of the
comparison.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from tests.data.make_plans_golden import _renumbered, golden

GOLDEN = json.loads((Path(__file__).parent / "data" / "plans_golden.json").read_text())
MODES = {
    "none": {},
    "jit": {"cache": CacheConfig(results=False)},  # every plan kept: every run generated
    "cache": {"cache": True},
    "verify": {},
}


def _without_verdict(explain: str, deps: dict) -> str:
    """``explain`` less its one ``result cache:`` line, which only a
    database with a result cache prints, after checking that the line
    says what the golden's ``deps`` verdict says."""
    lines = explain.split("\n")
    verdicts = [line for line in lines if line.startswith("result cache: ")]
    assert len(verdicts) == 1, explain
    if deps["cacheable"]:
        assert verdicts[0].startswith("result cache: reads "), verdicts[0]
    else:
        assert verdicts[0] == _renumbered(f"result cache: off, {deps['reason']}")
    lines.remove(verdicts[0])
    return "\n".join(lines)


@pytest.mark.parametrize("mode", MODES)
def test_plans_are_the_parents(mode):
    with verification(True if mode == "verify" else None):
        got = golden(MODES[mode])
    assert list(got) == list(GOLDEN)  # a new class or example: rerun the generator
    for label, want in GOLDEN.items():
        row = got[label]
        if mode == "cache":
            row = {**row, "explain": _without_verdict(row["explain"], want["deps"])}
        assert row == want, label
