"""The operator table changes who *reads* a plan's structure, not what
they read.

``tests/data/plans_golden.json`` holds, for every harness class and
``examples/*.oql`` query, the executed plan's ``render()``, the
``Database.explain()`` text (estimates), the ``precompile_plan`` report
and the ``analyze_dependencies`` verdict, as the per-class code before
``repro.algebra.ops``'s table produced them
(``tests/data/make_plans_golden.py`` says how it was written). Placement,
jit, plan-check, invalidation and EXPLAIN now loop over that table and
must give the same answers in every mode that touches a plan.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from tests.data.make_plans_golden import golden

GOLDEN = json.loads((Path(__file__).parent / "data" / "plans_golden.json").read_text())
MODES = {
    "none": {},
    "jit": {"cache": CacheConfig(results=False)},  # every plan kept: every run generated
    "cache": {"cache": True},
    "verify": {},
}


@pytest.mark.parametrize("mode", MODES)
def test_plans_are_the_parents(mode):
    with verification(True if mode == "verify" else None):
        got = golden(MODES[mode])
    assert list(got) == list(GOLDEN)  # a new class or example: rerun the generator
    for label, want in GOLDEN.items():
        assert got[label] == want, label
