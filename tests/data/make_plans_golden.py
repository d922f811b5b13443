"""Regenerate ``plans_golden.json``: what every consumer of a plan's
structure says about each query of the executor corpus
(:func:`tests.data.make_exec_stats_golden.queries`) and of
:data:`GROUPED` (four ``group by`` shapes on a company database with a
view and an index: over the view, under an indexed equality ``where``,
a label named like a ``from`` variable, ``order by`` on top), as whatever
checkout is on ``PYTHONPATH`` says it.

Per query: the executed plan's ``render()``, ``Database.explain()`` text
(the per-node cardinality estimates), the ``precompile_plan`` report
(``compiled`` / ``fallback`` / ``constructs``) and the
``analyze_dependencies`` verdict (``extents`` / ``cacheable`` /
``reason``). The checked-in file was written by PR 18's ``src`` (then
regenerated once, in its own commit, when the A3 build-side flip was
deleted — see EXPERIMENTS.md; the ``grouped/*`` rows by PR 19's, and two
of them moved on purpose in PR 20: Γ sees into the view and the optimizer
reaches under the Nest). The ``explain`` column of every row moved once
more, alone, when ``Database.explain`` became the rendering of
``explain_data``'s document: the same estimates, a different format
(EXPERIMENTS.md H26). ``tests/test_plans_golden.py`` holds the
operator table of ``repro.algebra.ops`` and everything that loops over it
to the same answers, under none / generated code / cache / verify. Run from the
repository root::

    PYTHONPATH=<checkout>/src python tests/data/make_plans_golden.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from repro.cache.invalidation import analyze_dependencies  # noqa: E402
from repro.db import demo_company_database  # noqa: E402
from repro.jit.plan import precompile_plan  # noqa: E402
from tests.data.make_exec_stats_golden import in_modes, queries  # noqa: E402

_COUNTS = "select struct(d: dno, n: count(partition)) from e in "
GROUPED = {
    "grouped/over_view": _COUNTS + "Staff group by dno: e.dno",
    "grouped/indexed_where": _COUNTS + "Employees where e.dno = 3 group by dno: e.dno",
    "grouped/label_capture": (
        "select struct(d: d, n: count(partition)) from e in Employees, d in Departments "
        "where e.dno = d.dno group by d: d.name"
    ),
    "grouped/order_by": _COUNTS + "Employees group by dno: e.dno order by dno",
}


def grouped_queries(modes: dict[str, Any]):
    """:data:`GROUPED` in the shape of :func:`queries`."""
    db = in_modes(demo_company_database(8, 90, seed=11), modes)
    db.define("Staff", "select e from e in Employees where e.salary > 0")
    db.create_index("Employees", "dno")
    for label, oql in GROUPED.items():
        yield label, db, oql, lambda oql=oql: db.run_detailed(oql)


def _renumbered(text: str) -> str:
    """``text`` with its fresh-variable suffixes (``x~17``) numbered by
    first appearance: the counter behind them is process-global. An
    EXPLAIN estimate (``est~17``) is not one; the padding that aligns
    the estimates follows the suffixes' widths, so it shrinks to two
    spaces."""
    seen: dict[str, int] = {}
    text = re.sub(r"(?<=\S) {2,}(?=est~)", "  ", text)
    return re.sub(
        r"(?<=\w)(?<!\best)~\d+",
        lambda m: f"~{seen.setdefault(m.group(), len(seen) + 1)}",
        text,
    )


def golden(modes: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for label, db, oql, thunk in (*queries(modes), *grouped_queries(modes)):
        result = thunk()
        plan = result.plan
        deps = analyze_dependencies(
            plan,
            result.normalized,
            set(db.catalog.extents()) | db._object_extents,  # noqa: SLF001
            db.functions,
        )
        out[label] = {
            "render": None if plan is None else _renumbered(plan.render()),
            "explain": _renumbered(db.explain(oql)),
            "jit": None if plan is None else precompile_plan(plan),
            "deps": {
                "extents": sorted(deps.extents),
                "cacheable": deps.cacheable,
                "reason": deps.reason,
            },
        }
    return out


if __name__ == "__main__":
    out = Path(__file__).with_name("plans_golden.json")
    entries = golden({})
    out.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{out}: {len(entries)} queries")
