"""Regenerate ``exec_stats_golden.json``: ``run_detailed(q).stats.as_dict()``
for every query of the executor corpus, as whatever checkout is on
``PYTHONPATH`` counts them.

The checked-in file was written by PR 17's executor, whose loops bumped
``self.stats.rows_* += 1`` per row; ``tests/test_exec_stats_golden.py``
holds the view that replaced those counters (``ExecutionStats.of`` over
the per-node blocks) to the same numbers, counted by the generated function
with and without a compile cache, timed and in verify mode. Run from the
repository root::

    PYTHONPATH=<checkout>/src python tests/data/make_exec_stats_golden.py

The corpus: every harness class's OQL (``catalogue_classes`` and
``analytics_classes`` on small company / travel databases, the
update-mix reads and its prepared statement on object-mode Cities) and
the ``;``-separated queries of ``examples/*.oql`` on the demo travel
database. Queries the algebra does not run have ``null`` stats.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.harness import workloads  # noqa: E402
from repro.analysis.verifier import verification  # noqa: E402
from repro.db import demo_travel_database  # noqa: E402
from repro.lint.cli import split_queries  # noqa: E402

SCALE = workloads.Scale(depts=8, emps=90, cities=6, hotels=4, rooms=3)
SEED = 11


def in_modes(db: Any, modes: dict[str, Any]) -> Any:
    """``db`` with exactly ``modes`` on."""
    db.disable_telemetry()  # the demo databases read REPRO_* flags
    db.disable_cache()
    if modes.get("cache"):
        db.enable_cache(modes["cache"])
    db.profile(bool(modes.get("profile")))
    return db


def verifying(modes: dict[str, Any], run: Callable[[], Any]) -> Callable[[], Any]:
    """``run`` under ``modes``'s ``verify`` setting (unset: the environment's)."""

    def thunk() -> Any:
        with verification(modes.get("verify")):
            return run()

    return thunk


def queries(modes: dict[str, Any]) -> Iterator[tuple[str, Any, str, Any]]:
    """``(label, database, oql, thunk -> QueryResult)`` for every query,
    on databases built with ``modes``: the ``cache`` setting for
    ``Database.enable_cache``, ``profile`` for ``Database.profile`` and
    ``verify`` for each run's rewrite verification."""
    rng = random.Random(0)
    reads = workloads.ReadWorkload("golden", SEED, SCALE, SCALE, workloads.MODES_OFF, None)
    data = reads.generate(SCALE)
    dbs = reads.build_dbs(data, workloads.MODES_OFF)
    mix = workloads.UpdateMix(SEED, SCALE, SCALE, workloads.MODES_OFF)
    dbs.update(mix.build_dbs(mix.generate(SCALE), workloads.MODES_OFF))
    dbs["demo"] = demo_travel_database(num_cities=5, seed=3)
    for db in dbs.values():
        in_modes(db, modes)

    def run(label: str, target: str, oql: str, opts: dict):
        db = dbs[target]
        return label, db, oql, verifying(modes, lambda: db.run_detailed(oql, **opts))

    for make in (workloads.catalogue_classes, workloads.analytics_classes):
        for cls in make(data, rng):
            yield run(f"{make.__name__}/{cls.name}", cls.target, cls.oql, cls.opts)
    for name, oql in workloads._READS:
        yield run(f"update_mix/{name}", "objects", oql, {})
    prepared = dbs["objects"].prepare(workloads._PREPARED)
    yield (
        "update_mix/prepared",
        dbs["objects"],
        workloads._PREPARED,
        verifying(modes, lambda: prepared.run_detailed(p=workloads._THRESHOLDS[0])),
    )
    for path in sorted((ROOT / "examples").glob("*.oql")):
        for i, (_, _, text) in enumerate(split_queries(path.read_text())):
            yield run(f"{path.name}#{i}", "demo", text, {})


def corpus(modes: dict[str, Any]) -> Iterator[tuple[str, Any]]:
    """``(label, thunk -> QueryResult)`` for every query of :func:`queries`."""
    for label, _, _, thunk in queries(modes):
        yield label, thunk


def golden(modes: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for label, thunk in corpus(modes):
        stats = thunk().stats
        out[label] = None if stats is None else stats.as_dict()
    return out


if __name__ == "__main__":
    out = Path(__file__).with_name("exec_stats_golden.json")
    entries = golden({})
    lines = [f"{json.dumps(label)}: {json.dumps(stats)}" for label, stats in entries.items()]
    out.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one query per line
    print(f"{out}: {len(entries)} queries")
