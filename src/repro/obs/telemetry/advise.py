"""QL402 — runtime-informed index advice.

The static analyzer's QL303 flags *every* equality selection that an
index could serve; that is the right behaviour for a linter but noisy
as operational advice. This module crosses the same detection with the
telemetry fingerprint table: a diagnostic fires only when a query class
is demonstrably **hot** (it dominates the measured runtime), ran more
than once, and executed with *zero* index probes — i.e. the advice is
backed by observed load, not source-level speculation.

:func:`advise_hot_queries` re-translates each hot fingerprint's example
query, runs :func:`repro.lint.dataflow.index_probe_candidates` over the
resulting calculus term, drops candidates whose ``(extent, attribute)``
index already exists in the catalog, and emits one ``QL402`` info
diagnostic per remaining candidate with the ``Database.create_index``
call as its hint. The REPL's ``:stats`` and ``python -m repro metrics
top`` surface these lines under the hot-query table.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.telemetry.fingerprint import QueryStats
from repro.obs.telemetry.registry import MetricsRegistry, get_registry


def hot_candidates(
    db: Any,
    entry: QueryStats,
) -> list[tuple[str, str]]:
    """``(extent, attr)`` index-probe candidates for one hot query that
    are not already indexed. Empty when the example no longer parses
    (e.g. an extent was dropped since the query ran)."""
    from repro.lint.dataflow import index_probe_candidates

    try:
        term = db.translate(entry.example_oql)
    except Exception:
        return []
    names: set[str] = set(db.schema.extents())
    names.update(db.catalog.extent_names())
    existing = db.catalog.index_keys()
    return [
        candidate
        for candidate in index_probe_candidates(term, frozenset(names))
        if candidate not in existing
    ]


def advise_hot_queries(
    db: Any,
    registry: Optional[MetricsRegistry] = None,
    top_k: int = 5,
    min_share: float = 0.5,
    min_count: int = 2,
) -> list:
    """``QL402`` diagnostics for hot, unindexed query classes.

    A fingerprint qualifies when it ran at least ``min_count`` times,
    accounts for at least ``min_share`` of all measured query time, and
    never touched an index (``index_probes == 0``). One diagnostic per
    distinct ``(extent, attr)`` candidate, most expensive query first.
    """
    from repro.lint.diagnostics import make

    registry = registry if registry is not None else get_registry()
    diagnostics = []
    seen: set[tuple[str, str]] = set()
    for entry, share in registry.fingerprints.hot(top_k, min_share, min_count):
        if entry.index_probes > 0:
            continue
        for extent, attr in hot_candidates(db, entry):
            if (extent, attr) in seen:
                continue
            seen.add((extent, attr))
            diagnostics.append(
                make(
                    "QL402",
                    f"query class {entry.fingerprint} is {share:.0%} of "
                    f"measured runtime ({entry.count} runs, "
                    f"{entry.total_seconds * 1e3:.1f}ms) with no index "
                    f"probes; equality on {attr!r} selects from extent "
                    f"{extent!r}",
                    None,
                    hint=f"Database.create_index({extent!r}, {attr!r})",
                )
            )
    return diagnostics
