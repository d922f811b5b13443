"""Runtime-informed advice: QL402 (index) and QL501 (JIT fallback).

The static QL303 flags *every* equality selection an index could serve,
and the JIT silently falls back to the interpreter for any expression
outside its fragment: right for a linter, noisy as operational advice.
Both advisors here cross their detection with the telemetry fingerprint
table and fire only for a query class that is demonstrably **hot** — it
dominates measured runtime and ran more than once (:func:`_hot`, which
also words the measurement every message opens with).

- :func:`advise_hot_queries` (``QL402``): for a hot class with *zero*
  index probes, every unindexed ``(extent, attribute)`` equality
  candidate of its example query
  (:func:`repro.lint.dataflow.index_probe_candidates`), with the
  ``Database.create_index`` call as its hint.
- :func:`advise_jit_fallbacks` (``QL501``): the constructs of a hot
  class's plan the JIT could not translate (nested comprehensions in a
  predicate, user function or method calls, object effects), so the
  author knows what to hoist or rewrite.

The REPL's ``:stats`` and ``python -m repro metrics top`` print them
under the hot-query table.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.obs.telemetry.fingerprint import QueryStats
from repro.obs.telemetry.registry import MetricsRegistry, get_registry


def _hot(
    registry: Optional[MetricsRegistry], top_k: int, min_share: float, min_count: int
) -> Iterator[tuple[QueryStats, str]]:
    """``(entry, the measurement its advice opens with)`` for each hot
    query class (:meth:`FingerprintTable.hot`) of ``registry``, the
    shared default when None."""
    registry = registry if registry is not None else get_registry()
    for entry, share in registry.fingerprints.hot(top_k, min_share, min_count):
        yield entry, (
            f"query class {entry.fingerprint} is {share:.0%} of "
            f"measured runtime ({entry.count} runs, "
            f"{entry.total_seconds * 1e3:.1f}ms)"
        )


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
    existing = db.catalog.index_keys()
    return [
        candidate
        for candidate in index_probe_candidates(term, frozenset(db.catalog.types()))
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

    diagnostics = []
    seen: set[tuple[str, str]] = set()
    for entry, measured in _hot(registry, top_k, min_share, min_count):
        if entry.index_probes > 0:
            continue
        for extent, attr in hot_candidates(db, entry):
            if (extent, attr) in seen:
                continue
            seen.add((extent, attr))
            diagnostics.append(
                make(
                    "QL402",
                    f"{measured} with no index probes; equality on {attr!r} "
                    f"selects from extent {extent!r}",
                    None,
                    hint=f"Database.create_index({extent!r}, {attr!r})",
                )
            )
    return diagnostics


def hot_fallbacks(db: Any, entry: QueryStats) -> dict[str, int]:
    """Fallback-construct histogram for one hot query class.

    Compiles the fingerprint's example query the way ``Database.run``
    would and reports which constructs of its plan failed to compile.
    Empty when the query no longer compiles to an algebra plan at all
    (then nothing of it is on the JIT path) or every expression compiled.
    """
    from repro.jit.plan import precompile_plan

    try:
        plan = db.compile(entry.example_oql).plan
        return precompile_plan(plan)["constructs"] if plan is not None else {}
    except Exception:
        return {}


def advise_jit_fallbacks(
    db: Any,
    registry: Optional[MetricsRegistry] = None,
    top_k: int = 5,
    min_share: float = 0.25,
    min_count: int = 2,
) -> list:
    """``QL501`` diagnostics for hot query classes that fall back.

    A fingerprint qualifies when it ran at least ``min_count`` times
    and accounts for at least ``min_share`` of all measured query time;
    one warning per qualifying class, naming every construct the
    compiler could not translate.
    """
    from repro.lint.diagnostics import make

    diagnostics = []
    for entry, measured in _hot(registry, top_k, min_share, min_count):
        constructs = hot_fallbacks(db, entry)
        if not constructs:
            continue
        named = ", ".join(
            f"{name} x{count}" for name, count in sorted(constructs.items())
        )
        diagnostics.append(
            make(
                "QL501",
                f"{measured} but its hot loop falls back to the interpreter for: {named}",
                None,
                hint=(
                    "rewrite the expression without these constructs, or "
                    "hoist them out of the per-row position; see docs/JIT.md"
                ),
            )
        )
    return diagnostics
