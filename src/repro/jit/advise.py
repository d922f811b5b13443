"""QL501 — interpreter fallback in a hot loop.

The JIT compiles the operator-position fragment; anything outside it
(nested comprehensions in a predicate, user function calls, method
calls, object effects) silently falls back to the reference
interpreter for that one expression. That is the correct *semantics*,
but when such an expression sits on a demonstrably hot query's per-row
path it quietly forfeits the compiled speedup. This module crosses the
compiler's fallback report with the telemetry fingerprint table, the
same runtime-informed pattern as QL402: a diagnostic fires only for
query classes that dominate measured runtime, and it names the
offending construct(s) so the query author knows exactly what to hoist
or rewrite.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.telemetry.fingerprint import QueryStats
from repro.obs.telemetry.registry import MetricsRegistry, get_registry


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

    registry = registry if registry is not None else get_registry()
    diagnostics = []
    for entry, share in registry.fingerprints.hot(top_k, min_share, min_count):
        constructs = hot_fallbacks(db, entry)
        if not constructs:
            continue
        named = ", ".join(
            f"{name} x{count}" for name, count in sorted(constructs.items())
        )
        diagnostics.append(
            make(
                "QL501",
                f"query class {entry.fingerprint} is {share:.0%} of "
                f"measured runtime ({entry.count} runs, "
                f"{entry.total_seconds * 1e3:.1f}ms) but its hot loop "
                f"falls back to the interpreter for: {named}",
                None,
                hint=(
                    "rewrite the expression without these constructs, or "
                    "hoist them out of the per-row position; see docs/JIT.md"
                ),
            )
        )
    return diagnostics
