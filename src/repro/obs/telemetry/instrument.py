"""Recording helpers: one finished query -> one registry flush.

This is the only module that knows the **metric catalog** — every
name, kind and label the telemetry layer emits (:data:`CATALOG`, which
the registry takes as its schema; the table in
``docs/OBSERVABILITY.md`` lists the same vocabulary). The database
calls :func:`record_query_result` / :func:`record_query_error` once per
``Database.run``. Each folds the query into a local batch, with no
lock held, and applies it with one
:meth:`~repro.obs.telemetry.registry.MetricsRegistry.flush`:

- per-phase latency histograms keyed on the query record's slots
  (:data:`~repro.obs.tracer.PIPELINE_PHASES` plus ``cache``);
- success/error counters by engine and error class, and a
  :class:`~repro.errors.VerificationError`'s violations by rule and
  invariant;
- executor row counters and per-operator rows: the fold of the
  execution's one record the result keeps (``result.stats``, over the
  blocks EXPLAIN ANALYZE shows);
- cache hit/miss/eviction/invalidation counters, bridged inside the
  flush (as deltas) from the shared :class:`~repro.cache.core.CacheStats`
  block;
- normalization rule-fire counters;
- the per-fingerprint hot-query table.

Everything takes the registry explicitly — nothing here consults
global state, so tests can drive a private registry and the database
can share one registry across instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.algebra.physical import result_cardinality
from repro.errors import VerificationError
from repro.obs.telemetry.fingerprint import render_top

if TYPE_CHECKING:
    from repro.obs.telemetry.registry import MetricsRegistry

#: One query's increments: ``(metric name, label values, amount)``
#: triples, applied by one :meth:`MetricsRegistry.flush`.
Batch = list[tuple[str, tuple[str, ...], float]]

#: The metric catalog: name -> (kind, help, label names).
CATALOG: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "repro_queries_total": ("counter", "queries answered, by engine and outcome",
                            ("engine", "status")),
    "repro_query_errors_total": ("counter", "failed queries by error class", ("error",)),
    "repro_query_seconds": ("histogram", "whole-query latency", ()),
    "repro_phase_seconds": ("histogram", "per-pipeline-phase latency", ("phase",)),
    "repro_rows_returned_total": ("counter", "result elements returned to callers", ()),
    "repro_executor_rows_total": ("counter",
                                  "executor row counters (ExecutionStats), by counter name",
                                  ("counter",)),
    "repro_operator_rows_total": ("counter", "bindings produced per physical operator class",
                                  ("operator",)),
    "repro_normalize_rule_fires_total": ("counter", "normalization rule fires, by Table 3 rule",
                                         ("rule",)),
    "repro_jit_expressions_total": ("counter",
                                    "hot-path expressions prepared by the JIT, by outcome",
                                    ("status",)),
    "repro_jit_fallback_constructs_total": ("counter",
                                            "interpreter-fallback expressions by offending construct",
                                            ("construct",)),
    "repro_cache_events_total": ("counter", "query-cache events bridged from CacheStats",
                                 ("event",)),
    "repro_cache_entries": ("gauge", "current query-cache entry counts", ("store",)),
    "repro_verifier_violations_total": ("counter",
                                        "soundness violations raised by the verifier, "
                                        "by rule and invariant", ("rule", "invariant")),
}


def record_query_error(
    registry: MetricsRegistry, error: BaseException, seconds: float
) -> None:
    """Count one failed query (by error class; a verifier's violations
    by rule and invariant) and its latency."""
    batch: Batch = [
        ("repro_queries_total", ("none", "error"), 1),
        ("repro_query_errors_total", (type(error).__name__,), 1),
        ("repro_query_seconds", (), seconds),
    ]
    if isinstance(error, VerificationError):
        batch.extend(
            ("repro_verifier_violations_total",
             (error.rule, getattr(violation, "invariant", error.rule)), 1)
            for violation in error.violations
        )
    registry.flush(batch, seconds)


def record_query_result(
    registry: MetricsRegistry, db: Any, result: Any, seconds: float
) -> None:
    """Decompose one successful :class:`QueryResult` into the catalog."""
    stats = result.stats
    # a plan's Reduce block already holds the result's size
    rows = result_cardinality(result.value) if stats is None else result.metrics[0].rows_out
    batch: Batch = [
        ("repro_queries_total", (result.engine, "ok"), 1),
        ("repro_query_seconds", (), seconds),
        ("repro_rows_returned_total", (), rows),
    ]
    batch.extend(
        ("repro_phase_seconds", (phase,), ms / 1e3)
        for phase, ms in result.record.phases_ms().items()
    )

    if stats is not None:  # a plan ran: its record's one fold
        batch.extend(
            ("repro_executor_rows_total", (name,), value)
            for name, value in stats.as_dict().items()
            if value
        )
        batch.extend(
            ("repro_operator_rows_total", (operator,), rows_out)
            for operator, rows_out in stats.operator_rows.items()
            if rows_out
        )

    batch.extend(
        ("repro_normalize_rule_fires_total", (rule,), count)
        for rule, count in result.trace.rule_counts().items()
    )

    jit = result.jit
    if jit is not None:
        for status in ("compiled", "fallback"):
            if jit.get(status):
                batch.append(("repro_jit_expressions_total", (status,), jit[status]))
        batch.extend(
            ("repro_jit_fallback_constructs_total", (name,), count)
            for name, count in (jit.get("constructs") or {}).items()
        )

    cache = db.cache
    if cache is not None:
        batch.extend(
            ("repro_cache_entries", (store.replace("_entries", ""),), size)
            for store, size in cache.sizes().items()
        )

    registry.flush(
        batch,
        seconds,
        query=(
            result.compiled.fingerprint,
            result.oql,
            seconds,
            rows,
            result.engine,
            stats.index_probes if stats is not None else 0,
        ),
        cache_stats=cache.stats if cache is not None else None,
    )


# ---------------------------------------------------------------------------
# Summaries (REPL :stats, CLI `metrics top`)
# ---------------------------------------------------------------------------


def summary_lines(
    registry: MetricsRegistry, top_k: int = 5, db: Any = None
) -> list[str]:
    """A terminal-friendly digest: totals, latency quantiles, QPS and
    the hot-query table (with QL402 and QL501 advice when ``db`` is given)."""
    from repro.obs.telemetry.registry import WINDOW_SECONDS

    errors = registry.value("repro_queries_total", engine="none", status="error")
    ok = registry.total("repro_queries_total") - errors
    latency = registry.histogram("repro_query_seconds")
    window = registry.window
    table = registry.fingerprints
    lines = [
        f"queries: {int(ok)} ok, {int(errors)} failed",
        (
            "latency: p50={:.3f}ms  p90={:.3f}ms  p99={:.3f}ms".format(
                latency.quantile(0.5) * 1e3,
                latency.quantile(0.9) * 1e3,
                latency.quantile(0.99) * 1e3,
            )
            if latency.count
            else "latency: (no samples)"
        ),
        f"window({WINDOW_SECONDS}s): qps={window.rate():.2f}  "
        f"mean={window.mean() * 1e3:.3f}ms",
        f"hot queries (top {top_k} of {len(table)}):",
    ]
    lines.extend("  " + line for line in render_top(table.top(top_k), table.total_seconds()))
    if db is not None:
        from repro.obs.telemetry.advise import advise_hot_queries, advise_jit_fallbacks

        advice = [*advise_hot_queries(db, registry), *advise_jit_fallbacks(db, registry)]
        for diag in advice:
            lines.append(f"{diag}")
            if diag.hint:
                lines.append(f"  = help: {diag.hint}")
    return lines
