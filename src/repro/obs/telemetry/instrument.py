"""Recording helpers: one finished query -> registry updates.

This is the only module that knows the **metric catalog** — every
name, kind and label the telemetry layer emits (:data:`CATALOG`; the
table in ``docs/OBSERVABILITY.md`` lists the same vocabulary). The
database calls :func:`record_query_result` / :func:`record_query_error`
once per ``Database.run``; everything else here is decomposition of one
:class:`~repro.db.database.QueryResult` into counter increments and
histogram observations:

- per-phase latency histograms keyed on the tracer's
  :data:`~repro.obs.tracer.PIPELINE_PHASES` (plus the cache's
  ``cache`` span);
- success/error counters by engine and error class;
- executor row counters and per-operator openings and rows, read off the
  execution's one record (``result.stats`` / ``result.metrics`` — the
  numbers EXPLAIN ANALYZE shows);
- cache hit/miss/eviction/invalidation counters bridged (as deltas)
  from the shared :class:`~repro.cache.core.CacheStats` block;
- normalization rule-fire counters;
- the per-fingerprint hot-query table.

Everything takes the registry explicitly — nothing here consults
global state, so tests can drive a private registry and the database
can share one registry across instances. A registry's families are
looked up by name once (:func:`families`), not once per query.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.physical import result_cardinality
from repro.obs.telemetry.fingerprint import query_fingerprint, render_top
from repro.obs.telemetry.registry import MetricsRegistry

#: Rolling-window base name; exported as ``repro_window_qps`` /
#: ``repro_window_latency_seconds`` gauges.
WINDOW_NAME = "repro_window"

#: The metric catalog: attribute of :func:`families` -> (kind, name,
#: help, label names).
CATALOG: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "queries": ("counter", "repro_queries_total",
                "queries answered, by engine and outcome", ("engine", "status")),
    "errors": ("counter", "repro_query_errors_total",
               "failed queries by error class", ("error",)),
    "seconds": ("histogram", "repro_query_seconds", "whole-query latency", ()),
    "phases": ("histogram", "repro_phase_seconds",
               "per-pipeline-phase latency", ("phase",)),
    "rows_returned": ("counter", "repro_rows_returned_total",
                      "result elements returned to callers", ()),
    "executor_rows": ("counter", "repro_executor_rows_total",
                      "executor row counters (ExecutionStats), by counter name",
                      ("counter",)),
    "parallel_queries": ("counter", "repro_parallel_queries_total",
                         "queries answered by the partition-parallel engine", ()),
    "parallel_partitions": ("histogram", "repro_parallel_partitions",
                            "partitions per parallel query", ()),
    "parallel_workers": ("histogram", "repro_parallel_workers",
                         "worker threads per parallel query", ()),
    "operator_invocations": ("counter", "repro_operator_invocations_total",
                             "physical operator stream openings, by operator",
                             ("operator",)),
    "operator_rows": ("counter", "repro_operator_rows_total",
                      "bindings produced per physical operator class", ("operator",)),
    "rule_fires": ("counter", "repro_normalize_rule_fires_total",
                   "normalization rule fires, by Table 3 rule", ("rule",)),
    "jit_expressions": ("counter", "repro_jit_expressions_total",
                        "hot-path expressions prepared by the JIT, by outcome",
                        ("status",)),
    "jit_constructs": ("counter", "repro_jit_fallback_constructs_total",
                       "interpreter-fallback expressions by offending construct",
                       ("construct",)),
    "cache_events": ("counter", "repro_cache_events_total",
                     "query-cache events bridged from CacheStats", ("event",)),
    "cache_entries": ("gauge", "repro_cache_entries",
                      "current query-cache entry counts", ("store",)),
    "querylog_entries": ("counter", "repro_querylog_entries_total",
                         "query-log records written, by slow flag", ("slow",)),
    "querylog_rotations": ("counter", "repro_querylog_rotations_total",
                           "query-log file rollovers", ()),
    "verifier_checks": ("counter", "repro_verifier_checks_total",
                        "rewrite fires checked by the soundness verifier, by rule",
                        ("rule",)),
    "verifier_violations": ("counter", "repro_verifier_violations_total",
                            "soundness violations raised by the verifier, "
                            "by rule and invariant", ("rule", "invariant")),
}


class _Families:
    """One registry's :data:`CATALOG` families as attributes, each
    created on first use (so an export lists only what was recorded)
    and a plain attribute from then on."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __getattr__(self, key: str) -> Any:
        kind, name, help, labels = CATALOG[key]
        family = getattr(self._registry, kind)(name, help, labels=labels)
        setattr(self, key, family)
        return family


def families(registry: MetricsRegistry) -> _Families:
    """The catalog bound to ``registry`` — once per registry."""
    return registry.bound(_Families)


def record_query_error(
    registry: MetricsRegistry, error: BaseException, seconds: float
) -> None:
    """Count one failed query (by error class) and its latency."""
    m = families(registry)
    m.queries.inc(engine="none", status="error")
    m.errors.inc(error=type(error).__name__)
    m.seconds.observe(seconds)
    registry.window(WINDOW_NAME).add(seconds)


def record_query_result(
    registry: MetricsRegistry, db: Any, result: Any, seconds: float
) -> None:
    """Decompose one successful :class:`QueryResult` into the catalog."""
    m = families(registry)
    m.queries.inc(engine=result.engine, status="ok")
    m.seconds.observe(seconds)
    registry.window(WINDOW_NAME).add(seconds)

    if result.span is not None:
        for phase, ms in result.span.phase_times_ms().items():
            m.phases.observe(ms / 1e3, phase=phase)

    rows = result_cardinality(result.value)
    m.rows_returned.inc(rows)

    stats = result.stats
    if stats is not None:  # a plan ran: one pass over its record
        for name, value in stats.as_dict().items():
            if value:
                m.executor_rows.inc(value, counter=name)
        if stats.partitions:
            m.parallel_queries.inc()
            m.parallel_partitions.observe(stats.partitions)
            m.parallel_workers.observe(stats.parallel_workers)
        by_operator: dict[str, list[int]] = {}
        for node, block in result.metrics.blocks(result.plan):
            totals = by_operator.setdefault(type(node).__name__, [0, 0])
            totals[0] += block.invocations
            totals[1] += block.rows_out
        for operator, (invocations, rows_out) in by_operator.items():
            if invocations:
                m.operator_invocations.inc(invocations, operator=operator)
            if rows_out:
                m.operator_rows.inc(rows_out, operator=operator)

    for rule, count in result.trace.rule_counts().items():
        m.rule_fires.inc(count, rule=rule)

    jit = result.jit
    if jit is not None:
        if jit.get("compiled"):
            m.jit_expressions.inc(jit["compiled"], status="compiled")
        if jit.get("fallback"):
            m.jit_expressions.inc(jit["fallback"], status="fallback")
        for name, count in (jit.get("constructs") or {}).items():
            m.jit_constructs.inc(count, construct=name)

    if db.cache is not None:
        bridge_cache(registry, db.cache)

    registry.fingerprints.record(
        query_fingerprint(result.compiled),
        oql=result.oql,
        seconds=seconds,
        rows=rows,
        engine=result.engine,
        index_probes=stats.index_probes if stats is not None else 0,
    )


def bridge_cache(registry: MetricsRegistry, cache: Any) -> None:
    """Mirror :class:`CacheStats` increments into telemetry counters.

    The cache keeps cumulative counters of its own; the registry
    remembers the last snapshot it saw per cache object and records
    only the deltas, so a registry shared by several databases over one
    cache still sums to the cache's own totals.
    """
    m = families(registry)
    for event, delta in registry.bridge_deltas(cache.stats, cache.stats.as_dict()).items():
        m.cache_events.inc(delta, event=event)
    for store, size in cache.sizes().items():
        m.cache_entries.set(size, store=store.replace("_entries", ""))


# ---------------------------------------------------------------------------
# Summaries (REPL :stats, CLI `metrics top`)
# ---------------------------------------------------------------------------


def summary_lines(
    registry: MetricsRegistry, top_k: int = 5, db: Any = None
) -> list[str]:
    """A terminal-friendly digest: totals, latency quantiles, QPS and
    the hot-query table (with QL402 advice when ``db`` is given)."""
    m = families(registry)
    ok = sum(child.value for key, child in m.queries.items() if key[1] == "ok")
    errors = m.queries.total() - ok
    child = m.seconds.labels()
    window = registry.window(WINDOW_NAME)
    lines = [
        f"queries: {int(ok)} ok, {int(errors)} failed",
        (
            "latency: p50={:.3f}ms  p90={:.3f}ms  p99={:.3f}ms".format(
                child.quantile(0.5) * 1e3,
                child.quantile(0.9) * 1e3,
                child.quantile(0.99) * 1e3,
            )
            if child.count
            else "latency: (no samples)"
        ),
        f"window({window.width}s): qps={window.rate():.2f}  "
        f"mean={window.mean() * 1e3:.3f}ms",
    ]
    entries = registry.fingerprints.top(top_k)
    total = registry.fingerprints.total_seconds()
    lines.append(f"hot queries (top {top_k} of {len(registry.fingerprints)}):")
    lines.extend("  " + line for line in render_top(entries, total))
    if db is not None:
        from repro.obs.telemetry.advise import advise_hot_queries

        advice = list(advise_hot_queries(db, registry))
        if getattr(db, "jit", None) is not None:
            from repro.jit.advise import advise_jit_fallbacks

            advice.extend(advise_jit_fallbacks(db, registry))
        for diag in advice:
            lines.append(f"{diag}")
            if diag.hint:
                lines.append(f"  = help: {diag.hint}")
    return lines
