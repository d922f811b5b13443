"""Fleet telemetry: a process-wide metrics registry with a Prometheus exporter.

The package turns the per-query observability of :mod:`repro.obs`
(tracer spans, operator metrics, EXPLAIN ANALYZE) into *aggregate*
telemetry a monitoring stack can scrape:

- :mod:`.registry` — thread-safe :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families plus a rolling time window, and the
  enablement switches (``Database(telemetry=...)``, ``REPRO_TELEMETRY``,
  :func:`enable_telemetry`);
- :mod:`.fingerprint` — alpha-equivalent query fingerprints and the
  top-K hot-query table;
- :mod:`.instrument` — the metric catalog: one finished query
  decomposed into registry updates;
- :mod:`.export` — the Prometheus text exposition;
- :mod:`.server` — a stdlib ``/metrics`` HTTP endpoint;
- :mod:`.advise` — QL402: runtime-informed index advice;
- :mod:`.cli` — ``python -m repro metrics dump|top|serve``.

Telemetry is **opt-in**: with it off, ``Database.run`` never enters this
package (the parity test asserts zero telemetry allocations).
"""

from repro.obs.telemetry.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from repro.obs.telemetry.fingerprint import (
    FingerprintTable,
    QueryStats,
    fingerprint_term,
    render_top,
)
from repro.obs.telemetry.instrument import (
    record_query_error,
    record_query_result,
    summary_lines,
)
from repro.obs.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RollingWindow,
    activation,
    current_registry,
    disable_telemetry,
    enable_telemetry,
    get_registry,
    resolve_telemetry,
    telemetry_enabled,
)
from repro.obs.telemetry.server import MetricsServer

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "RollingWindow",
    "FingerprintTable",
    "QueryStats",
    "activation",
    "current_registry",
    "disable_telemetry",
    "enable_telemetry",
    "fingerprint_term",
    "get_registry",
    "prometheus_text",
    "record_query_error",
    "record_query_result",
    "render_top",
    "resolve_telemetry",
    "summary_lines",
    "telemetry_enabled",
]
