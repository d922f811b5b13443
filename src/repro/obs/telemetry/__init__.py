"""Fleet telemetry: a process-wide metrics registry with a Prometheus exporter.

The package turns the per-query observability of :mod:`repro.obs`
(query results, operator metrics, EXPLAIN ANALYZE) into *aggregate*
telemetry a monitoring stack can scrape:

- :mod:`.registry` — one lock over one flat table keyed by
  ``(metric, label values)``, written by one flush per query, plus a
  rolling time window and the enablement (``Database(telemetry=...)``,
  ``REPRO_TELEMETRY``);
- :mod:`.fingerprint` — alpha-equivalent query fingerprints and the
  top-K hot-query table;
- :mod:`.instrument` — the metric catalog (the registry's schema): one
  finished query folded into one batch;
- :mod:`.export` — the Prometheus text exposition;
- :mod:`.server` — a stdlib ``/metrics`` HTTP endpoint;
- :mod:`.advise` — QL402 and QL501: runtime-informed index and JIT advice;
- :mod:`.cli` — ``python -m repro metrics dump|top|serve``.

Telemetry is **opt-in**: with it off, ``Database.run`` never enters this
package (the parity test asserts zero telemetry allocations).
"""

from repro.cache.keys import fingerprint_term
from repro.obs.telemetry.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from repro.obs.telemetry.fingerprint import FingerprintTable, QueryStats, render_top
from repro.obs.telemetry.instrument import record_query, summary_lines
from repro.obs.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramData,
    MetricsRegistry,
    RollingWindow,
    get_registry,
    resolve_telemetry,
)
from repro.obs.telemetry.server import MetricsServer

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramData",
    "MetricsRegistry",
    "MetricsServer",
    "RollingWindow",
    "FingerprintTable",
    "QueryStats",
    "fingerprint_term",
    "get_registry",
    "prometheus_text",
    "record_query",
    "render_top",
    "resolve_telemetry",
    "summary_lines",
]
