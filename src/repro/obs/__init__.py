"""repro.obs — observability for the query pipeline.

Four layers; everything but the phase times and the operator counts
is opt-in:

- **the query record** (:mod:`repro.obs.tracer`): one
  :class:`~repro.obs.tracer.QueryRecord` per query that
  :class:`~repro.db.database.Database` runs, with one slot per phase
  (parse → translate → typecheck → normalize → plan → optimize →
  execute, and the cache lookups), always written;
- **per-operator metrics** (:mod:`repro.obs.metrics`): the one record
  of rows and probe counts per physical plan node that each execution
  writes, a list in the plan's pre-order, counts only;
- **EXPLAIN ANALYZE** (:mod:`repro.obs.explain`) and the **query log**
  (:mod:`repro.obs.querylog`, the session's one history):
  estimated-vs-actual plan reports and structured JSONL query entries
  built from the two layers above;
- **fleet telemetry** (:mod:`repro.obs.telemetry`): a process-wide
  metrics registry (counters, gauges, log-bucket histograms, a
  hot-query fingerprint table) with a Prometheus text exporter
  and a ``/metrics`` HTTP endpoint. Deliberately *not* imported here —
  ``import repro.obs.telemetry`` (or ``Database(telemetry=True)``)
  pulls it in; the default-off query path never loads it.

See ``docs/OBSERVABILITY.md`` for schemas and a walkthrough.
"""

from repro.obs.explain import plan_to_dict, q_error, render_explain, summarize
from repro.obs.metrics import OperatorMetrics, PlanMetrics
from repro.obs.querylog import QueryLog, oql_fingerprint, query_log_entry
from repro.obs.tracer import QueryRecord

__all__ = [
    "OperatorMetrics",
    "PlanMetrics",
    "QueryLog",
    "QueryRecord",
    "oql_fingerprint",
    "plan_to_dict",
    "q_error",
    "query_log_entry",
    "render_explain",
    "summarize",
]
