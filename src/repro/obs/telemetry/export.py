"""Exporters: registry snapshots in the three wire formats real
monitoring stacks ingest.

- :func:`prometheus_text` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP``/``# TYPE`` headers, one sample per line,
  histograms as cumulative ``_bucket{le=...}`` series plus ``_sum`` and
  ``_count``. This is what the ``/metrics`` endpoint serves and what
  ``tests/promparse.py`` strictly re-parses in tests.
- :func:`otlp_json` — an OTLP-style (OpenTelemetry protocol) JSON
  document: ``resourceMetrics -> scopeMetrics -> metrics`` with
  ``sum``/``gauge``/``histogram`` data points. The hot-query table
  rides along under the scope's ``attributes`` is deliberately *not*
  done — it is attached as a dedicated ``repro.hot_queries`` metric of
  per-fingerprint data points instead, keeping the document pure data.
- :func:`statsd_lines` — StatsD line protocol with DogStatsD-style
  ``|#k:v`` tags: counters as ``|c``, gauges as ``|g``, histograms as
  derived ``.count``/``.sum_ms``/``.p50/.p90/.p99`` timer gauges
  (StatsD has no native snapshot histogram).

All three are pure functions of :meth:`MetricsRegistry.collect`'s
snapshot — deterministic output ordering (families and samples sorted)
so scrapes diff cleanly across builds.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Optional

from repro.obs.telemetry.registry import (
    FamilySnapshot,
    HistogramData,
    MetricsRegistry,
)

# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: The content type a Prometheus scraper expects from /metrics.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_block(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _sample_line(name: str, pairs: list[tuple[str, str]], value: float) -> str:
    return f"{name}{_label_block(pairs)} {_fmt_value(value)}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        samples = sorted(family.samples, key=lambda sample: sample[0])
        for label_values, data in samples:
            pairs = list(zip(family.label_names, label_values))
            if isinstance(data, HistogramData):
                cumulative = 0
                for bound, count in zip(data.bounds, data.counts):
                    cumulative += count
                    lines.append(
                        _sample_line(
                            family.name + "_bucket",
                            pairs + [("le", _fmt_value(bound))],
                            cumulative,
                        )
                    )
                lines.append(
                    _sample_line(
                        family.name + "_bucket",
                        pairs + [("le", "+Inf")],
                        data.count,
                    )
                )
                lines.append(
                    _sample_line(family.name + "_sum", pairs, data.sum)
                )
                lines.append(
                    _sample_line(family.name + "_count", pairs, data.count)
                )
            else:
                lines.append(_sample_line(family.name, pairs, data))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OTLP-style JSON
# ---------------------------------------------------------------------------


def _otlp_attributes(pairs: list[tuple[str, str]]) -> list[dict[str, Any]]:
    return [
        {"key": key, "value": {"stringValue": value}} for key, value in pairs
    ]


def _otlp_metric(family: FamilySnapshot, now_ns: int) -> dict[str, Any]:
    metric: dict[str, Any] = {
        "name": family.name,
        "description": family.help,
        "unit": "s" if family.name.endswith("_seconds") else "1",
    }
    points = []
    for label_values, data in sorted(family.samples, key=lambda s: s[0]):
        pairs = list(zip(family.label_names, label_values))
        point: dict[str, Any] = {
            "attributes": _otlp_attributes(pairs),
            "timeUnixNano": str(now_ns),
        }
        if isinstance(data, HistogramData):
            point.update(
                count=str(data.count),
                sum=data.sum,
                bucketCounts=[str(c) for c in data.counts],
                explicitBounds=list(data.bounds),
            )
            if data.min is not None:
                point["min"] = data.min
            if data.max is not None:
                point["max"] = data.max
        else:
            point["asDouble"] = float(data)
        points.append(point)
    if family.kind == "counter":
        metric["sum"] = {
            "dataPoints": points,
            "isMonotonic": True,
            "aggregationTemporality": 2,  # CUMULATIVE
        }
    elif family.kind == "histogram":
        metric["histogram"] = {
            "dataPoints": points,
            "aggregationTemporality": 2,
        }
    else:
        metric["gauge"] = {"dataPoints": points}
    return metric


def otlp_json(
    registry: MetricsRegistry,
    top_k: int = 10,
    now_ns: Optional[int] = None,
) -> dict[str, Any]:
    """An OTLP-style JSON document (one resource, one scope).

    ``now_ns`` stamps every data point (wall-clock, as OTLP requires
    for event timestamps); pass it explicitly for deterministic tests.
    The hot-query table is exported as a ``repro.hot_queries`` gauge
    whose data points carry fingerprint/example attributes.
    """
    stamp = time.time_ns() if now_ns is None else now_ns
    metrics = [_otlp_metric(family, stamp) for family in registry.collect()]

    hot = registry.fingerprints.top(top_k)
    if hot:
        points = []
        for entry in hot:
            points.append(
                {
                    "attributes": _otlp_attributes(
                        [
                            ("fingerprint", entry.fingerprint),
                            ("example_oql", entry.example_oql),
                            ("count", str(entry.count)),
                            ("rows", str(entry.rows)),
                        ]
                    ),
                    "timeUnixNano": str(stamp),
                    "asDouble": entry.total_seconds,
                }
            )
        metrics.append(
            {
                "name": "repro.hot_queries",
                "description": "total seconds per hot query fingerprint",
                "unit": "s",
                "gauge": {"dataPoints": points},
            }
        )

    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": _otlp_attributes(
                        [("service.name", "repro")]
                    )
                },
                "scopeMetrics": [
                    {
                        "scope": {"name": "repro.obs.telemetry"},
                        "metrics": metrics,
                    }
                ],
            }
        ]
    }


def otlp_text(registry: MetricsRegistry, now_ns: Optional[int] = None) -> str:
    return json.dumps(otlp_json(registry, now_ns=now_ns), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# StatsD line protocol
# ---------------------------------------------------------------------------


def _statsd_name(name: str) -> str:
    return name.replace("_", ".", 1) if name.startswith("repro_") else name


def _tags(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f"{k}:{v}" for k, v in pairs)
    return f"|#{inner}"


def statsd_lines(registry: MetricsRegistry) -> list[str]:
    """The registry as StatsD metric lines (DogStatsD tag extension)."""
    lines: list[str] = []
    for family in registry.collect():
        base = _statsd_name(family.name)
        for label_values, data in sorted(family.samples, key=lambda s: s[0]):
            pairs = list(zip(family.label_names, label_values))
            tags = _tags(pairs)
            if isinstance(data, HistogramData):
                lines.append(f"{base}.count:{_fmt_value(data.count)}|c{tags}")
                lines.append(
                    f"{base}.sum_ms:{_fmt_value(data.sum * 1e3)}|ms{tags}"
                )
                for stat, value in data.quantiles().items():
                    lines.append(
                        f"{base}.{stat}:{_fmt_value(value * 1e3)}|ms{tags}"
                    )
            elif family.kind == "counter":
                lines.append(f"{base}:{_fmt_value(data)}|c{tags}")
            else:
                lines.append(f"{base}:{_fmt_value(data)}|g{tags}")
    return lines


def statsd_text(registry: MetricsRegistry) -> str:
    return "\n".join(statsd_lines(registry)) + "\n"
