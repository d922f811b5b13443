"""The exporter: a registry snapshot in the Prometheus text exposition
format (version 0.0.4) — ``# HELP``/``# TYPE`` headers, one sample per
line, histograms as cumulative ``_bucket{le=...}`` series plus ``_sum``
and ``_count``. This is what the ``/metrics`` endpoint serves and what
``tests/promparse.py`` strictly re-parses in tests.

A pure function of :meth:`MetricsRegistry.collect`'s snapshot —
deterministic output ordering (families and samples sorted) so scrapes
diff cleanly across builds.
"""

from __future__ import annotations

import math

from repro.obs.telemetry.registry import HistogramData, MetricsRegistry

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
