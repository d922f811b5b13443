"""A strict parser for the Prometheus text exposition format.

This is the round-trip half of the exporter contract: everything
:func:`repro.obs.telemetry.export.prometheus_text` emits — and
everything the ``/metrics`` endpoint serves, including the scrape CI
uploads as an artifact — must parse under the rules here, which
implement the format spec deliberately pedantically:

- metric and label names must match the spec's character classes;
- ``# TYPE`` must appear at most once per family and before any of its
  samples; samples of one family must be contiguous;
- label values must be well-formed double-quoted strings with only the
  ``\\\\``, ``\\"`` and ``\\n`` escapes;
- sample values must parse as floats (``+Inf``/``-Inf``/``NaN`` ok);
- duplicate (name, label-set) samples are an error;
- histograms must have cumulative non-decreasing buckets, a ``+Inf``
  bucket, and agreeing ``_count``; ``_sum``/``_count`` must be present.

:class:`PromParseError` carries the offending line number. The parser
is self-contained (no registry types) so tests and external tools can
use it against any scrape.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


class PromParseError(ValueError):
    """A scrape violated the text exposition format."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class ParsedFamily:
    """One metric family reconstructed from a scrape."""

    name: str
    type: str = "untyped"
    help: Optional[str] = None
    #: ``(sample_name, labels) -> value``; labels as a sorted tuple of
    #: ``(name, value)`` pairs
    samples: "dict[tuple[str, tuple[tuple[str, str], ...]], float]" = field(
        default_factory=dict
    )

    def value(self, sample_name: Optional[str] = None, **labels: str) -> float:
        key = (
            sample_name or self.name,
            tuple(sorted(labels.items())),
        )
        return self.samples[key]


def _parse_value(token: str, lineno: int) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise PromParseError(lineno, f"invalid sample value {token!r}") from None


def _parse_labels(text: str, lineno: int) -> tuple[tuple[str, str], ...]:
    """Parse the inside of one ``{...}`` block with a strict scanner."""
    pairs: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        eq = text.find("=", i)
        if eq < 0:
            raise PromParseError(lineno, "label without '='")
        name = text[i:eq]
        if not _LABEL_NAME_RE.match(name):
            raise PromParseError(lineno, f"invalid label name {name!r}")
        i = eq + 1
        if i >= n or text[i] != '"':
            raise PromParseError(lineno, "label value must be double-quoted")
        i += 1
        value_chars: list[str] = []
        while True:
            if i >= n:
                raise PromParseError(lineno, "unterminated label value")
            ch = text[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise PromParseError(lineno, "dangling escape")
                esc = text[i + 1]
                if esc == "n":
                    value_chars.append("\n")
                elif esc in ('"', "\\"):
                    value_chars.append(esc)
                else:
                    raise PromParseError(lineno, f"invalid escape \\{esc}")
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            if ch == "\n":
                raise PromParseError(lineno, "raw newline in label value")
            value_chars.append(ch)
            i += 1
        pairs.append((name, "".join(value_chars)))
        if i < n:
            if text[i] != ",":
                raise PromParseError(lineno, f"expected ',' at {text[i:]!r}")
            i += 1
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise PromParseError(lineno, "duplicate label name")
    return tuple(sorted(pairs))


def _base_family(sample_name: str, families: dict[str, ParsedFamily]) -> str:
    """Resolve ``x_bucket``/``x_sum``/``x_count`` to the family ``x``
    when that family was declared a histogram."""
    for suffix in _HISTOGRAM_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            family = families.get(base)
            if family is not None and family.type == "histogram":
                return base
    return sample_name


def parse_prometheus_text(text: str) -> dict[str, ParsedFamily]:
    """Parse a scrape strictly; raise :class:`PromParseError` on any
    deviation from the exposition format. Returns families by name."""
    families: dict[str, ParsedFamily] = {}
    finished: set[str] = set()  # families whose sample block has ended
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise PromParseError(lineno, f"malformed {parts[1]} line")
                name = parts[2]
                if not _NAME_RE.match(name):
                    raise PromParseError(lineno, f"invalid metric name {name!r}")
                family = families.setdefault(name, ParsedFamily(name))
                if parts[1] == "HELP":
                    if family.help is not None:
                        raise PromParseError(lineno, f"second HELP for {name!r}")
                    family.help = parts[3] if len(parts) > 3 else ""
                else:
                    if len(parts) < 4 or parts[3] not in _VALID_TYPES:
                        raise PromParseError(lineno, f"invalid TYPE for {name!r}")
                    if family.type != "untyped" or family.samples:
                        raise PromParseError(
                            lineno, f"TYPE after samples for {name!r}"
                        )
                    family.type = parts[3]
            # other comments are legal and ignored
            continue

        # sample line: name[{labels}] value [timestamp]
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise PromParseError(lineno, "unbalanced '{'")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close], lineno)
            rest = line[close + 1 :].split()
        else:
            tokens = line.split()
            if len(tokens) < 2:
                raise PromParseError(lineno, "sample without value")
            sample_name = tokens[0]
            labels = ()
            rest = tokens[1:]
        if not _NAME_RE.match(sample_name):
            raise PromParseError(lineno, f"invalid metric name {sample_name!r}")
        if not rest or len(rest) > 2:
            raise PromParseError(lineno, "expected 'value [timestamp]'")
        value = _parse_value(rest[0], lineno)
        if len(rest) == 2 and not re.match(r"^-?\d+$", rest[1]):
            raise PromParseError(lineno, f"invalid timestamp {rest[1]!r}")

        base = _base_family(sample_name, families)
        family = families.setdefault(base, ParsedFamily(base))
        if base in finished:
            raise PromParseError(
                lineno, f"samples for {base!r} are not contiguous"
            )
        if current is not None and current != base:
            finished.add(current)
        current = base
        key = (sample_name, labels)
        if key in family.samples:
            raise PromParseError(
                lineno, f"duplicate sample {sample_name}{dict(labels)}"
            )
        family.samples[key] = value

    _check_histograms(families)
    return families


def _check_histograms(families: dict[str, ParsedFamily]) -> None:
    for family in families.values():
        if family.type != "histogram":
            continue
        buckets: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
        sums: set[tuple[tuple[str, str], ...]] = set()
        counts: dict[tuple[tuple[str, str], ...], float] = {}
        for (sample_name, labels), value in family.samples.items():
            if sample_name == family.name + "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    raise PromParseError(0, f"{family.name} bucket without le")
                rest = tuple(sorted(p for p in labels if p[0] != "le"))
                bound = math.inf if le == "+Inf" else float(le)
                buckets.setdefault(rest, []).append((bound, value))
            elif sample_name == family.name + "_sum":
                sums.add(labels)
            elif sample_name == family.name + "_count":
                counts[labels] = value
            else:
                raise PromParseError(
                    0, f"stray sample {sample_name!r} in histogram {family.name!r}"
                )
        if not buckets:
            if family.samples:
                raise PromParseError(
                    0, f"histogram {family.name!r} has no buckets"
                )
            continue  # declared but never observed — legal
        for labels, series in buckets.items():
            series.sort(key=lambda pair: pair[0])
            if series[-1][0] != math.inf:
                raise PromParseError(
                    0, f"histogram {family.name!r} lacks a +Inf bucket"
                )
            values = [count for _, count in series]
            if any(b > a for b, a in zip(values, values[1:])):
                raise PromParseError(
                    0, f"histogram {family.name!r} buckets are not cumulative"
                )
            if labels not in sums or labels not in counts:
                raise PromParseError(
                    0, f"histogram {family.name!r} is missing _sum or _count"
                )
            if counts[labels] != series[-1][1]:
                raise PromParseError(
                    0,
                    f"histogram {family.name!r}: +Inf bucket disagrees with _count",
                )
