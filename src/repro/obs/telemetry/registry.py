"""The process-wide metrics registry: one lock over one flat table.

:data:`~repro.obs.telemetry.instrument.CATALOG` is the registry's
schema — every metric name, its kind, help text and label names. The
table maps ``(name, label values)`` to the metric's state: a float for a
counter or the gauge, and for a histogram its bucket counts (over the
shared :data:`DEFAULT_LATENCY_BUCKETS`, plus the +Inf slot), sum and
count.

One query's increments are sums and bucket counts, values of the
commutative ``sum`` / ``bag`` monoids, so they can be folded in parts
and merged (§2's homomorphism property). The recorder folds a query's
increments into a local batch with no lock held, and :meth:`flush`
merges it in one acquisition of the registry lock — together with the
rolling window, the hot-query table and the cache-stats bridge. Totals
are therefore exact under concurrent query threads, and a reader (which
takes the same lock) sees whole queries only.

Telemetry is **off by default** and the off path records nothing:
switch it on per database (``Database(telemetry=...)`` /
``db.enable_telemetry()``) or with the ``REPRO_TELEMETRY=1``
environment flag.
"""

from __future__ import annotations

import copy
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.env import env_flag
from repro.errors import TelemetryError
from repro.obs.telemetry.fingerprint import FingerprintTable
from repro.obs.telemetry.instrument import CATALOG, Batch

#: Fixed log-scale (1-2-5 per decade) bucket upper bounds, in seconds,
#: from 10 microseconds to 500 seconds. Shared by every histogram so
#: exported series are comparable across metrics.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    base * (10.0**exp)
    for exp in range(-5, 3)
    for base in (1.0, 2.0, 5.0)
)

#: Width of the rolling window, in seconds.
WINDOW_SECONDS = 60


class RollingWindow:
    """Event counts and values over the trailing :data:`WINDOW_SECONDS`.

    A ring of one-second slots; each slot remembers the absolute second
    it was last written so stale slots are discarded lazily — no
    background thread, O(slots) reads, O(1) writes. ``clock`` is
    injectable so tests can drive time deterministically (the default
    is ``time.monotonic``; wall-clock time would jump under NTP). Not
    synchronized: a :class:`MetricsRegistry` writes it under its lock.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        # [second last written, events, sum of values]
        self._slots: list[list[Any]] = [[-1, 0, 0.0] for _ in range(WINDOW_SECONDS)]

    def add(self, value: float) -> None:
        second = int(self._clock())
        slot = self._slots[second % WINDOW_SECONDS]
        if slot[0] != second:
            slot[:] = [second, 0, 0.0]
        slot[1] += 1
        slot[2] += value

    def totals(self) -> tuple[int, float]:
        """``(count, sum)`` over the live slots of the window."""
        horizon = int(self._clock()) - WINDOW_SECONDS
        live = [slot for slot in self._slots if slot[0] > horizon]
        return sum(slot[1] for slot in live), sum((slot[2] for slot in live), 0.0)

    def rate(self) -> float:
        """Events per second over the window."""
        count, _ = self.totals()
        return count / float(WINDOW_SECONDS)

    def mean(self) -> float:
        """Mean recorded value over the window (0.0 when empty)."""
        count, total = self.totals()
        return total / count if count else 0.0


@dataclass(frozen=True)
class HistogramData:
    """One histogram series, frozen for readers and the exporter."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # per finite bound, then the +Inf slot
    sum: float
    count: int

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by interpolating inside its bucket.

        The estimate never leaves the bucket the true value falls in
        (linear interpolation between the bucket's bounds), so it is
        within one log-scale bucket of exact; in the +Inf slot it is the
        last finite bound, a lower bound. Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        lo = 0.0
        for hi, n in zip(self.bounds, self.counts):
            if n and cumulative + n >= target:
                return lo + (hi - lo) * (target - cumulative) / n
            cumulative += n
            lo = hi
        return lo


@dataclass(frozen=True)
class FamilySnapshot:
    """One metric family at one instant: the exporter's unit of work."""

    name: str
    kind: str  # 'counter' | 'gauge' | 'histogram'
    help: str
    label_names: tuple[str, ...]
    #: ``(label_values, data)`` pairs; data is a float for counters and
    #: gauges, a :class:`HistogramData` for histograms.
    samples: tuple[tuple[tuple[str, ...], Any], ...]


#: Slots per histogram: one per finite bound, then the +Inf slot.
_SLOTS = len(DEFAULT_LATENCY_BUCKETS) + 1


def _histogram_data(cell: Any) -> HistogramData:
    counts, total, count = cell
    return HistogramData(DEFAULT_LATENCY_BUCKETS, tuple(counts), total, count)


def _spec(name: str, kinds: tuple[str, ...]) -> tuple[str, str, tuple[str, ...]]:
    """``name``'s catalog row: ``(kind, help, label names)``. A name
    the catalog lacks, or one of another kind, raises."""
    spec = CATALOG.get(name)
    if spec is None or spec[0] not in kinds:
        raise TelemetryError(f"no {' or '.join(kinds)} named {name!r} in the metric catalog")
    return spec


def _kind(name: str, labels: tuple[str, ...]) -> str:
    """The kind of one batch entry; a wrong number of label values raises."""
    kind, _, label_names = _spec(name, ("counter", "gauge", "histogram"))
    if len(labels) != len(label_names):
        raise TelemetryError(f"metric {name!r} takes labels {list(label_names)}, got {labels}")
    return kind


def _key(name: str, labels: dict[str, Any], kinds: tuple[str, ...]) -> tuple:
    """The table key of a reader's ``(name, **labels)``."""
    label_names = _spec(name, kinds)[2]
    if set(labels) != set(label_names):
        raise TelemetryError(
            f"metric {name!r} takes labels {list(label_names)}, got {sorted(labels)}"
        )
    return name, tuple(str(labels[label]) for label in label_names)


class MetricsRegistry:
    """Thread-safe, process-shareable home of every catalog metric.

    Written only by :meth:`flush`; read by :meth:`value`, :meth:`total`,
    :meth:`histogram`, :meth:`collect` and the :attr:`fingerprints` /
    :attr:`window` snapshots, each under the one lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero every metric, the window, the bridge and the hot-query table."""
        with self._lock:
            self._table: dict[tuple[str, tuple[str, ...]], Any] = {}
            self._window = RollingWindow()
            self._fingerprints = FingerprintTable()
            # last-seen cumulative CacheStats counts, keyed by id(stats):
            # deltas are taken here, so several databases sharing one
            # cache and one registry never double-count
            self._bridged: dict[int, dict[str, int]] = {}

    # -- the one writer -------------------------------------------------------

    def flush(
        self,
        batch: Batch,
        seconds: float,
        query: Optional[tuple] = None,
        cache_stats: Any = None,
    ) -> None:
        """Merge one query's increments under one acquisition of the lock.

        ``batch`` holds ``(name, label values, amount)`` triples: a
        counter adds the amount, the gauge is set to it, a histogram
        observes it. ``seconds`` goes to the rolling window; ``query``
        is the arguments of :meth:`FingerprintTable.record`.
        ``cache_stats`` (a :class:`~repro.cache.core.CacheStats`) is
        bridged into ``repro_cache_events_total`` as its increments
        since this registry last saw it. A counter below its snapshot
        means the block was reset, so every count restarted from zero.
        """
        kinds = [_kind(name, labels) for name, labels, _ in batch]
        with self._lock:
            table = self._table
            for kind, (name, labels, amount) in zip(kinds, batch):
                key = (name, labels)
                if kind == "counter":
                    table[key] = table.get(key, 0.0) + amount
                elif kind == "gauge":
                    table[key] = float(amount)
                else:
                    cell = table.get(key)
                    if cell is None:
                        cell = table[key] = [[0] * _SLOTS, 0.0, 0]
                    cell[0][bisect_left(DEFAULT_LATENCY_BUCKETS, amount)] += 1
                    cell[1] += amount
                    cell[2] += 1
            self._window.add(seconds)
            if query is not None:
                self._fingerprints.record(*query)
            if cache_stats is not None:
                # read under the lock, so successive snapshots are ordered
                counts = cache_stats.as_dict()
                seen = self._bridged.get(id(cache_stats), {})
                restarted = any(value < seen.get(event, 0) for event, value in counts.items())
                for event, value in counts.items():
                    delta = value if restarted else value - seen.get(event, 0)
                    if delta > 0:
                        key = ("repro_cache_events_total", (event,))
                        table[key] = table.get(key, 0.0) + delta
                self._bridged[id(cache_stats)] = counts

    # -- readers --------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """A counter's or the gauge's value for one label set (0.0 until
        something is recorded into it)."""
        key = _key(name, labels, ("counter", "gauge"))
        with self._lock:
            return self._table.get(key, 0.0)

    def total(self, name: str) -> float:
        """A counter's or the gauge's sum across every label set."""
        _spec(name, ("counter", "gauge"))
        with self._lock:
            return sum(v for (n, _), v in self._table.items() if n == name)

    def histogram(self, name: str, **labels: Any) -> HistogramData:
        """One histogram series (empty until something is observed)."""
        key = _key(name, labels, ("histogram",))
        with self._lock:
            return _histogram_data(self._table.get(key) or ((0,) * _SLOTS, 0.0, 0))

    @property
    def fingerprints(self) -> FingerprintTable:
        """A copy of the hot-query table, taken under the lock."""
        with self._lock:
            return copy.deepcopy(self._fingerprints)

    @property
    def window(self) -> RollingWindow:
        """A copy of the rolling window, taken under the lock."""
        with self._lock:
            return copy.deepcopy(self._window)

    def collect(self) -> list[FamilySnapshot]:
        """A consistent point-in-time snapshot of every recorded family,
        sorted by name.

        The window is materialized as two gauges (``repro_window_qps``
        and ``repro_window_latency_seconds``) so the exporter sees one
        uniform shape.
        """
        with self._lock:
            samples: dict[str, list] = {}
            for (name, labels), cell in self._table.items():
                data = _histogram_data(cell) if isinstance(cell, list) else cell
                samples.setdefault(name, []).append((labels, data))
            out = [
                FamilySnapshot(name, *CATALOG[name], tuple(series))
                for name, series in samples.items()
            ]
            if self._table:
                label = f"{WINDOW_SECONDS}s"
                out.append(FamilySnapshot(
                    "repro_window_qps", "gauge",
                    f"events per second over the trailing {label}",
                    ("window",), (((label,), self._window.rate()),),
                ))
                out.append(FamilySnapshot(
                    "repro_window_latency_seconds", "gauge",
                    f"mean recorded latency over the trailing {label}",
                    ("window",), (((label,), self._window.mean()),),
                ))
        return sorted(out, key=lambda snap: snap.name)


# ---------------------------------------------------------------------------
# Enablement: the process default and the environment flag
# ---------------------------------------------------------------------------

#: The registry :func:`get_registry` hands out — one per process.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (shared by every database that
    opts in with ``telemetry=True`` or the environment flag)."""
    return _DEFAULT


def resolve_telemetry(telemetry: Any) -> Optional[MetricsRegistry]:
    """Normalize ``Database(telemetry=...)`` to a registry or None.

    ``None`` defers to the ``REPRO_TELEMETRY`` environment flag (off by
    default). ``True``/``False`` force it; an existing
    :class:`MetricsRegistry` is shared as-is.
    """
    if telemetry is None:
        return _DEFAULT if env_flag("REPRO_TELEMETRY") else None
    if telemetry is False:
        return None
    if telemetry is True:
        return _DEFAULT
    if isinstance(telemetry, MetricsRegistry):
        return telemetry
    raise TelemetryError(
        "telemetry must be None, a bool or a MetricsRegistry, "
        f"got {type(telemetry).__name__}"
    )
