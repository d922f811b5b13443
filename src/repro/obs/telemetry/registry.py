"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` aggregates telemetry across every
:class:`~repro.db.database.Database` (and thread) that records into it.
Metric families are created on demand and *get-or-create*: two
databases asking for ``repro_queries_total`` share one family, which is
what makes the registry safe to share process-wide. All mutation runs
under one registry lock, so counter and histogram totals are exact even
under concurrent query threads (the threaded stress test asserts this).

Three metric kinds, modeled on the Prometheus data model:

- :class:`Counter` — monotonically increasing totals, optionally
  split by labels (``registry.counter(...).labels(engine="algebra")``);
- :class:`Gauge` — a value that can go up and down (cache entry counts);
- :class:`Histogram` — observations bucketed into **fixed log-scale
  boundaries** (the 1-2-5 decade series in
  :data:`DEFAULT_LATENCY_BUCKETS`), with p50/p90/p99 estimation by
  linear interpolation inside the matched bucket — the estimate is
  always within one bucket of the exact value.

:class:`RollingWindow` adds the time-local view the cumulative metrics
cannot give: a ring of per-second slots over the last N seconds, for
QPS and recent-latency readouts.

Enablement mirrors ``repro.cache``/``repro.analysis``: everything is
**off by default** and the off path records nothing. Switch it on per
database (``Database(telemetry=...)`` / ``db.enable_telemetry()``),
process-wide (:func:`enable_telemetry`), or via the
``REPRO_TELEMETRY=1`` environment flag. :func:`current_registry`
exposes the active registry to deep layers (the rewrite verifier, the
query log) without threading it through every call: the database
activates its registry for the dynamic extent of each telemetered
query via :func:`activation` (thread-local, so concurrent databases
with different registries never cross-talk).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from repro.env import env_flag
from repro.errors import TelemetryError
from repro.obs.telemetry.fingerprint import FingerprintTable

#: Fixed log-scale (1-2-5 per decade) bucket upper bounds, in seconds,
#: from 10 microseconds to 100 seconds. Shared by every latency
#: histogram so exported series are comparable across metrics.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    base * (10.0**exp)
    for exp in range(-5, 3)
    for base in (1.0, 2.0, 5.0)
)

def _label_key(
    label_names: tuple[str, ...], labels: dict[str, Any]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise TelemetryError(
            f"expected labels {list(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Family:
    """Shared behaviour of one named metric family (all label children)."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.RLock,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = lock
        self._children: "OrderedDict[tuple[str, ...], Any]" = OrderedDict()

    def _child_for(self, key: tuple[str, ...]) -> Any:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        """The child metric for one label combination (created on demand)."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._child_for(key)

    def items(self) -> list[tuple[tuple[str, ...], Any]]:
        """``(label_values, child)`` pairs, in creation order."""
        with self._lock:
            return list(self._children.items())

    def clear(self) -> None:
        with self._lock:
            self._children.clear()


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Counter(_Family):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            return child.value if child is not None else 0.0

    def total(self) -> float:
        """The sum across every label combination."""
        with self._lock:
            return sum(child.value for child in self._children.values())


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.inc(-amount)


class Gauge(_Family):
    """A value that can go up and down (sizes, rates, last-seen)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: Union[int, float], **labels: Any) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: Union[int, float] = 1, **labels: Any) -> None:
        self.labels(**labels).dec(amount)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            return child.value if child is not None else 0.0


class _HistogramChild:
    __slots__ = ("_lock", "bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, lock: threading.RLock, bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self.bounds = bounds
        # one slot per finite bound plus the +Inf overflow slot
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        with self._lock:
            # the first bound >= value; past the last one, the +Inf slot
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by interpolating inside its bucket.

        The estimate never leaves the bucket the true value falls in
        (linear interpolation between the bucket's bounds), so it is
        within one log-scale bucket of exact. Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cumulative = 0
            for i, n in enumerate(self.counts):
                if n == 0:
                    continue
                if cumulative + n >= target:
                    lo = self.bounds[i - 1] if i > 0 else 0.0
                    if i >= len(self.bounds):
                        # overflow bucket: the best point estimate we
                        # have is the observed maximum
                        return self.max if self.max is not None else lo
                    hi = self.bounds[i]
                    fraction = (target - cumulative) / n
                    return lo + (hi - lo) * fraction
                cumulative += n
            return self.max if self.max is not None else 0.0


class Histogram(_Family):
    """Bucketed observations with quantile estimation."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.RLock,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise TelemetryError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise TelemetryError("histogram bucket bounds must be distinct")
        self.bounds = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.bounds)

    def observe(self, value: Union[int, float], **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def quantile(self, q: float, **labels: Any) -> float:
        return self.labels(**labels).quantile(q)


class RollingWindow:
    """Event counts and values over the trailing ``width`` seconds.

    A ring of one-second slots; each slot remembers the absolute second
    it was last written so stale slots are discarded lazily — no
    background thread, O(slots) reads, O(1) writes. ``clock`` is
    injectable so tests can drive time deterministically (the default
    is ``time.monotonic``; wall-clock time would jump under NTP).
    """

    def __init__(
        self,
        width: int = 60,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if width < 1:
            raise TelemetryError("window width must be at least one second")
        self.width = int(width)
        self._clock = clock
        self._lock = threading.Lock()
        self._slots: list[list[float]] = [[-1.0, 0.0, 0.0] for _ in range(self.width)]

    def add(self, value: Union[int, float] = 0.0) -> None:
        second = int(self._clock())
        with self._lock:
            slot = self._slots[second % self.width]
            if slot[0] != second:
                slot[0] = second
                slot[1] = 0.0
                slot[2] = 0.0
            slot[1] += 1
            slot[2] += value

    def totals(self) -> tuple[int, float]:
        """``(count, sum)`` over the live slots of the window."""
        horizon = int(self._clock()) - self.width
        with self._lock:
            count = 0.0
            total = 0.0
            for stamp, n, s in self._slots:
                if stamp > horizon:
                    count += n
                    total += s
            return int(count), total

    def rate(self) -> float:
        """Events per second over the window."""
        count, _ = self.totals()
        return count / float(self.width)

    def mean(self) -> float:
        """Mean recorded value over the window (0.0 when empty)."""
        count, total = self.totals()
        return total / count if count else 0.0


# ---------------------------------------------------------------------------
# Snapshots (the exporter's input)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramData:
    """One histogram child, frozen for export."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # per finite bound, then the +Inf slot
    sum: float
    count: int


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


class MetricsRegistry:
    """Thread-safe, process-shareable home of every metric family.

    Families are keyed by name and get-or-create: asking twice (from
    two databases, or two threads) returns the same object; asking for
    an existing name with a different kind or label set raises
    :class:`~repro.errors.TelemetryError` rather than silently forking
    the series.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: "OrderedDict[str, _Family]" = OrderedDict()
        self._windows: "OrderedDict[str, RollingWindow]" = OrderedDict()
        #: per-fingerprint hot-query stats (see fingerprint.py)
        self.fingerprints = FingerprintTable()
        # last-seen cumulative snapshots of bridged stat blocks
        # (CacheStats and friends), keyed by id(source) — deltas are
        # computed here so several databases sharing one cache and one
        # registry never double-count.
        self._bridged: dict[int, dict[str, int]] = {}
        self._bound: dict[Any, Any] = {}

    # -- family accessors -------------------------------------------------------

    def _family(
        self,
        cls: type,
        name: str,
        help: str,
        labels: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, tuple(labels), self._lock, **kwargs)
                self._families[name] = family
                return family
            if not isinstance(family, cls):
                raise TelemetryError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            if family.label_names != tuple(labels):
                raise TelemetryError(
                    f"metric {name!r} already registered with labels "
                    f"{list(family.label_names)}"
                )
            return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._family(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._family(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._family(Histogram, name, help, labels, buckets=buckets)

    def bound(self, factory: Callable[["MetricsRegistry"], Any]) -> Any:
        """``factory(self)``, built once per registry (and again after
        :meth:`reset`) — where a recorder keeps the families it writes
        to, instead of looking each up by name per event."""
        obj = self._bound.get(factory)
        if obj is None:
            with self._lock:
                obj = self._bound.setdefault(factory, factory(self))
        return obj

    def window(self, name: str, width: int = 60) -> RollingWindow:
        with self._lock:
            win = self._windows.get(name)
            if win is None:
                win = self._windows[name] = RollingWindow(width)
            return win

    # -- bridging cumulative stat blocks ----------------------------------------

    def bridge_deltas(self, source: Any, current: dict[str, int]) -> dict[str, int]:
        """Per-key increments of ``current`` since this registry last
        saw ``source`` (e.g. one shared :class:`CacheStats`)."""
        with self._lock:
            seen = self._bridged.setdefault(id(source), {})
            deltas: dict[str, int] = {}
            for key, value in current.items():
                delta = value - seen.get(key, 0)
                if delta > 0:
                    deltas[key] = delta
                seen[key] = value
            return deltas

    # -- snapshots --------------------------------------------------------------

    def collect(self) -> list[FamilySnapshot]:
        """A consistent point-in-time snapshot of every family.

        Window families are materialized as gauges (``repro_window_qps``
        and ``repro_window_latency_seconds``) so the exporter sees one
        uniform shape.
        """
        with self._lock:
            out: list[FamilySnapshot] = []
            for family in self._families.values():
                samples: list[tuple[tuple[str, ...], Any]] = []
                for key, child in family._children.items():
                    if isinstance(child, _HistogramChild):
                        data: Any = HistogramData(
                            bounds=child.bounds,
                            counts=tuple(child.counts),
                            sum=child.sum,
                            count=child.count,
                        )
                    else:
                        data = child.value
                    samples.append((key, data))
                out.append(
                    FamilySnapshot(
                        name=family.name,
                        kind=family.kind,
                        help=family.help,
                        label_names=family.label_names,
                        samples=tuple(samples),
                    )
                )
            for name, win in self._windows.items():
                label = f"{win.width}s"
                out.append(
                    FamilySnapshot(
                        name=f"{name}_qps",
                        kind="gauge",
                        help=f"events per second over the trailing {label}",
                        label_names=("window",),
                        samples=(((label,), win.rate()),),
                    )
                )
                out.append(
                    FamilySnapshot(
                        name=f"{name}_latency_seconds",
                        kind="gauge",
                        help=f"mean recorded latency over the trailing {label}",
                        label_names=("window",),
                        samples=(((label,), win.mean()),),
                    )
                )
            return sorted(out, key=lambda snap: snap.name)

    def reset(self) -> None:
        """Zero every family, window, bridge and fingerprint entry."""
        with self._lock:
            self._families.clear()
            self._windows.clear()
            self._bridged.clear()
            self._bound.clear()
            self.fingerprints.clear()


# ---------------------------------------------------------------------------
# Enablement: process default, environment flag, thread-local activation
# ---------------------------------------------------------------------------

#: The registry :func:`get_registry` hands out — one per process unless
#: replaced via :func:`enable_telemetry`.
_DEFAULT = MetricsRegistry()

#: Process-wide switch flipped by :func:`enable_telemetry`.
_PROCESS_ENABLED = False

_ACTIVE = threading.local()


def telemetry_env_enabled() -> bool:
    """Is the ``REPRO_TELEMETRY`` environment flag set (and not falsey)?"""
    return env_flag("REPRO_TELEMETRY")


def telemetry_enabled() -> bool:
    """Is telemetry on process-wide (flag or environment)?"""
    return _PROCESS_ENABLED or telemetry_env_enabled()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (shared by every database that
    opts in with ``telemetry=True`` or the environment flag)."""
    return _DEFAULT


def enable_telemetry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn telemetry on process-wide; every ``Database`` constructed
    afterwards (without an explicit ``telemetry=``) records into the
    default registry. Pass a registry to install it as the default."""
    global _DEFAULT, _PROCESS_ENABLED
    if registry is not None:
        _DEFAULT = registry
    _PROCESS_ENABLED = True
    return _DEFAULT


def disable_telemetry() -> None:
    """Undo :func:`enable_telemetry` (the environment flag still wins)."""
    global _PROCESS_ENABLED
    _PROCESS_ENABLED = False


def resolve_telemetry(telemetry: Any) -> Optional[MetricsRegistry]:
    """Normalize ``Database(telemetry=...)`` to a registry or None.

    ``None`` defers to :func:`telemetry_enabled` (off by default).
    ``True``/``False`` force it; an
    existing :class:`MetricsRegistry` is shared as-is.
    """
    if telemetry is None:
        return get_registry() if telemetry_enabled() else None
    if telemetry is False:
        return None
    if telemetry is True:
        return get_registry()
    if isinstance(telemetry, MetricsRegistry):
        return telemetry
    raise TelemetryError(
        "telemetry must be None, a bool or a MetricsRegistry, "
        f"got {type(telemetry).__name__}"
    )


@contextmanager
def activation(registry: MetricsRegistry) -> Iterator[None]:
    """Make ``registry`` the thread's active registry for a block.

    Deep layers that cannot be handed the registry explicitly (the
    rewrite verifier, the query log) pick it up via
    :func:`current_registry` while a telemetered query is in flight.
    """
    saved = getattr(_ACTIVE, "registry", None)
    _ACTIVE.registry = registry
    try:
        yield
    finally:
        _ACTIVE.registry = saved


def current_registry() -> Optional[MetricsRegistry]:
    """The thread's active registry, else the process default when
    telemetry is on process-wide, else None."""
    active = getattr(_ACTIVE, "registry", None)
    if active is not None:
        return active
    return _DEFAULT if telemetry_enabled() else None
