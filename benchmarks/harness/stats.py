"""The one timing discipline and the summary statistics every metric uses."""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

#: A percentile is only reported as supported with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


@contextmanager
def quiesced() -> Iterator[None]:
    """Collect, then keep the collector out of the timed section."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- the yardstick -------------------------------------------------------------
#
# The sandbox's processor drifts between speed states (a fixed pure-Python
# loop measures anything from 1.0x to 1.6x its best, for seconds at a
# time), which is far wider than any bound a regression gate could use. So every measurement is taken beside a fixed chunk of interpreter
# work of the kind the program does, and reported as *calibrated* time:
# elapsed x (nominal chunk time / chunk time measured just before and
# after). The chunk never calls the program, so a change to the program
# moves the measurement and not the yardstick.

#: calibrated seconds are seconds at the speed where one chunk takes this long
NOMINAL_CHUNK_S = 7e-5
#: a chunk time older than this is measured again before it is used
STALE_S = 0.02

_ROWS = [(i * 7919 % 1009, f"n{i}", {"k": i}) for i in range(300)]


def _second(item: tuple) -> Any:
    return item[1]


def chunk() -> None:
    """Dict inserts, tuple building, attribute-free calls and a keyed sort."""
    table = {}
    for number, name, fields in _ROWS:
        table[name] = (number, fields["k"])
    sorted(table.items(), key=_second)


def chunk_seconds() -> float:
    chunk()  # refill the caches the measured operation just emptied
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


class Clock:
    """Times calls on the monotonic clock, calibrated against the yardstick."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._last = self._at = 0.0
        self.speed()

    def speed(self) -> float:
        """Measure a chunk now; the factor that calibrates durations near it."""
        self._last = chunk_seconds()
        self._at = time.perf_counter()
        self.chunks.append(self._last)
        return NOMINAL_CHUNK_S / self._last

    def timed(self, fn: Callable[[], Any]) -> tuple[float, Any]:
        """``(calibrated seconds, value)`` of one call."""
        if time.perf_counter() - self._at > STALE_S:
            self.speed()
        before = self._last
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        self.speed()
        return elapsed * NOMINAL_CHUNK_S * 2 / (before + self._last), value

    def median_ms(self, fn: Callable[[], Any], reps: int, budget_s: float) -> float:
        """Median calibrated ms over up to ``reps`` calls.

        Stops once the budget is spent, so an operation slower than the
        budget is called once. Callers quiesce the collector themselves.
        """
        times = []
        begun = time.perf_counter()
        for _ in range(reps):
            times.append(self.timed(fn)[0])
            if time.perf_counter() - begun > budget_s:
                break
        return statistics.median(times) * 1e3


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; every value weighs the same whatever its size."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def typical_time(samples: Sequence[float]) -> float:
    """The lower quartile: the typical time of an operation on a quiet machine.

    Interference on a shared box only ever adds time, and the yardstick
    under-corrects the slowest states, so the upper half of a class's
    samples says more about the neighbours than about the program. The
    lower quartile repeated within 2-3 % between runs where the median
    moved 3-6 %.
    """
    return percentile(samples, 0.25)[0]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
