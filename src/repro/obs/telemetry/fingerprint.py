"""Query fingerprinting: grouping alpha-equivalent queries for telemetry.

A *fingerprint* identifies what a query **means**, not how it was
spelled: :func:`repro.cache.keys.fingerprint_term` is a short hash of
the canonical alpha-form, and a compiled entry keeps its own as
``CompiledQuery.fingerprint``, so ``select distinct x.name from x in
Cities`` and its ``y``-spelled twin share one fingerprint (the same
equivalence the compiled-query cache keys on). Fleet
telemetry wants exactly this grouping — "which *query shapes* dominate
runtime" — where the raw text hash the query log records
(:func:`repro.obs.querylog.oql_fingerprint`) would split one hot query
into per-spelling shards.

:class:`FingerprintTable` keeps bounded per-fingerprint aggregates
(count, total/max latency, rows, index probes) and serves the
top-K hot-query view the CLI, the REPL ``:stats`` command and the
``QL402`` / ``QL501`` advisors read. When full it evicts the entry with
the least accumulated time, keeping the hot set by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class QueryStats:
    """Aggregates for one query fingerprint."""

    fingerprint: str
    #: the first spelling seen — a human-readable exemplar of the group
    example_oql: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    rows: int = 0
    index_probes: int = 0
    engines: dict[str, int] = field(default_factory=dict)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "example_oql": self.example_oql,
            "count": self.count,
            "total_ms": round(self.total_seconds * 1e3, 3),
            "mean_ms": round(self.mean_seconds * 1e3, 3),
            "max_ms": round(self.max_seconds * 1e3, 3),
            "rows": self.rows,
            "index_probes": self.index_probes,
            "engines": dict(sorted(self.engines.items())),
        }


class FingerprintTable:
    """Bounded map of fingerprint -> :class:`QueryStats`.

    Not synchronized: a :class:`~repro.obs.telemetry.registry.MetricsRegistry`
    records into it under its lock and hands readers a copy.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._stats: dict[str, QueryStats] = {}

    def record(
        self,
        fingerprint: str,
        oql: str,
        seconds: float,
        rows: int = 0,
        engine: Optional[str] = None,
        index_probes: int = 0,
    ) -> None:
        entry = self._stats.get(fingerprint)
        if entry is None:
            entry = self._stats[fingerprint] = QueryStats(fingerprint, oql.strip())
            if len(self._stats) > self.max_entries:
                # evict the coldest entry (least accumulated time),
                # never the one we just created
                coldest = min(
                    (s for s in self._stats.values() if s is not entry),
                    key=lambda s: s.total_seconds,
                )
                del self._stats[coldest.fingerprint]
        entry.count += 1
        entry.total_seconds += seconds
        entry.max_seconds = max(entry.max_seconds, seconds)
        entry.rows += rows
        entry.index_probes += index_probes
        if engine:
            entry.engines[engine] = entry.engines.get(engine, 0) + 1

    def top(self, k: int = 10) -> list[QueryStats]:
        """The K fingerprints with the most accumulated time, hottest first."""
        entries = sorted(
            self._stats.values(),
            key=lambda s: (-s.total_seconds, s.fingerprint),
        )
        return entries[:k]

    def hot(
        self, top_k: int, min_share: float, min_count: int
    ) -> Iterator[tuple[QueryStats, float]]:
        """``(entry, share of all measured time)`` for each of the
        ``top_k`` hottest entries that ran at least ``min_count`` times
        and holds at least ``min_share`` of the time — the selection the
        runtime-informed advisors (QL402, QL501) act on."""
        total = self.total_seconds()
        if total <= 0:
            return
        for entry in self.top(top_k):
            share = entry.total_seconds / total
            if entry.count >= min_count and share >= min_share:
                yield entry, share

    def total_seconds(self) -> float:
        return sum(s.total_seconds for s in self._stats.values())

    def __len__(self) -> int:
        return len(self._stats)


def render_top(entries: list[QueryStats], total_seconds: float) -> list[str]:
    """The hot-query table as aligned text lines (CLI / REPL view)."""
    if not entries:
        return ["(no queries recorded)"]
    lines = [
        f"{'fingerprint':<14}{'count':>7}{'total_ms':>10}{'mean_ms':>9}"
        f"{'max_ms':>9}{'rows':>8}{'share':>7}  query"
    ]
    for entry in entries:
        share = entry.total_seconds / total_seconds if total_seconds else 0.0
        oql = entry.example_oql
        if len(oql) > 48:
            oql = oql[:45] + "..."
        lines.append(
            f"{entry.fingerprint:<14}{entry.count:>7}"
            f"{entry.total_seconds * 1e3:>10.2f}"
            f"{entry.mean_seconds * 1e3:>9.3f}"
            f"{entry.max_seconds * 1e3:>9.3f}"
            f"{entry.rows:>8}{share:>6.0%}  {oql}"
        )
    return lines
