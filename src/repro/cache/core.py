"""The query cache: compiled plans, result entries, stats and eviction.

Three cooperating layers (docs/CACHE.md has the full story):

1. **Compilation cache** — maps query text (and, behind it, the
   canonical alpha-form from :mod:`repro.cache.keys`) to a
   :class:`CompiledQuery`: the translated term, normal form and
   optimized physical plan, plus everything needed to execute and
   invalidate it. A hit skips parse → translate → typecheck →
   normalize → plan → optimize entirely. Beside each text alias sits the
   text's strict-lint verdict, which a strict hit replays.
2. **Prepared statements** (:mod:`repro.cache.prepared`) — a pinned
   :class:`CompiledQuery` with ``$name`` parameters bound per run.
3. **Result cache** — maps (canonical key, parameter bindings) to a
   finished value, guarded by the version vector of everything the plan
   reads; any mutation of a read extent or of the object heap makes the
   stored vector stale and the entry is dropped on the next lookup.

Everything is off by default: a :class:`~repro.db.database.Database`
only consults a cache when constructed with ``cache=...`` or when the
``REPRO_CACHE`` environment flag is set (the convention every mode
shares — DESIGN.md, "Modes"). The pipeline is the same one either way,
:meth:`Database.compile` then ``_execute``; a cache is what those two
consult when one is attached. Both stores are LRU with a max-entry
bound; every hit/miss/eviction/invalidation increments a counter on
:class:`CacheStats`, surfaced through ``repro.obs`` and the
``python -m repro cache`` CLI.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.cache.invalidation import Dependencies
from repro.calculus.ast import Term
from repro.env import env_flag
from repro.errors import DatabaseError
from repro.normalize.trace import NormalizationTrace


def cache_env_enabled() -> bool:
    """Is the ``REPRO_CACHE`` environment flag set (and not falsey)?"""
    return env_flag("REPRO_CACHE")


@dataclass
class CacheStats:
    """Counters for one :class:`QueryCache` (monotonic until reset)."""

    compile_hits: int = 0
    compile_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def reset(self) -> None:
        for name in self.as_dict():
            setattr(self, name, 0)


@dataclass
class CacheConfig:
    """Tuning knobs for one :class:`QueryCache`.

    ``results=False`` keeps only the compilation cache (plans are
    always safe to reuse; results need the version guard). Entries do
    not age out: the version vectors keep every cached result exact, so
    only capacity evicts.
    """

    max_entries: int = 128
    result_max_entries: int = 256
    results: bool = True


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


#: Sentinel distinguishing "no entry" from a cached ``None`` value.
MISSING = _Missing()


class LRUCache:
    """An ordered map with least-recently-used eviction.

    ``on_evict`` fires once per entry displaced by capacity — *not* for
    explicit :meth:`remove`/:meth:`clear` calls, which are the caller's
    own bookkeeping.

    Thread-safe: every operation holds an internal reentrant lock.
    ``get`` mutates (``move_to_end``) and ``put`` evicts, so
    even "read" paths race without it — concurrent unlocked calls can
    corrupt the underlying ``OrderedDict`` or double-fire ``on_evict``.
    The lock is reentrant because ``on_evict`` callbacks may re-enter
    the cache.
    """

    def __init__(
        self,
        max_entries: int,
        on_evict: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        if max_entries < 1:
            raise DatabaseError("cache max_entries must be at least 1")
        self.max_entries = max_entries
        self._on_evict = on_evict
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: Any) -> Any:
        """The stored value, or :data:`MISSING`; refreshes recency."""
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is not MISSING:
                self._data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                evicted_key, evicted_value = self._data.popitem(last=False)
                if self._on_evict is not None:
                    self._on_evict(evicted_key, evicted_value)

    def remove(self, key: Any) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list[Any]:
        """Keys oldest-first (the eviction order)."""
        with self._lock:
            return list(self._data)


@dataclass
class CompiledQuery:
    """Everything the pipeline's front half produced for one query.

    This is the only product of :meth:`Database.compile
    <repro.db.database.Database.compile>` and the only input of the back
    half, with or without a cache attached, and it is final: the back
    half, prepared statements and EXPLAIN only read it. ``plan`` is the
    optimized physical plan the executor runs, kept only when the jit
    phase gave it a function, or ``None`` when the normalized term runs
    on the reference evaluator. ``phases`` lists the
    pipeline phases a hit skips, in
    :data:`repro.obs.tracer.PIPELINE_PHASES` order. ``version`` is the
    compile-time catalog/epoch vector the entry is valid for;
    ``verified`` records whether it was built under rewrite
    verification (a verifying call never reuses an unverified entry).

    ``key`` (the canonical alpha-form, with the engine, the typecheck
    flag and the parameter types a typecheck read) and ``deps`` (the
    result-cache verdict of :mod:`repro.cache.invalidation`: may a value
    be stored, and which object fields guard it) matter only to a cache,
    so compile derives them only with one attached (``deps`` only with a
    result cache); a database without one never computes them.
    """

    oql: str
    engine: str
    typecheck: bool
    calculus: Term
    normalized: Term
    trace: NormalizationTrace
    plan: Optional[Any]
    phases: tuple[str, ...]
    params: tuple[str, ...]
    version: Any
    verified: bool = False
    #: the canonical cache key: a :class:`~repro.cache.keys.CacheKey` of
    #: (canonical term, engine, typecheck, param types)
    key: Any = None
    deps: Optional[Dependencies] = None  # None: its values are not result-cached
    #: telemetry's hot-query fingerprint, set by compile when telemetry is
    #: attached (:func:`repro.obs.telemetry.fingerprint.query_fingerprint`)
    fingerprint: Optional[str] = None


class QueryCache:
    """The two-level cache one database consults.

    Compiled entries are stored under their *canonical* key (the
    alpha-renamed term, so ``for x in Cities`` and ``for y in Cities``
    share one entry) with a text-key alias layer in front, letting the
    exact-repeat fast path skip even parsing; each text's strict-lint
    verdict is kept beside its alias. Result entries live in a separate
    LRU keyed by (canonical key, parameter bindings) and carry the
    version vector they were computed under. The versions are one
    database's, so a cache belongs to the database that built it.

    Thread-safe: ``Database.run`` may be called from many threads, so
    every public method holds one reentrant lock spanning its whole
    lookup + version-check + stats-update sequence. That keeps the
    counters exact (no lost ``+=``) and the check-then-remove
    invalidation paths atomic. Lock order is QueryCache → LRUCache —
    the inner stores are only ever touched under the outer lock, so the
    eviction callback (which fires under both) cannot deadlock.
    """

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._compiled = LRUCache(self.config.max_entries, self._count_eviction)
        # Text aliases and verdicts are bookkeeping, not cached work: their
        # eviction is silent and their capacity is tied to the entry store's.
        self._aliases = LRUCache(max(self.config.max_entries * 4, 4))
        self._verdicts = LRUCache(max(self.config.max_entries * 4, 4))
        self._results = LRUCache(self.config.result_max_entries, self._count_eviction)

    def _count_eviction(self, _key: Any, _value: Any) -> None:
        with self._lock:
            self.stats.evictions += 1

    # -- compilation cache ------------------------------------------------------

    def compiled_by_text(
        self, text_key: Any, version: Any, verified: bool = False
    ) -> Optional[CompiledQuery]:
        """The entry for an exact query text, or None (counts a hit)."""
        with self._lock:
            canon_key = self._aliases.get(text_key)
            if canon_key is MISSING:
                return None
            return self.compiled_by_canon(canon_key, version, verified)

    def compiled_by_canon(
        self, canon_key: Any, version: Any, verified: bool = False
    ) -> Optional[CompiledQuery]:
        """The entry under a canonical key, version-checked (counts a hit).

        With ``verified`` set, an entry that was not built under rewrite
        verification is as stale as one from an older catalog: dropped,
        so the caller rebuilds it with the verifier watching.
        """
        with self._lock:
            entry = self._compiled.get(canon_key)
            if entry is MISSING:
                return None
            if entry.version != version or (verified and not entry.verified):
                self.stats.invalidations += 1
                self._compiled.remove(canon_key)
                return None
            self.stats.compile_hits += 1
            return entry

    def alias(self, text_key: Any, canon_key: Any) -> None:
        """Point a query text at an existing canonical entry."""
        with self._lock:
            self._aliases.put(text_key, canon_key)

    def remember(self, text_key: Any, canon_key: Any, entry: CompiledQuery) -> None:
        """Store a freshly compiled entry (counts the miss that led here)."""
        with self._lock:
            self.stats.compile_misses += 1
            self._compiled.put(canon_key, entry)
            self._aliases.put(text_key, canon_key)

    def verdict(self, text_key: Any, version: Any) -> Optional[list]:
        """The error diagnostics strict lint found in a query text at
        ``version`` (``[]``: none), or None when it was not linted at it."""
        with self._lock:
            stored = self._verdicts.get(text_key)
            if stored is MISSING or stored[0] != version:
                return None
            return stored[1]

    def judge(self, text_key: Any, version: Any, errors: list) -> None:
        """Keep a query text's strict-lint verdict at ``version``; its
        diagnostics carry spans into that text, so it is kept per text."""
        with self._lock:
            self._verdicts.put(text_key, (version, errors))

    # -- result cache ----------------------------------------------------------

    def result_for(self, key: Any, versions: Any) -> tuple[bool, Any]:
        """``(hit, value)`` for one result key under current ``versions``."""
        with self._lock:
            record = self._results.get(key)
            if record is MISSING:
                self.stats.result_misses += 1
                return False, None
            value, stored_versions = record
            if stored_versions != versions:
                self.stats.invalidations += 1
                self._results.remove(key)
                self.stats.result_misses += 1
                return False, None
            self.stats.result_hits += 1
            return True, value

    def remember_result(self, key: Any, versions: Any, value: Any) -> None:
        with self._lock:
            self._results.put(key, (value, versions))

    # -- maintenance -----------------------------------------------------------

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry (and, optionally, zero the counters)."""
        with self._lock:
            self._compiled.clear()
            self._aliases.clear()
            self._verdicts.clear()
            self._results.clear()
            if reset_stats:
                self.stats.reset()

    def sizes(self) -> dict[str, int]:
        with self._lock:
            return {
                "compiled_entries": len(self._compiled),
                "result_entries": len(self._results),
            }

    def stats_dict(self) -> dict[str, int]:
        """Counters plus current entry counts, JSON-ready."""
        with self._lock:
            out = self.stats.as_dict()
            out.update(self.sizes())
            return out


def resolve_cache(cache: Any) -> Optional[QueryCache]:
    """Normalize ``Database(cache=...)`` to a :class:`QueryCache` or None.

    ``None`` defers to the ``REPRO_CACHE`` environment flag (unset or
    falsey → caching off, the default).
    ``True``/``False`` force it; a :class:`CacheConfig` configures a
    fresh cache. A :class:`QueryCache` is refused: its version vectors
    are one database's, so sharing one would serve a database another
    one's entries and results.
    """
    if cache is None:
        return QueryCache() if cache_env_enabled() else None
    if cache is False:
        return None
    if cache is True:
        return QueryCache()
    if isinstance(cache, CacheConfig):
        return QueryCache(cache)
    raise DatabaseError(
        f"cache must be None, a bool or a CacheConfig, got {type(cache).__name__}"
    )
