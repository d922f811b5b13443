"""The query cache: compiled plans, result entries, stats and eviction.

Three cooperating layers (docs/CACHE.md has the full story):

1. **Compilation cache** — maps query text (and, behind it, the
   canonical alpha-form from :mod:`repro.cache.keys`) to a
   :class:`CompiledQuery`: the translated term, normal form and
   optimized physical plan, plus everything needed to execute and
   invalidate it. A hit skips parse → translate → typecheck →
   normalize → plan → optimize entirely. A text alias also records the
   catalog version at which its text last linted clean, so a strict hit
   skips lint too.
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
consult when one is attached. Its stores are :class:`LRU` maps with a
max-entry bound, under the cache's one lock; every
hit/miss/eviction/invalidation increments a counter on
:class:`CacheStats`, surfaced through ``repro.obs`` and the
``python -m repro cache`` CLI.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

from repro.cache.invalidation import Dependencies
from repro.cache.keys import fingerprint_term
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
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
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


class LRU(OrderedDict):
    """A map with a capacity, least recently used first. It has no lock:
    its owner's lock guards it. ``None`` is never stored, so :meth:`get`
    returns it on a miss. A hit or a store keeps the caller's key object,
    so the next lookup with that object compares by identity, not by a
    deep ``__eq__``."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity < 1:
            raise DatabaseError("cache max_entries must be at least 1")
        self.capacity = capacity

    def get(self, key: Any) -> Any:
        """The stored value, now the most recent, or None."""
        value = self.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def put(self, key: Any, value: Any) -> list[Any]:
        """Store ``value`` as the most recent; the values capacity evicted."""
        self.pop(key, None)
        self[key] = value
        return [self.popitem(last=False)[1] for _ in range(len(self) - self.capacity)]


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
    catalog version the entry was compiled at; ``verified`` records
    whether it was built under rewrite verification. :meth:`serves` is
    the one rule for reusing an entry.

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

    @cached_property
    def fingerprint(self) -> str:
        """The query class the hot-query table counts this entry under
        (:func:`~repro.cache.keys.fingerprint_term`), derived the first
        time it is read and then kept, whatever was attached at compile."""
        return fingerprint_term(self.calculus, self.key)

    def serves(self, version: Any, verifying: bool) -> bool:
        """May a call at catalog ``version`` reuse this entry: compiled at
        that version, and under verification when the call verifies."""
        return self.version == version and (self.verified or not verifying)


class QueryCache:
    """The two-level cache one database consults.

    Compiled entries are stored under their *canonical* key (the
    alpha-renamed term, so ``for x in Cities`` and ``for y in Cities``
    share one entry) with a text-key alias layer in front, letting the
    exact-repeat fast path skip even parsing; an alias also holds the
    catalog version at which its text last linted clean. Result entries
    live in a separate LRU keyed by (canonical key, parameter bindings)
    and carry the version vector they were computed under. The versions
    are one database's, so a cache belongs to the database that built it.

    Thread-safe: ``Database.run`` may be called from many threads, so
    one lock guards the three stores and the counters. Every public
    method takes it once, for its whole lookup + version-check +
    stats-update sequence, and calls no other public method: the
    counters stay exact and the check-then-remove invalidation paths
    atomic.
    """

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._compiled = LRU(self.config.max_entries)
        # Text aliases are bookkeeping, not cached work: their eviction is
        # silent and their capacity is tied to the entry store's.
        self._aliases = LRU(max(self.config.max_entries * 4, 4))
        self._results = LRU(self.config.result_max_entries)

    # -- compilation cache ------------------------------------------------------

    def compiled_by_text(
        self, text_key: Any, version: Any, verifying: bool = False, strict: bool = False
    ) -> Optional[CompiledQuery]:
        """The entry for an exact query text, or None (counts a hit). A
        ``strict`` call needs the text to have linted clean at ``version``."""
        with self._lock:
            alias = self._aliases.get(text_key)
            if alias is None or (strict and alias[1] != version):
                return None
            return self._serving(alias[0], version, verifying)

    def compiled_by_canon(
        self, canon_key: Any, version: Any, verifying: bool = False
    ) -> Optional[CompiledQuery]:
        """The entry under a canonical key if it :meth:`~CompiledQuery.serves`
        the call (counts a hit); else None, and a stale entry is dropped so
        the caller rebuilds it."""
        with self._lock:
            return self._serving(canon_key, version, verifying)

    def _serving(self, canon_key: Any, version: Any, verifying: bool) -> Optional[CompiledQuery]:
        """:meth:`compiled_by_canon` under the caller's lock."""
        entry = self._compiled.get(canon_key)
        if entry is None:
            return None
        if not entry.serves(version, verifying):
            self.stats.invalidations += 1
            del self._compiled[canon_key]
            return None
        self.stats.compile_hits += 1
        return entry

    def alias(self, text_key: Any, canon_key: Any, clean_at: Any = None) -> None:
        """Point a query text at an existing canonical entry; ``clean_at``
        is the catalog version the text just linted clean at (None: it
        was not linted)."""
        with self._lock:
            self._aliases.put(text_key, (canon_key, clean_at))

    def remember(
        self, text_key: Any, canon_key: Any, entry: CompiledQuery, clean_at: Any = None
    ) -> None:
        """Store a freshly compiled entry (counts the miss that led here)."""
        with self._lock:
            self.stats.compile_misses += 1
            self.stats.evictions += len(self._compiled.put(canon_key, entry))
            if text_key is not None:
                self._aliases.put(text_key, (canon_key, clean_at))

    # -- result cache ----------------------------------------------------------

    def result_for(self, key: Any, versions: Any) -> tuple[bool, Any]:
        """``(hit, value)`` for one result key under current ``versions``."""
        with self._lock:
            record = self._results.get(key)
            if record is not None and record[1] != versions:
                self.stats.invalidations += 1
                del self._results[key]
                record = None
            if record is None:
                self.stats.result_misses += 1
                return False, None
            self.stats.result_hits += 1
            return True, record[0]

    def remember_result(self, key: Any, versions: Any, value: Any) -> None:
        with self._lock:
            self.stats.evictions += len(self._results.put(key, (value, versions)))

    # -- maintenance -----------------------------------------------------------

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry (and, optionally, zero the counters)."""
        with self._lock:
            self._compiled.clear()
            self._aliases.clear()
            self._results.clear()
            if reset_stats:
                self.stats.reset()

    def sizes(self) -> dict[str, int]:
        """Entry counts, read without the lock: each ``len`` is one atomic
        read, and a count a concurrent store moves by one is as current
        as one read just before it."""
        return self._sizes()

    def _sizes(self) -> dict[str, int]:
        return {"compiled_entries": len(self._compiled), "result_entries": len(self._results)}

    def stats_dict(self) -> dict[str, int]:
        """Counters plus current entry counts, JSON-ready."""
        with self._lock:
            return {**self.stats.as_dict(), **self._sizes()}


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
