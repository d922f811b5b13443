"""repro.cache — compiled-query cache, prepared statements, result cache.

See docs/CACHE.md. Public surface:

- :class:`QueryCache`, :class:`CacheConfig`, :class:`CacheStats` —
  the cache a :class:`~repro.db.database.Database` consults when
  constructed with ``cache=...`` or under ``REPRO_CACHE=1``;
- :class:`Prepared` — the handle :meth:`Database.prepare` returns;
- :func:`canonical_term` — the alpha-equivalence cache key;
- :func:`analyze_dependencies` — result-cacheability analysis.
"""

from repro.cache.core import (
    CacheConfig,
    CacheStats,
    CompiledQuery,
    LRUCache,
    QueryCache,
    cache_env_enabled,
    resolve_cache,
)
from repro.cache.invalidation import Dependencies, analyze_dependencies
from repro.cache.keys import canonical_term, literal_skeleton, param_names
from repro.cache.prepared import Prepared

__all__ = [
    "CacheConfig",
    "CacheStats",
    "CompiledQuery",
    "Dependencies",
    "LRUCache",
    "Prepared",
    "QueryCache",
    "analyze_dependencies",
    "cache_env_enabled",
    "canonical_term",
    "literal_skeleton",
    "param_names",
    "resolve_cache",
]
