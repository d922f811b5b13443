"""Configuration and enablement for the partition-parallel engine.

Follows the opt-in convention every mode shares (DESIGN.md, "Modes"):
parallelism is **off by default**, and on or off a query returns the
same value and raises the same error. It turns on via
``Database(parallel=...)``,
``Database.enable_parallel()`` or the ``REPRO_PARALLEL`` environment
flag (an integer value sets the worker count: ``REPRO_PARALLEL=8``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

from repro.env import env_flag
from repro.errors import DatabaseError


def parallel_env_enabled() -> bool:
    """Is the ``REPRO_PARALLEL`` environment flag set (and not falsey)?"""
    return env_flag("REPRO_PARALLEL")


@dataclass
class ParallelConfig:
    """Tuning knobs for one :class:`~repro.parallel.ParallelExecutor`.

    ``max_workers`` bounds the thread pool; ``min_partition_rows`` is
    the scan size below which partitioning is not worth the thread
    hand-off and the engine silently stays serial (set it to 0 in tests
    to force tiny extents through the parallel path). ``morsel_size``
    fixes the rows-per-partition explicitly; ``None`` divides the scan
    evenly across ``max_workers``. Verify mode (``REPRO_VERIFY`` /
    :func:`repro.analysis.verifier.verification`) re-runs every parallel
    execution serially and compares.
    """

    max_workers: int = 4
    min_partition_rows: int = 64
    morsel_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise DatabaseError("parallel max_workers must be at least 1")
        if self.min_partition_rows < 0:
            raise DatabaseError("parallel min_partition_rows must be >= 0")
        if self.morsel_size is not None and self.morsel_size < 1:
            raise DatabaseError("parallel morsel_size must be at least 1")


def config_from_env() -> ParallelConfig:
    """A :class:`ParallelConfig` from ``REPRO_PARALLEL``.

    A bare truthy value (``1``, ``true``, ``on``) gives the defaults; an
    integer above 1 additionally sets ``max_workers``.
    """
    raw = os.environ.get("REPRO_PARALLEL", "").strip()
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers > 1:
        return ParallelConfig(max_workers=workers)
    return ParallelConfig()


def resolve_parallel(parallel: Any) -> Optional[ParallelConfig]:
    """Normalize ``Database(parallel=...)`` to a config or None.

    ``None`` defers to the ``REPRO_PARALLEL`` environment flag (unset
    or falsey → parallelism off, the default).
    ``True``/``False`` force it; an ``int`` sets the worker count; a
    :class:`ParallelConfig` is used as-is.
    """
    if parallel is None:
        return config_from_env() if parallel_env_enabled() else None
    if parallel is False:
        return None
    if parallel is True:
        return ParallelConfig()
    if isinstance(parallel, int):
        return ParallelConfig(max_workers=parallel)
    if isinstance(parallel, ParallelConfig):
        return parallel
    raise DatabaseError(
        "parallel must be None, a bool, an int worker count or a "
        f"ParallelConfig, got {type(parallel).__name__}"
    )
