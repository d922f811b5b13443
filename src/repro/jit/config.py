"""Configuration and enablement for the plan-compiling JIT.

Follows the opt-in convention every mode shares (DESIGN.md, "Modes"):
the JIT is **off by default**, and on or off a query returns the same
value and raises the same error. It turns on via ``Database(jit=...)``,
``Database.enable_jit()`` or the ``REPRO_JIT`` environment flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.env import env_flag
from repro.errors import DatabaseError


def jit_env_enabled() -> bool:
    """Is the ``REPRO_JIT`` environment flag set (and not falsey)?"""
    return env_flag("REPRO_JIT")


@dataclass
class JITConfig:
    """Tuning knobs for the plan compiler.

    ``verify`` controls the per-row differential check (every expression
    of the generated function re-evaluated on the reference interpreter,
    results compared): ``None`` defers to ``REPRO_VERIFY`` /
    :func:`repro.analysis.verifier.verification`, matching the rewrite
    verifier's convention; ``True``/``False`` force it for executors
    built from this config.
    """

    verify: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.verify is not None and not isinstance(self.verify, bool):
            raise DatabaseError("jit verify must be None or a bool")


def resolve_jit(jit: Any) -> Optional[JITConfig]:
    """Normalize ``Database(jit=...)`` to a config or None.

    ``None`` defers to the ``REPRO_JIT`` environment flag (unset or
    falsey → JIT off, the default).
    ``True``/``False`` force it; a :class:`JITConfig` is used as-is.
    """
    if jit is None:
        return JITConfig() if jit_env_enabled() else None
    if jit is False:
        return None
    if jit is True:
        return JITConfig()
    if isinstance(jit, JITConfig):
        return jit
    raise DatabaseError(
        f"jit must be None, a bool or a JITConfig, got {type(jit).__name__}"
    )
