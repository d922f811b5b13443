"""Closure compilation (JIT) of calculus expressions on the hot path.

Section 3's normalization leaves only small first-order terms in
operator positions, so they compile cleanly to Python closures —
:mod:`repro.jit.compiler` translates them, :mod:`repro.jit.plan`
attaches the closures to physical plan nodes at plan-build time, and
the executor's hot loops call them instead of re-walking ASTs per row.
See ``docs/JIT.md`` for what compiles, what falls back, and the
interaction with cache/parallel/verify.

Off by default; enable with ``Database(jit=...)``,
``Database.enable_jit()`` or ``REPRO_JIT=1``.
"""

from repro.jit.compiler import CompiledFn, compile_term
from repro.jit.config import (
    JITConfig,
    config_from_env,
    jit_env_enabled,
    resolve_jit,
)
from repro.jit.plan import (
    compile_node,
    plan_fallback_constructs,
    precompile_plan,
)
from repro.jit.runtime import Runtime

__all__ = [
    "CompiledFn",
    "JITConfig",
    "Runtime",
    "compile_node",
    "compile_term",
    "config_from_env",
    "jit_env_enabled",
    "plan_fallback_constructs",
    "precompile_plan",
    "resolve_jit",
]
