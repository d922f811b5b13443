"""Compilation (JIT) of canonical plans to Python.

Section 3's normalization leaves generators over simple paths and small
first-order terms in operator positions, a form that translates straight
to target-language code: :mod:`repro.jit.compiler` emits the terms as
Python expressions, :mod:`repro.jit.plan` emits one function per plan
around them at plan-build time, and the executor calls the function
instead of pulling rows through its operator loops (an execution that
needs operator boundaries — a timed or a partitioned one — runs the loops
exactly as with the jit off).
See ``docs/JIT.md`` for the generated code, what falls back, and the
interaction with cache/parallel/verify.

Off by default; enable with ``Database(jit=...)``,
``Database.enable_jit()`` or ``REPRO_JIT=1``.
"""

from repro.jit.config import JITConfig, jit_env_enabled, resolve_jit
from repro.jit.plan import fused, pipeline_source, precompile_plan
from repro.jit.runtime import Runtime

__all__ = [
    "JITConfig",
    "Runtime",
    "fused",
    "jit_env_enabled",
    "pipeline_source",
    "precompile_plan",
    "resolve_jit",
]
