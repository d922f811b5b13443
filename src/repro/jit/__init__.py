"""Compilation of canonical plans to Python: the executor.

Section 3's normalization leaves generators over simple paths and small
first-order terms in operator positions, a form that translates straight
to target-language code: :mod:`repro.jit.compiler` emits the terms as
Python expressions and :mod:`repro.jit.plan` one function per plan shape
around them, which is how the executor runs every plan. See ``docs/JIT.md``.
"""

from dataclasses import dataclass

from repro.jit.plan import fused, pipeline_source, precompile_plan
from repro.jit.runtime import Runtime


@dataclass
class JITConfig:
    """What ``Database(jit=...)`` and ``Executor(jit=...)`` still accept;
    it has no fields and changes nothing."""


__all__ = ["JITConfig", "Runtime", "fused", "pipeline_source", "precompile_plan"]
