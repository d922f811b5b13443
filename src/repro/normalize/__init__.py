"""Normalization of comprehensions — Table 3 of the paper."""

from repro.normalize.engine import (
    DEFAULT_MAX_STEPS,
    is_canonical,
    is_canonical_comprehension,
    is_simple_path,
    normalize,
    normalize_with_trace,
)
from repro.normalize.rules import DEFAULT_RULES, RULES_BY_NAME, Rule
from repro.normalize.trace import NormalizationStep, NormalizationTrace

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_RULES",
    "RULES_BY_NAME",
    "NormalizationStep",
    "NormalizationTrace",
    "Rule",
    "is_canonical",
    "is_canonical_comprehension",
    "is_simple_path",
    "normalize",
    "normalize_with_trace",
]
