"""The rewrite-soundness verifier and its enablement switches.

When verification is on, the normalization engine and the algebra
optimizer snapshot every rule fire and hand the before/after pair to
:class:`RewriteVerifier`, which runs the invariant catalog from
:mod:`repro.analysis.invariants` plus an alpha-invariance probe, and
raises :class:`~repro.errors.VerificationError` on the first unsound
rewrite.

Verification is off by default (no snapshots, no checks); on or off, a
sound pipeline returns the same values. Three switches,
in precedence order:

1. an explicit ``verify=`` argument to ``normalize_with_trace`` /
   ``Database.run``;
2. the :func:`verification` context manager (used by ``Database.run``
   to cover the whole compile and execute of one query), which holds
   for the thread that entered it;
3. the ``REPRO_VERIFY=1`` environment variable (the ``verify`` row of
   CI's mode matrix).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.calculus.ast import Term
from repro.calculus.traversal import alpha_equal
from repro.env import env_flag
from repro.errors import VerificationError
from repro.span import span_of
from repro.types.types import Type

from repro.analysis.dataflow import alpha_rename
from repro.analysis.invariants import (
    Violation,
    check_coherence,
    check_effects,
    check_scope,
    check_types,
)

# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------

#: Per-thread override installed by :func:`verification` (``override``
#: unset or ``None`` defers to the environment): one thread's block never
#: switches verification for a query another thread is compiling.
_OVERRIDE = threading.local()


def verification_enabled() -> bool:
    """Is rewrite verification currently on, for this thread?"""
    override = getattr(_OVERRIDE, "override", None)
    if override is not None:
        return override
    return env_flag("REPRO_VERIFY")


@contextmanager
def verification(enabled: Optional[bool]) -> Iterator[None]:
    """Force verification on or off for the dynamic extent of the block,
    on the calling thread.

    ``verification(None)`` is a no-op (the environment keeps deciding),
    so callers can thread an optional ``verify=`` parameter through
    without special-casing.
    """
    saved = getattr(_OVERRIDE, "override", None)
    if enabled is not None:
        _OVERRIDE.override = enabled
    try:
        yield
    finally:
        _OVERRIDE.override = saved


def resolve_verify(verify: Optional[bool]) -> bool:
    """An explicit flag wins; ``None`` falls back to the global switch."""
    return verification_enabled() if verify is None else verify


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


class RewriteVerifier:
    """Checks every rule fire against the invariant catalog.

    ``type_env`` optionally supplies known types for free variables
    (tightening the type-preservation check); ``alpha_check`` controls
    the re-application probe, which costs one extra rule application
    per fire.
    """

    def __init__(
        self,
        type_env: Optional[dict[str, Type]] = None,
        alpha_check: bool = True,
    ) -> None:
        self.type_env = type_env
        self.alpha_check = alpha_check
        #: Fires checked so far — lets callers report verification coverage.
        self.checked = 0

    def check_rewrite(self, rule: Any, before: Term, after: Term) -> None:
        """Raise :class:`VerificationError` if ``rule``'s fire was unsound."""
        name = getattr(rule, "name", str(rule))
        violations: list[Violation] = []
        violations += check_scope(before, after)
        violations += check_effects(before, after)
        violations += check_coherence(before, after)
        violations += check_types(before, after, self.type_env)
        if self.alpha_check and hasattr(rule, "apply"):
            violations += self._check_alpha(rule, before, after)
        self.checked += 1
        registry = _telemetry_registry()
        if registry is not None:
            from repro.obs.telemetry.instrument import families

            recorded = families(registry)
            recorded.verifier_checks.inc(rule=name)
            for violation in violations:
                recorded.verifier_violations.inc(rule=name, invariant=violation.invariant)
        if violations:
            raise VerificationError(
                name, before, after, violations, span=span_of(before)
            )

    def _check_alpha(self, rule: Any, before: Term, after: Term) -> list[Violation]:
        """Re-apply the rule to a freshened alpha-variant of the input.

        A correct rule is insensitive to the spelling of bound
        variables: it must still fire, and produce an alpha-equivalent
        result. A rule that captures a variable (naive substitution)
        or keys on concrete bound names fails this probe.
        """
        renamed = alpha_rename(before)
        try:
            redone = rule.apply(renamed)
        except Exception as err:  # noqa: BLE001 - any crash is a finding
            return [
                Violation(
                    "alpha",
                    f"rule crashed on an alpha-variant of its input: {err!r}",
                )
            ]
        if redone is None:
            return [
                Violation(
                    "alpha",
                    "rule no longer fires on an alpha-variant of its input "
                    "(matching depends on bound-variable names)",
                )
            ]
        if not alpha_equal(redone, after):
            return [
                Violation(
                    "alpha",
                    "result differs on an alpha-variant of the input: "
                    "bound-variable capture or name dependence",
                )
            ]
        return []


def _telemetry_registry():
    """The active telemetry registry, or None (lazy: the verifier must
    not import the telemetry package when telemetry was never loaded)."""
    import sys

    registry_mod = sys.modules.get("repro.obs.telemetry.registry")
    if registry_mod is None:
        return None
    return registry_mod.current_registry()


# ---------------------------------------------------------------------------
# Parallel-execution equivalence
# ---------------------------------------------------------------------------


def check_parallel_equivalence(plan: Any, serial_value: Any, parallel_value: Any) -> None:
    """Verify a parallel execution produced the serial result.

    Called by :class:`repro.parallel.ParallelExecutor` when verification
    is on: the plan is re-run serially and both values compared. Floats
    are compared approximately — parallel partial folds reassociate the
    monoid ``merge``, and float addition is associative only up to
    rounding, so a last-bit difference on a ``sum`` of floats is the
    expected cost of reassociation, not an unsound execution. Every
    other difference raises :class:`~repro.errors.VerificationError`.
    """
    if _values_equivalent(serial_value, parallel_value):
        return
    raise VerificationError(
        "parallel-equivalence",
        serial_value,
        parallel_value,
        [
            Violation(
                "parallel-equivalence",
                "parallel execution differs from the serial fold "
                f"(plan root: {type(plan).__name__})",
            )
        ],
    )


def _values_equivalent(a: Any, b: Any) -> bool:
    """Structural equality with float tolerance (see above)."""
    import math

    if a == b:
        # Fast path; also covers hash-based containers whose float
        # members happen to agree exactly.
        return True
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        # Two NaNs agree, though neither ``==`` nor ``isclose`` says so.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) or (a != a and b != b)
    from repro.values import Bag, OrderedSet, Record, Vector, canonical_order

    if isinstance(a, (tuple, list, OrderedSet)) and isinstance(
        b, (tuple, list, OrderedSet)
    ):
        return len(a) == len(b) and all(
            _values_equivalent(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, (frozenset, Bag)) and isinstance(b, (frozenset, Bag)):
        # Canonical order lines elements up so float members still get
        # the tolerant element-wise comparison.
        xs = canonical_order(a)
        ys = canonical_order(b)
        return len(xs) == len(ys) and all(
            _values_equivalent(x, y) for x, y in zip(xs, ys)
        )
    if isinstance(a, Record) and isinstance(b, Record):
        return set(a.keys()) == set(b.keys()) and all(
            _values_equivalent(a[k], b[k]) for k in a.keys()
        )
    if isinstance(a, Vector) and isinstance(b, Vector):
        return len(a) == len(b) and all(
            _values_equivalent(x, y) for x, y in zip(a.to_list(), b.to_list())
        )
    return False
