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
2. the :class:`verification` context manager (used by ``Database.run``
   to cover the whole compile and execute of one query), which holds
   for the thread that entered it;
3. the ``REPRO_VERIFY=1`` environment variable (the ``verify`` row of
   CI's mode matrix).
"""

from __future__ import annotations

import threading
from typing import Any, Optional

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


class verification:  # lower case: callers write ``with verification(on):``
    """Force verification on or off for the dynamic extent of the block,
    on the calling thread.

    ``verification(None)`` keeps what an enclosing block set; outside any
    block it reads the environment once, on entry, and holds that for the
    block, so a query (which enters one) reads ``REPRO_VERIFY`` once, and
    callers can thread an optional ``verify=`` parameter through without
    special-casing. A class, not a ``@contextmanager`` generator:
    every query enters one, and a generator frame costs it more than
    the switch itself. Like such a generator, an instance is entered once.
    """

    __slots__ = ("enabled", "saved")

    def __init__(self, enabled: Optional[bool]) -> None:
        self.enabled = enabled

    def __enter__(self) -> None:
        saved = self.saved = getattr(_OVERRIDE, "override", None)
        enabled = self.enabled
        if enabled is None:
            enabled = env_flag("REPRO_VERIFY") if saved is None else saved
        _OVERRIDE.override = enabled

    def __exit__(self, *exc: object) -> None:
        _OVERRIDE.override = self.saved


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
