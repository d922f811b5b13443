"""Exception hierarchy for the monoid calculus library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class. Each pipeline stage has its own
subclass, which keeps failures attributable: a parse failure is a
:class:`OQLSyntaxError`, a C/I violation is a :class:`WellFormednessError`,
and so on.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.span import Span


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MonoidError(ReproError):
    """A monoid was constructed or used inconsistently."""


class UnknownMonoidError(MonoidError):
    """A monoid name was looked up that is not in the registry."""

    def __init__(self, name: str, known: list[str] | None = None) -> None:
        self.name = name
        self.known = known or []
        hint = f" (known: {', '.join(sorted(self.known))})" if self.known else ""
        super().__init__(f"unknown monoid {name!r}{hint}")


class WellFormednessError(MonoidError):
    """A homomorphism or comprehension violates the C/I restriction.

    The paper's central static check: ``hom[N -> M]`` is well formed only
    when ``props(N)`` is a subset of ``props(M)``. For example a
    homomorphism from ``set`` (commutative and idempotent) to ``sum``
    (commutative but not idempotent) is rejected, which is what prevents
    the classic ``1 = hom[set->sum](\\x.1) {a}`` inconsistency.
    """


class CalculusError(ReproError):
    """A calculus term is malformed (arity, unbound variable, bad field)."""


class UnboundVariableError(CalculusError):
    """A variable occurs free where a binding was required.

    When the raiser supplies the names that *are* in scope, the message
    carries a did-you-mean hint (mirroring :class:`UnknownMonoidError`):

    >>> raise UnboundVariableError("Citeis", candidates=["Cities", "Hotels"])
    Traceback (most recent call last):
    ...
    repro.errors.UnboundVariableError: unbound variable 'Citeis' (did you mean 'Cities'?)
    """

    def __init__(self, name: str, candidates: Optional[Iterable[str]] = None) -> None:
        self.name = name
        self.candidates = sorted(set(candidates or ()))
        self.suggestion = did_you_mean(name, self.candidates)
        hint = f" (did you mean {self.suggestion!r}?)" if self.suggestion else ""
        super().__init__(f"unbound variable {name!r}{hint}")


def did_you_mean(name: str, candidates: Sequence[str]) -> Optional[str]:
    """The closest in-scope candidate to ``name``, if any is close."""
    matches = get_close_matches(name, candidates, n=1, cutoff=0.6)
    return matches[0] if matches else None


class EvaluationError(ReproError):
    """The reference evaluator hit a dynamic error (bad operand, etc.)."""


class TypingError(ReproError):
    """Static type inference or checking failed."""


class SchemaError(ReproError):
    """A schema declaration is inconsistent (duplicate class, bad extent)."""


class OQLError(ReproError):
    """Base class for OQL front-end failures."""


class OQLSyntaxError(OQLError):
    """The OQL text could not be tokenized or parsed.

    Always carries a source position: raise-sites pass either a
    :class:`~repro.span.Span` or a line/column pair (positions default
    to ``1, 1`` rather than the old ``0`` sentinel, so the location
    suffix is never silently suppressed).
    """

    def __init__(
        self,
        message: str,
        line: int = 1,
        column: int = 1,
        span: "Optional[Span]" = None,
    ) -> None:
        if span is None:
            from repro.span import point_span

            span = point_span(max(line, 1), max(column, 1))
        self.span = span
        self.line = span.line
        self.column = span.column
        super().__init__(f"{message} at {span}")


class TranslationError(OQLError):
    """An OQL construct could not be mapped into the calculus."""


class NormalizationError(ReproError):
    """The rewrite engine detected an internal inconsistency."""


class VerificationError(ReproError):
    """A rewrite or plan transformation violated a soundness invariant.

    Raised by :mod:`repro.analysis` when verification is enabled
    (``Database.run(verify=True)`` or ``REPRO_VERIFY=1``). Carries the
    offending rule name, the pretty-printed before/after terms (or
    plans), the list of violated invariants, and the source span of the
    rewritten term when one is attached.
    """

    def __init__(
        self,
        rule: str,
        before,
        after=None,
        violations: Sequence = (),
        span: "Optional[Span]" = None,
    ) -> None:
        self.rule = rule
        self.before = before
        self.after = after
        self.violations = list(violations)
        self.span = span
        summary = "; ".join(str(v) for v in self.violations) or "invariant violated"
        lines = [f"unsound rewrite by {rule}: {summary}"]
        lines.append(f"  before: {before}")
        if after is not None:
            lines.append(f"  after:  {after}")
        if span is not None:
            lines.append(f"  at {span}")
        super().__init__("\n".join(lines))


class PlanError(ReproError):
    """Algebra plan construction or execution failed."""


class ObjectStoreError(ReproError):
    """An object operation (deref, assign) used an invalid OID."""


class VectorError(ReproError):
    """A vector comprehension or vector value operation is invalid."""


class DatabaseError(ReproError):
    """The database facade was misused (unknown extent, bad load)."""


class ResourceLimitError(ReproError):
    """A query needed more than the system can give it: so far, a term
    nested deeper than Python's recursion limit lets a stage walk."""


class TelemetryError(ReproError):
    """The metrics registry was misused: a metric the catalog lacks, a
    wrong kind or label set, a bad quantile, or an invalid
    ``Database(telemetry=...)`` argument."""


class LintError(ReproError):
    """Strict mode rejected a query because the linter found errors.

    ``diagnostics`` holds every :class:`repro.lint.Diagnostic` the
    analyzer produced (warnings included); the message summarizes the
    error-severity ones.
    """

    def __init__(self, diagnostics: Sequence) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if getattr(d, "severity", "") == "error"]
        head = str(errors[0]) if errors else str(self.diagnostics[0])
        extra = len(errors) - 1
        suffix = f" (and {extra} more error{'s' if extra > 1 else ''})" if extra > 0 else ""
        super().__init__(f"lint failed: {head}{suffix}")
