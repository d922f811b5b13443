"""The linter: parse, translate, run every pass, batch the findings.

Unlike the evaluation path — which stays fail-fast — the linter never
raises on a bad query: syntax errors become ``QL000`` diagnostics,
every pass runs to completion, and the caller gets one sorted,
de-duplicated list of :class:`Diagnostic` objects.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.calculus.ast import Term
from repro.db.catalog import Catalog
from repro.errors import OQLSyntaxError, ReproError, TranslationError
from repro.lint import dataflow, performance, scope, semantics, wellformed
from repro.lint.base import LintContext
from repro.lint.diagnostics import Diagnostic, make, sort_diagnostics
from repro.normalize.engine import normalize
from repro.oql.parser import parse
from repro.oql.translate import Translator
from repro.span import span_of
from repro.types.schema import Schema

#: The default pipeline, in documentation order.
DEFAULT_PASSES = (wellformed.run, scope.run, semantics.run, performance.run, dataflow.run)


class Linter:
    """A multi-pass static analyzer for OQL queries and calculus terms.

    Names resolve in one catalog (a database's; by default an empty one
    over ``schema``). Nothing is written to a linter after construction,
    so one may be shared by concurrent callers.

    >>> from repro.db import travel_schema
    >>> diags = Linter(travel_schema()).lint_source(
    ...     "select c.name from c in Citeis")
    >>> [d.code for d in diags]
    ['QL003']
    >>> diags[0].hint
    "did you mean 'Cities'?"
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        catalog: Optional[Catalog] = None,
        passes: Sequence[Callable] = DEFAULT_PASSES,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog(schema)
        self.passes = tuple(passes)

    # -- entry points ---------------------------------------------------------

    def front_end(self, source: str) -> tuple[Optional[Term], list[Diagnostic]]:
        """Parse and translate ``source``, once: its calculus term, or
        None beside the single ``QL000`` the failure becomes."""
        try:
            term = Translator(self.catalog.registry.schema, self.catalog).translate(parse(source))
            return term, []
        except (OQLSyntaxError, TranslationError) as err:
            return None, [front_end_diagnostic(err)]

    def lint_source(self, source: str) -> list[Diagnostic]:
        """Lint one OQL query given as text.

        Parse/translate failures produce a single ``QL000`` diagnostic;
        otherwise the translated term goes through every pass.
        """
        term, failure = self.front_end(source)
        return failure if term is None else self.lint_term(term)

    def lint_term(
        self, term: Term, normal_form: Optional[Callable[[], Term]] = None
    ) -> list[Diagnostic]:
        """Run every pass over an already-translated calculus term.

        ``normal_form`` is a thunk from a caller that computes it anyway
        (``Database.compile``); without one, ``normalize(term)`` on demand.
        """
        return self.run(self.context(term, normal_form))

    def context(self, term: Term, normal_form: Optional[Callable[[], Term]] = None) -> LintContext:
        """The per-query context :meth:`run` lints ``term`` in."""
        return LintContext(self.catalog, term, normal_form or (lambda: normalize(term)))

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        """Every pass over ``ctx.term``, the findings sorted and deduplicated."""
        term = ctx.term
        findings: list[Diagnostic] = []
        for lint_pass in self.passes:
            try:
                findings.extend(lint_pass(term, ctx))
            except ReproError as err:  # a pass must never sink the batch
                findings.append(
                    make("QL006", f"analysis failed: {err}", span_of(term))
                )
        return sort_diagnostics(_dedupe(findings))


def front_end_diagnostic(err: ReproError) -> Diagnostic:
    """The ``QL000`` a parse or translate failure is reported as (minus a
    syntax error's ``at line L, column C`` suffix: the span carries it)."""
    if isinstance(err, OQLSyntaxError):
        return make("QL000", str(err).removesuffix(f" at {err.span}"), err.span)
    return make("QL000", str(err))


def _dedupe(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Drop repeated findings at the same source location.

    Two passes reporting the same code at the same span is one finding,
    even when they word it differently — the first (pipeline-order)
    message wins. Group-by translation also legitimately duplicates
    qualifier lists into the key-set and partition comprehensions;
    without this, each finding there would appear twice. Span-less
    diagnostics fall back to the message as the distinguishing key.
    """
    seen: set[tuple] = set()
    out: list[Diagnostic] = []
    for diag in diagnostics:
        if diag.span is not None:
            key = (diag.code, diag.span)
        else:
            key = (diag.code, diag.message)
        if key not in seen:
            seen.add(key)
            out.append(diag)
    return out


def lint_oql(
    source: str,
    schema: Optional[Schema] = None,
    catalog: Optional[Catalog] = None,
) -> list[Diagnostic]:
    """One-shot convenience: lint OQL text against an optional schema."""
    return Linter(schema, catalog).lint_source(source)
