"""Pass 2 — scope analysis: unbound, shadowed and unused variables.

- ``QL003`` (error) — a variable occurs free that neither a binder nor
  the database (extents and views; a function is called) defines; carries
  a did-you-mean hint built from what *is* in scope;
- ``QL004`` (warning) — a binder reuses a name already in scope, which
  in a comprehension silently hides the outer binding;
- ``QL005`` (warning) — a generator binds a variable that no later
  qualifier and no head ever reads: dead iteration (and, in a bag
  comprehension, a cardinality multiplier). Prefix the variable with
  ``_`` to state the intent.

Translator-invented variables (``w~3``) are skipped throughout — the
user never wrote them.
"""

from __future__ import annotations

from repro.calculus.ast import Comprehension, Generator, Term, Var
from repro.analysis.dataflow import use_count
from repro.calculus.shape import SHAPES
from repro.errors import did_you_mean
from repro.lint.base import LintContext, is_fresh_name
from repro.lint.diagnostics import Diagnostic, make
from repro.span import Span, span_of

name = "scope"


def run(term: Term, ctx: LintContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    _walk(term, ctx.names, frozenset(), ctx, diagnostics)
    return diagnostics


def _check_binder(
    var_name: str,
    span: Span | None,
    bound: frozenset[str],
    known: frozenset[str],
    diagnostics: list[Diagnostic],
) -> None:
    if is_fresh_name(var_name):
        return
    if var_name in bound or var_name in known:
        what = "an outer binding" if var_name in bound else "a database name"
        diagnostics.append(
            make(
                "QL004",
                f"variable {var_name!r} shadows {what} of the same name",
                span,
            )
        )


def _walk(
    term: Term,
    known: frozenset[str],
    bound: frozenset[str],
    ctx: LintContext,
    diagnostics: list[Diagnostic],
) -> None:
    if isinstance(term, Var):
        if term.name.startswith("$"):
            # a prepared-statement parameter — bound at execution time
            return
        if term.name not in bound and term.name not in known and not is_fresh_name(term.name):
            candidates = sorted(n for n in (bound | known) if not is_fresh_name(n))
            suggestion = did_you_mean(term.name, candidates)
            hint = f"did you mean {suggestion!r}?" if suggestion else None
            diagnostics.append(
                make("QL003", f"unbound variable {term.name!r}", span_of(term), hint)
            )
        return
    shape = SHAPES[type(term)]
    kids = shape.kids(term)
    if shape.scopes is None:
        for child in kids:
            _walk(child, known, bound, ctx, diagnostics)
        return
    scopes = [bound]  # scopes[n]: what is bound under the node's first n binders
    for var_name, (kind, site) in zip(shape.binders(term), shape.sites(term)):
        _check_binder(var_name, span_of(site), scopes[-1], known, diagnostics)
        if kind == "generator" and not _used_later(term, site, var_name):
            diagnostics.append(
                make(
                    "QL005",
                    f"generator variable {var_name!r} is never used; "
                    "the iteration is dead (prefix with '_' if intended)",
                    span_of(site),
                )
            )
        scopes.append(scopes[-1] | {var_name})
    for child, n in zip(kids, shape.scopes(term)):
        _walk(child, known, scopes[n], ctx, diagnostics)


def _used_later(term: Comprehension, qual: Generator, var_name: str) -> bool:
    """Does anything after the qualifier ``qual`` read ``var_name``?

    Skips the check for fresh or underscore-prefixed names. Built by
    forming the tail of the comprehension (same monoid, so sort keys
    count as uses) and counting free occurrences with the dataflow
    layer — later binders of the same name correctly shadow.
    """
    if is_fresh_name(var_name) or var_name.startswith("_"):
        return True
    index = next(i for i, q in enumerate(term.qualifiers) if q is qual)
    tail = Comprehension(term.monoid, term.head, term.qualifiers[index + 1 :])
    return use_count(tail, var_name) > 0
