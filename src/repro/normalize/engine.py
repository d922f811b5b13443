"""The normalization engine: apply Table 3 rules to a fixpoint.

Strategy: repeatedly locate the outermost-leftmost position where any
rule applies (rules are tried in priority order at each node, pre-order
over the term), rewrite, record a trace step, and continue until no
rule applies anywhere or the step budget is exhausted. The default
budget is generous; the rule set is terminating on pure terms (each
rule either strictly shrinks the term or eliminates a construct no
other rule reintroduces), so hitting the budget signals a bug and
raises.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.calculus.ast import Bind, Comprehension, Generator, Proj, Term, Var
from repro.calculus.shape import SHAPES
from repro.analysis.verifier import RewriteVerifier, resolve_verify
from repro.errors import NormalizationError
from repro.normalize.rules import DEFAULT_RULES, Rule
from repro.normalize.trace import NormalizationTrace

#: Safety budget. Real queries normalize in tens of steps; anything in
#: the tens of thousands indicates non-termination.
DEFAULT_MAX_STEPS = 20_000


def normalize(
    term: Term,
    rules: Sequence[Rule] = DEFAULT_RULES,
    max_steps: int = DEFAULT_MAX_STEPS,
    verify: Optional[bool] = None,
) -> Term:
    """Normalize ``term`` and return the canonical form.

    ``verify=True`` checks every rule fire against the soundness
    invariants (see :mod:`repro.analysis`); ``None`` defers to the
    global switch (``REPRO_VERIFY`` / the ``verification`` context).

    >>> from repro.calculus import alpha_equal, comp, gen, var, const
    >>> inner = comp("set", var("x"), [gen("x", var("db"))])
    >>> outer = comp("set", var("y"), [gen("y", inner)])
    >>> alpha_equal(normalize(outer), inner)
    True
    """
    result, _ = normalize_with_trace(term, rules, max_steps, verify)
    return result


def normalize_with_trace(
    term: Term,
    rules: Sequence[Rule] = DEFAULT_RULES,
    max_steps: int = DEFAULT_MAX_STEPS,
    verify: Optional[bool] = None,
) -> tuple[Term, NormalizationTrace]:
    """Normalize and return ``(normal_form, trace)``.

    With verification on, each rewrite step is checked before it is
    accepted and :class:`~repro.errors.VerificationError` is raised on
    the first unsound fire.
    """
    verifier = RewriteVerifier() if resolve_verify(verify) else None
    trace = NormalizationTrace(term)
    current = term
    for _ in range(max_steps):
        rewritten = _rewrite_once(current, rules, trace, verifier)
        if rewritten is None:
            return current, trace
        current = rewritten
    raise NormalizationError(
        f"normalization exceeded {max_steps} steps; last term: {current}"
    )


def _rewrite_once(
    term: Term,
    rules: Sequence[Rule],
    trace: NormalizationTrace,
    verifier: Optional[RewriteVerifier] = None,
) -> Optional[Term]:
    """One outermost-leftmost rewrite, or None if in normal form."""
    for rule in rules:
        result = rule.apply(term)
        if result is not None:
            if verifier is not None:
                verifier.check_rewrite(rule, term, result)
            trace.record(rule.name, term, result)
            return result
    return _rewrite_in_children(term, rules, trace, verifier)


def _rewrite_in_children(
    term: Term,
    rules: Sequence[Rule],
    trace: NormalizationTrace,
    verifier: Optional[RewriteVerifier] = None,
) -> Optional[Term]:
    """Try to rewrite exactly one child subterm; rebuild if one changed."""

    def visit(child: Term) -> Optional[Term]:
        return _rewrite_once(child, rules, trace, verifier)

    return _rebuild_first(term, visit)


def _rebuild_first(
    term: Term, visit: Callable[[Term], Optional[Term]]
) -> Optional[Term]:
    """Apply ``visit`` to children left-to-right; rebuild on first change.

    Terms inside a monoid reference (a ``sorted[f]`` key, a vector size)
    are not visited: the rules leave them as written.
    """
    shape = SHAPES[type(term)]
    kids = shape.kids(term)
    first = shape.monoid_kids(term) if shape.monoid_kids else 0
    for i in range(first, len(kids)):
        new = visit(kids[i])
        if new is not None:
            return shape.build(
                term, kids[:i] + (new,) + kids[i + 1 :], shape.binders(term)
            )
    return None


# ---------------------------------------------------------------------------
# Canonical form predicates
# ---------------------------------------------------------------------------


def is_simple_path(term: Term) -> bool:
    """True for ``v``, ``v.a.b`` ... — the canonical generator sources."""
    while isinstance(term, Proj):
        term = term.base
    return isinstance(term, Var)


def is_canonical(term: Term, rules: Sequence[Rule] = DEFAULT_RULES) -> bool:
    """True when no rule applies anywhere in ``term``."""
    trace = NormalizationTrace(term)
    return _rewrite_once(term, rules, trace) is None


def is_canonical_comprehension(term: Term) -> bool:
    """The paper's canonical form: a comprehension whose generators all
    range over simple paths, with no bindings left."""
    if not isinstance(term, Comprehension):
        return False
    for qual in term.qualifiers:
        if isinstance(qual, Bind):
            return False
        if isinstance(qual, Generator) and not is_simple_path(qual.source):
            return False
    return True
