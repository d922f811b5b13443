"""The normalization engine: apply Table 3 rules to a fixpoint.

Strategy: repeatedly locate the outermost-leftmost position where any
rule applies (rules are tried in priority order at each node, pre-order
over the term, a node's ``sorted[f]`` key and vector size included),
rewrite, record a trace step, and continue until no rule applies
anywhere or the step budget is exhausted. The default budget is
generous; the rule set is terminating on pure terms (each rule either
strictly shrinks the term or eliminates a construct no other rule
reintroduces), so hitting the budget signals a bug and raises.

One pass per step: a rule names the node classes it can fire on
(``Rule.heads``), the engine indexes a rule tuple by node class once
(:func:`_rules_by_head`) and :func:`_step` tries at each node only the
rules whose head it is -- the same rules, at the same nodes, in the same
order as trying all of them, minus the calls that could only return
``None``. The descent reads :data:`repro.calculus.shape.SHAPES`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

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
    rules_at = _rules_by_head(tuple(rules))
    trace = NormalizationTrace(term)
    current = term
    for _ in range(max_steps):
        rewritten = _step(current, rules_at, trace, verifier)
        if rewritten is None:
            return current, trace
        current = rewritten
    raise NormalizationError(
        f"normalization exceeded {max_steps} steps; last term: {current}"
    )


class _RulesByHead(dict):
    """Node class -> the rules that can fire on it, in priority order
    (filled in per class on first sight; a rule with ``heads = None``, or
    a duck-typed one with no ``heads`` at all, is listed under every
    class)."""

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        super().__init__()
        self.rules = rules

    def __missing__(self, cls: type) -> tuple[Rule, ...]:
        found = []
        for rule in self.rules:
            heads = getattr(rule, "heads", None)
            if heads is None or issubclass(cls, heads):
                found.append(rule)
        rules = self[cls] = tuple(found)
        return rules


#: One index per rule tuple in use (the default and planning sets, a
#: test's or a user's own); bounded so throwaway tuples do not pile up.
_rules_by_head = lru_cache(maxsize=32)(_RulesByHead)


def _step(
    term: Term,
    rules_at: _RulesByHead,
    trace: NormalizationTrace,
    verifier: Optional[RewriteVerifier] = None,
) -> Optional[Term]:
    """One outermost-leftmost rewrite, or None if in normal form."""
    cls = type(term)
    for rule in rules_at[cls]:
        result = rule.apply(term)
        if result is not None:
            if verifier is not None:
                verifier.check_rewrite(rule, term, result)
            trace.record(rule.name, term, result)
            return result
    shape = SHAPES[cls]
    kids = shape.kids(term)
    for i, kid in enumerate(kids):
        new = _step(kid, rules_at, trace, verifier)
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
    """True when no rule applies at any node ``children`` lists."""
    return _step(term, _rules_by_head(tuple(rules)), NormalizationTrace(term)) is None


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
