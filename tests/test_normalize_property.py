"""Property-based soundness of normalization and planning.

Random *well-formed* comprehension terms (generator monoid properties
always a subset of the output monoid's, mirroring what the type checker
admits) are evaluated three ways:

1. directly (reference evaluator);
2. after normalization;
3. through the logical algebra + pipelined executor.

All three must agree. This is the strongest statement the library makes
about Table 3 and the evaluation sketch, so it gets the heaviest
randomized coverage.

The strategies produce every binder kind of the calculus — ``lambda``,
``let``, ``hom``, generators (plain and indexed) and ``==`` bindings —
and a ``sorted[f]`` key, so ``tests/test_calculus_traversal.py`` reuses
:func:`comprehensions` for the structural properties of the shape table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Executor, build_plan
from repro.calculus import (
    add,
    and_,
    apply,
    bind,
    comp,
    const,
    eq,
    filt,
    gen,
    gt,
    hom,
    if_,
    lam,
    let,
    lt,
    merge,
    mref,
    mul,
    unit,
    var,
)
from repro.calculus.ast import Comprehension, Term
from repro.eval import Evaluator, evaluate
from repro.normalize import normalize
from repro.values import Bag

# The three base extents. Their monoids drive the well-formedness table.
_EXTENTS = {
    "Xs": ("list", lambda xs: tuple(xs)),
    "Ys": ("bag", lambda xs: Bag(xs)),
    "Zs": ("set", lambda xs: frozenset(xs)),
}

#: output monoid -> extent names usable as generator sources
_ALLOWED_SOURCES = {
    "list": ["Xs"],
    "bag": ["Xs", "Ys"],
    "sum": ["Xs", "Ys"],
    "set": ["Xs", "Ys", "Zs"],
    "max": ["Xs", "Ys", "Zs"],
    "some": ["Xs", "Ys", "Zs"],
    "sorted": ["Xs", "Ys", "Zs"],
}


def _head_strategy(bound_vars: list[str]):
    base = st.sampled_from([var(v) for v in bound_vars] + [const(1), const(3)])
    def widen(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: add(p[0], p[1])),
            st.tuples(children, children).map(lambda p: mul(p[0], p[1])),
            st.tuples(children, children, children).map(
                lambda p: if_(lt(p[0], p[1]), p[2], const(0))
            ),
            # binders in the head: ``let k = a in k + b`` and ``(\p. p * b)(a)``
            st.tuples(children, children).map(
                lambda p: let("k", p[0], add(var("k"), p[1]))
            ),
            st.tuples(children, children).map(
                lambda p: apply(lam("p", mul(var("p"), p[1])), p[0])
            ),
        )
    return st.recursive(base, widen, max_leaves=4)


def _pred_strategy(bound_vars: list[str]):
    operand = st.sampled_from([var(v) for v in bound_vars] + [const(2), const(5)])
    simple = st.one_of(
        st.tuples(operand, operand).map(lambda p: lt(p[0], p[1])),
        st.tuples(operand, operand).map(lambda p: eq(p[0], p[1])),
        st.tuples(operand, operand).map(lambda p: gt(p[0], p[1])),
    )
    return st.one_of(
        simple,
        st.tuples(simple, simple).map(lambda p: and_(p[0], p[1])),
    )


@st.composite
def _source_strategy(draw, output_monoid: str, depth: int) -> Term:
    """A generator source: extent, nested comprehension, merge, or hom."""
    allowed = _ALLOWED_SOURCES[output_monoid]
    choice = draw(st.integers(0, 4 if depth > 0 else 1))
    extent = draw(st.sampled_from(allowed))
    monoid = _EXTENTS[extent][0]
    if choice == 0 or choice == 1:
        return var(extent)
    if choice == 2:
        return draw(_comprehension_strategy(monoid, depth - 1))
    if choice == 3:
        return merge(monoid, var(extent), var(extent))
    return hom(monoid, monoid, "h", unit(monoid, add(var("h"), const(1))), var(extent))


@st.composite
def _comprehension_strategy(draw, output_monoid: str, depth: int) -> Comprehension:
    n_gens = draw(st.integers(1, 2))
    qualifiers = []
    bound: list[str] = []
    for i in range(n_gens):
        name = f"v{depth}{i}"
        source = draw(_source_strategy(output_monoid, depth))
        if source == var("Xs") and draw(st.booleans()):
            # the vector generator form ``v[i] <- Xs`` binds the position too
            qualifiers.append(gen(name, source, at=f"i{depth}{i}"))
            bound.append(f"i{depth}{i}")
        else:
            qualifiers.append(gen(name, source))
        bound.append(name)
        if draw(st.booleans()):
            qualifiers.append(filt(draw(_pred_strategy(bound))))
        if draw(st.booleans()):
            qualifiers.append(bind(f"b{depth}{i}", draw(_head_strategy(bound))))
            bound.append(f"b{depth}{i}")
    if output_monoid == "some":
        head = draw(_pred_strategy(bound))
    else:
        head = draw(_head_strategy(bound))
    if output_monoid == "sorted":
        return comp(mref("sorted", lam("s", mul(var("s"), const(-1)))), head, qualifiers)
    return comp(output_monoid, head, qualifiers)


def comprehensions():
    """Comprehensions of every output monoid, nested two deep."""
    return st.sampled_from(list(_ALLOWED_SOURCES)).flatmap(
        lambda monoid: _comprehension_strategy(monoid, depth=2)
    )


@st.composite
def _term_and_data(draw):
    term = draw(comprehensions())
    data = {}
    for name, (_, build) in _EXTENTS.items():
        data[name] = build(draw(st.lists(st.integers(0, 6), max_size=5)))
    return term, data


@settings(max_examples=120, deadline=None)
@given(case=_term_and_data())
def test_normalization_preserves_semantics(case):
    term, data = case
    direct = evaluate(term, data)
    normalized = normalize(term)
    assert evaluate(normalized, data) == direct


@settings(max_examples=120, deadline=None)
@given(case=_term_and_data())
def test_algebra_agrees_with_evaluator(case):
    term, data = case
    direct = evaluate(term, data)
    plan = build_plan(term)
    executor = Executor(Evaluator(data))
    assert executor.execute(plan) == direct


@settings(max_examples=60, deadline=None)
@given(case=_term_and_data())
def test_normalization_is_idempotent(case):
    term, _ = case
    once = normalize(term)
    assert normalize(once) == once
