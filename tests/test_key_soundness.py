"""The keys that say two queries are "the same" are sound by test.

A database with a cache compiles every query through it, keyed by
:func:`repro.cache.keys.canonical_term`; a key that joins two queries of
different meaning is a wrong answer. The telemetry fingerprint is a
digest of that key, ``QL401``'s :func:`~repro.cache.keys.literal_skeleton`
blanks its literals, and the process-wide code cache keys generated
functions by :func:`repro.jit.plan.plan_key`. Three properties, over the
random comprehensions of ``test_normalize_property.py`` and the OQL
templates of ``test_property_queries.py``:

(a) **completeness** — alpha-variants share every key, including
    shadowing, a binder spelled like a canonical one (``~0``) and a
    binder named like a free variable of the term;
(b) **soundness** — a near miss (a literal's type or sign, a field, a
    free variable for a bound one, a comprehension's monoid) shares no
    key with its original unless the reference evaluator gives both the
    same outcome, types included (a literal-only near miss shares its
    skeleton by design); and two plans that share a code key run
    each other's function to the same outcome as their own;
(c) **through the cache** — after a first query, one cached database
    answers a second (an alpha-variant or a near miss) as a fresh,
    uncached database does.

Examples are derandomized (``tests/conftest.py``), so every run checks
the same ones; ``HYPOTHESIS_PROFILE=explore`` checks many more.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import Executor, build_plan
from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from repro.cache.keys import canonical_term, fingerprint_term, literal_skeleton
from repro.calculus import comp, gen, var
from repro.calculus.ast import Call, Comprehension, Const, Proj, Var
from repro.calculus.builders import mref
from repro.calculus.shape import SHAPES
from repro.calculus.traversal import free_vars, subterms
from repro.db import Database, company_schema
from repro.errors import PlanError
from repro.eval import Evaluator, evaluate
from repro.jit.plan import clear_code_cache, fused, plan_key
from repro.values import Bag, Record
from tests.test_normalize_property import _term_and_data
from tests.test_property_queries import _PREDICATES, _PROJECTIONS, _SHAPES, _database

#: binder names a renaming may pick, besides the term's own free names
#: and the outer binders' new names (shadowing)
POOL = ("a", "b", "x", "~0", "~1", "~2")
FIELDS = ("name", "salary", "age", "dno", "skills", "budget", "floor")
MONOIDS = ("set", "bag", "list", "sum", "max", "some")


# -- observations --------------------------------------------------------------------


def typed(value):
    """``value`` with the type of every part beside it: ``1``, ``1.0``,
    ``True`` and ``-0.0`` / ``0.0`` all differ."""
    kind = type(value)
    if isinstance(value, Record):
        return ("Record", tuple((k, typed(v)) for k, v in sorted(value.items(), key=str)))
    if isinstance(value, Bag):
        return ("Bag", frozenset(Counter(map(typed, value)).items()))
    if kind in (tuple, list):
        return (kind.__name__, tuple(map(typed, value)))
    if kind is frozenset:
        return ("frozenset", frozenset(map(typed, value)))
    return (kind.__name__, repr(value) if kind is float else value)


def outcome(run):
    """What a run shows: its typed value, or its error's class and message
    (not always a ``ReproError``: ``sum`` over records raises ``TypeError``
    on every engine)."""
    try:
        return ("value", typed(run()))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


# -- the OQL templates -------------------------------------------------------------------


@st.composite
def templates(draw):
    """The choices that fill a template of ``test_property_queries``."""
    return {
        "shape": draw(st.sampled_from(_SHAPES)),
        "proj": draw(st.sampled_from(_PROJECTIONS)),
        "pred": draw(st.sampled_from(_PREDICATES)),
        "n": draw(st.integers(0, 200_000)),
        "d": draw(st.integers(0, 4)),
        "f": draw(st.integers(0, 12)),
    }


def render(choices, spell=str, shape=None):
    """The OQL of one set of :func:`templates` choices; ``spell`` writes
    its integer literals, ``shape`` replaces its template."""
    pred = choices["pred"].format(n=spell(choices["n"]), d=spell(choices["d"]))
    shape = shape or choices["shape"]
    return shape.format(proj=choices["proj"], pred=pred, f=spell(choices["f"]))


# -- (a) alpha-variants ------------------------------------------------------------------


def alpha_variant(term, pick):
    """An alpha-variant of ``term``: each binder renamed to ``pick(names)``,
    one of the names that capture nothing there — none the node refers
    to from outside (free variables, calls), none of the node's other
    binders. An outer binder's new name and a free variable's name are
    candidates wherever the node does not refer to them."""
    globals_ = sorted(free_vars(term))

    def walk(node, env):
        if type(node) is Var:
            return Var(env.get(node.name, node.name))
        if type(node) is Const:
            return node
        if type(node) is Call and node.name in env:
            node = Call(env[node.name], node.args)
        shape = SHAPES[type(node)]
        kids = shape.kids(node)
        if shape.scopes is None:
            return shape.rebuild(node, kids, tuple(walk(kid, env) for kid in kids))
        outside = free_vars(node) | {s.name for s in subterms(node) if type(s) is Call}
        taken = {env.get(name, name) for name in outside}
        binders, names = shape.binders(node), []
        for _ in binders:
            candidates = [*POOL, *globals_, *env.values()]
            names.append(pick(sorted({n for n in candidates if n not in taken} - set(names))))
        envs = [env]
        for old, new in zip(binders, names):
            envs.append({**envs[-1], old: new})
        new_kids = tuple(walk(kid, envs[n]) for kid, n in zip(kids, shape.scopes(node)))
        return shape.rebuild(node, kids, new_kids, binders, tuple(names))

    return walk(term, {})


def picker(data):
    return lambda names: data.draw(st.sampled_from(names))


def code_key(term):
    """``plan_key`` of ``term``'s plan (None: it has no plan)."""
    try:
        return plan_key(build_plan(term), False)
    except PlanError:
        return None


@given(case=_term_and_data(), data=st.data())
def test_alpha_variants_of_comprehensions_share_every_key(case, data):
    term, extents = case
    variant = alpha_variant(term, picker(data))
    assert canonical_term(variant) == canonical_term(term), (term, variant)
    assert fingerprint_term(variant) == fingerprint_term(term)
    assert literal_skeleton(variant) == literal_skeleton(term)
    assert code_key(variant) == code_key(term)
    assert outcome(lambda: evaluate(variant, extents)) == outcome(lambda: evaluate(term, extents))


@given(choices=templates(), data=st.data())
def test_alpha_variants_of_oql_share_every_key(choices, data):
    term = Database(company_schema()).translate(render(choices))
    variant = alpha_variant(term, picker(data))
    for key in (canonical_term, fingerprint_term, literal_skeleton, code_key):
        assert key(variant) == key(term), (key.__name__, term, variant)


class TestAlphaCases:
    """The named cases of (a), pinned."""

    def test_shadowing(self):
        inner = lambda name: comp("bag", var(name), [gen(name, var("Ys"))])  # noqa: E731
        outer = lambda a, b: comp("bag", inner(b), [gen(a, var("Xs"))])  # noqa: E731
        assert canonical_term(outer("x", "x")) == canonical_term(outer("p", "q"))

    def test_a_binder_spelled_like_a_canonical_one(self):
        left = comp("bag", var("~1"), [gen("~1", var("Xs")), gen("~0", var("Ys"))])
        right = comp("bag", var("a"), [gen("a", var("Xs")), gen("b", var("Ys"))])
        assert canonical_term(left) == canonical_term(right)

    def test_a_binder_named_like_a_free_variable(self):
        left = comp("bag", var("Ys"), [gen("Ys", var("Xs"))])
        right = comp("bag", var("x"), [gen("x", var("Xs"))])
        assert canonical_term(left) == canonical_term(right)
        free = comp("bag", var("Ys"), [gen("x", var("Xs"))])  # Ys free, not bound
        assert canonical_term(free) != canonical_term(right)


# -- (b) near misses ---------------------------------------------------------------------


def retyped(value):
    """The near misses of a literal: the same number as each other type
    (``1`` / ``1.0`` / ``true`` / ``'1'``) and, for a float, the other sign."""
    if type(value) not in (int, float, bool):
        return []
    out = [int(value), float(value), bool(value), str(int(value))]
    if type(value) is float:
        out.append(-value)
    return [v for v in out if typed(v) != typed(value)]


def near_misses(term, free_names):
    """Every one-step near miss of ``term``, as ``(kind, mutant)``."""
    out = []

    def local(node, bound):
        if type(node) is Const:
            yield from (("literal", Const(v)) for v in retyped(node.value))
        elif type(node) is Proj:
            yield from (("field", Proj(node.base, f)) for f in FIELDS if f != node.name)
        elif type(node) is Var:
            others = bound if node.name not in bound else bound | free_names
            yield from (("variable", Var(n)) for n in sorted(others - {node.name}))
        elif type(node) is Comprehension and node.monoid.key is None:
            for name in MONOIDS:
                if name != node.monoid.name:
                    yield "monoid", dataclasses.replace(node, monoid=mref(name))

    def walk(node, bound, rebuild):
        out.extend((kind, rebuild(alt)) for kind, alt in local(node, bound))
        if type(node) in (Var, Const):
            return
        shape = SHAPES[type(node)]
        kids, binders = shape.kids(node), shape.binders(node)
        scopes = shape.scopes(node) if shape.scopes is not None else (0,) * len(kids)
        for i, (kid, n) in enumerate(zip(kids, scopes)):

            def put(alt, i=i):
                return rebuild(shape.build(node, kids[:i] + (alt,) + kids[i + 1:], binders))

            walk(kid, bound | frozenset(binders[:n]), put)

    walk(term, frozenset(), lambda alt: alt)
    return out


def assert_sound(term, mutants, run):
    keys = (canonical_term, fingerprint_term, literal_skeleton)
    own = [key(term) for key in keys]
    for kind, mutant in mutants:
        for key, mine in zip(keys, own):
            if key(mutant) == mine and (key is not literal_skeleton or kind != "literal"):
                assert outcome(lambda: run(mutant)) == outcome(lambda: run(term)), (kind, mutant)


@given(case=_term_and_data())
def test_near_misses_of_comprehensions_share_no_key(case):
    term, extents = case
    mutants = near_misses(term, frozenset(extents))
    assert mutants
    assert_sound(term, mutants, lambda t: evaluate(t, extents))


def run_plan(term, extents, code_from=None):
    """``term``'s plan run on its generated function: the one the code
    cache holds for ``code_from``'s plan when given, else its own."""
    clear_code_cache()
    if code_from is not None:
        fused(build_plan(code_from))
    plan = build_plan(term)
    fused(plan)
    with verification(False):  # the function as emitted, no differential
        executor = Executor(Evaluator(extents))
    return outcome(lambda: executor.execute(plan))


@given(case=_term_and_data(), data=st.data())
def test_near_misses_that_share_a_code_key_share_a_function(case, data):
    term, extents = case
    kind, mutant = data.draw(st.sampled_from(near_misses(term, frozenset(extents))))
    key = code_key(term)
    if key is not None and code_key(mutant) == key:
        assert run_plan(mutant, extents, code_from=term) == run_plan(mutant, extents), kind


@given(choices=templates(), db=_database())
def test_near_misses_of_oql_share_no_key(choices, db):
    term = db.translate(render(choices))
    evaluator = db.evaluator()
    assert_sound(term, near_misses(term, frozenset(db.catalog.extents())), evaluator.evaluate)


# -- (c) through the cache ----------------------------------------------------------------


SPELLINGS = (
    lambda n: f"{n}.0",
    lambda n: f"-{n}.0",
    lambda n: f"'{n}'",
    lambda n: "true" if n else "false",
)
AGGREGATES = ("sum(", "max(", "count(", "select distinct", "select ")


@st.composite
def oql_pairs(draw):
    """A template filled twice, the second time one step away: an
    alpha-variant, another spelling of its literals, another field,
    another variable or another monoid."""
    choices = draw(templates())
    first = render(choices)
    kind = draw(st.sampled_from(["alpha", "literal", "field", "variable", "monoid"]))
    if kind == "alpha":  # an injective renaming of the template's e, d and x
        names = draw(st.permutations(["e", "d", "x", "y", "emp", "Staff"]))
        second = re.sub(r"\b[edx]\b", lambda m: names["edx".index(m.group())], first)
    elif kind == "literal":
        second = render(choices, draw(st.sampled_from(SPELLINGS)))
    elif kind == "field":
        second = first.replace(".name", "." + draw(st.sampled_from(FIELDS)), 1)
    elif kind == "variable":
        second = re.sub(r"\b[ed]\.", draw(st.sampled_from(["e.", "d."])), first, count=1)
    else:
        shape = choices["shape"]
        old = next(a for a in AGGREGATES if a in shape)
        second = render(choices, shape=shape.replace(old, draw(st.sampled_from(AGGREGATES)), 1))
    return first, second


@given(pair=oql_pairs(), db=_database(), results=st.booleans())
def test_the_cache_answers_a_second_query_as_a_fresh_database(pair, db, results):
    first, second = pair
    db.enable_cache(CacheConfig(results=results))
    fresh = Database(company_schema(), cache=False)
    fresh.load_extents(db.catalog.extents())
    want = outcome(lambda: fresh.run(second))
    for _ in range(2):  # a first run, then a hit
        outcome(lambda: db.run(first))
    assert [outcome(lambda: db.run(second)) for _ in range(2)] == [want, want], pair
