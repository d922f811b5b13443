"""Property-style equivalence: for every monoid in the catalog, folding
the parts of a split input and combining the parts with
``Monoid.combine_partials`` equals the fold of the whole — over
randomized data, randomized predicates and randomized split shapes,
including more parts than elements, one-element and empty inputs.

This is the executable form of the paper's section-2 argument: Reduce
is a monoid homomorphism, ``hom(x ++ y) = merge(hom(x), hom(y))``, so
any split of the input recombined in index order is the same
homomorphism, and in any order when the monoid is commutative. Each
part is folded by the executor, as a plan over that part alone.
"""

import random

import pytest

from repro.algebra import Executor, Reduce, Scan, SelectOp
from repro.calculus import const, gt, lam, proj, tup, var
from repro.calculus.ast import MonoidRef
from repro.eval import Evaluator
from repro.values import Record, to_python

SIZES = [0, 1, 3, 7, 40, 101]
PART_COUNTS = [2, 3, 5, 8, 200]  # 200 > every input size used here


def records(rng, n):
    return tuple(
        Record(v=rng.randint(-50, 50), s=rng.choice("abcde")) for _ in range(n)
    )


def split(rows, parts, rng):
    """``rows`` cut at ``parts - 1`` random points: contiguous parts in
    index order, some of them empty."""
    cuts = sorted(rng.randint(0, len(rows)) for _ in range(parts - 1))
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def fold(plan, rows):
    return Executor(Evaluator({"Xs": rows})).execute(plan)


def homomorphic(plan, rows, parts, rng):
    """The fold of ``rows`` and the index-order combination of the folds
    of its parts; for a commutative monoid also a shuffled combination."""
    monoid = Evaluator().resolve_monoid(plan.monoid, Evaluator().global_env)
    partials = [fold(plan, part) for part in split(rows, parts, rng)]
    combined = [monoid.combine_partials(partials)]
    if monoid.commutative:
        rng.shuffle(partials)
        combined.append(monoid.combine_partials(partials))
    return fold(plan, rows), combined


def assert_homomorphic(plan, rows, rng, plain=lambda value: value):
    parts = rng.choice(PART_COUNTS)
    whole, combined = homomorphic(plan, rows, parts, rng)
    for value in combined:
        assert plain(value) == plain(whole), (plan.monoid, len(rows), parts)


def spine(rng):
    """A scan, sometimes behind a randomized filter."""
    scan = Scan("x", var("Xs"))
    if rng.random() < 0.5:
        return SelectOp(scan, gt(proj(var("x"), "v"), const(rng.randint(-50, 50))))
    return scan


# -- Table 1 primitive monoids ------------------------------------------------

INT_PRIMITIVES = ["sum", "prod", "max", "min"]
BOOL_PRIMITIVES = ["some", "all"]


@pytest.mark.parametrize("name", INT_PRIMITIVES)
def test_int_primitive_monoids(name):
    rng = random.Random(f"prim-{name}")
    for n in SIZES:
        plan = Reduce(MonoidRef(name), proj(var("x"), "v"), spine(rng))
        assert_homomorphic(plan, records(rng, n), rng)


@pytest.mark.parametrize("name", BOOL_PRIMITIVES)
def test_bool_primitive_monoids(name):
    rng = random.Random(f"bool-{name}")
    for n in SIZES:
        head = gt(proj(var("x"), "v"), const(rng.randint(-50, 50)))
        plan = Reduce(MonoidRef(name), head, spine(rng))
        assert_homomorphic(plan, records(rng, n), rng)


# -- collection monoids -------------------------------------------------------

COLLECTIONS = ["set", "bag", "list", "oset"]


@pytest.mark.parametrize("name", COLLECTIONS)
def test_collection_monoids(name):
    rng = random.Random(f"coll-{name}")
    for n in SIZES:
        plan = Reduce(MonoidRef(name), proj(var("x"), "v"), spine(rng))
        assert_homomorphic(plan, records(rng, n), rng, to_python)


def test_string_monoid_preserves_order():
    rng = random.Random("string")
    for n in SIZES:
        plan = Reduce(MonoidRef("string"), proj(var("x"), "s"), spine(rng))
        assert_homomorphic(plan, records(rng, n), rng)


@pytest.mark.parametrize("name", ["sorted", "sortedbag"])
def test_sorted_monoids(name):
    rng = random.Random(f"sorted-{name}")
    for n in SIZES:
        ref = MonoidRef(name, key=lam("e", var("e")))
        plan = Reduce(ref, proj(var("x"), "v"), spine(rng))
        assert_homomorphic(plan, records(rng, n), rng, to_python)


def test_vector_monoid():
    """Positions are global: each part's rows carry their index into the
    whole input, as a split of an ordered source would keep them."""
    rng = random.Random("vec")
    for n in SIZES:
        rows = tuple(Record(v=r.v, i=i) for i, r in enumerate(records(rng, n)))
        ref = MonoidRef("vec", element=MonoidRef("sum"), size=const(n))
        plan = Reduce(ref, tup(proj(var("x"), "v"), proj(var("x"), "i")), Scan("x", var("Xs")))
        assert_homomorphic(plan, rows, rng, to_python)


# -- split-shape edge cases ----------------------------------------------


def test_single_row_input():
    plan = Reduce(MonoidRef("list"), proj(var("x"), "v"), Scan("x", var("Xs")))
    whole, combined = homomorphic(plan, (Record(v=7, s="a"),), 8, random.Random(1))
    assert combined == [whole] == [(7,)]


def test_empty_input_every_monoid():
    for name in INT_PRIMITIVES + BOOL_PRIMITIVES + COLLECTIONS + ["string"]:
        plan = Reduce(MonoidRef(name), proj(var("x"), "v"), Scan("x", var("Xs")))
        whole, combined = homomorphic(plan, (), 4, random.Random(name))
        assert all(value == whole for value in combined), name


def test_one_part_per_row():
    rng = random.Random("morsel-1")
    rows = records(rng, 23)
    plan = Reduce(MonoidRef("list"), proj(var("x"), "v"), Scan("x", var("Xs")))
    monoid = Evaluator().resolve_monoid(plan.monoid, Evaluator().global_env)
    partials = [fold(plan, (row,)) for row in rows]
    assert monoid.combine_partials(partials) == fold(plan, rows) == tuple(r.v for r in rows)
