"""User-defined monoids: the framework is open, as the paper requires.

Three classic extensions, each registered once and then used from
ordinary comprehensions by name:

- ``gcd`` — greatest common divisor (commutative and idempotent);
- ``avgpair`` — the (sum, count) pair monoid that makes *average*
  compositional (plain avg is not a monoid; the pair trick is);
- ``top3`` — a bounded "best three" collection monoid.

Registration is per test (``register_monoid`` restores the registry
afterwards), and it is the only declaration: type checking, lint,
normalization, the calculus parser and the planner read the monoid's
C/I properties from the registered object.
"""

from __future__ import annotations

import math

import pytest

from repro.algebra import Executor, build_plan
from repro.calculus import alpha_equal, comp, const, gen, pretty, proj, tup, var
from repro.calculus.parser import parse_calculus
from repro.errors import WellFormednessError
from repro.eval import evaluate
from repro.lint import Linter
from repro.monoids import (
    Accumulator,
    CollectionMonoid,
    PrimitiveMonoid,
    check_hom_well_formed,
    default_registry,
)
from repro.normalize import RULES_BY_NAME, normalize
from repro.types import TColl, TFLOAT, TypeChecker
from repro.values import Bag

GCD = PrimitiveMonoid("gcd", 0, math.gcd, commutative=True, idempotent=True)


def _avg_merge(left, right):
    return (left[0] + right[0], left[1] + right[1])


AVGPAIR = PrimitiveMonoid("avgpair", (0, 0), _avg_merge, commutative=True, idempotent=False)


class _Top3Accumulator(Accumulator):
    def __init__(self):
        self._items = set()

    def add(self, value):
        self._items.add(value)
        self._items = set(sorted(self._items, reverse=True)[:3])

    def finish(self):
        return tuple(sorted(self._items, reverse=True))


class Top3Monoid(CollectionMonoid):
    """The three largest *distinct* elements.

    Deduplication is what makes the merge idempotent — keeping
    duplicates would give ``x + x != x`` (the same C/I bookkeeping the
    paper's sorted monoid needs).
    """

    name = "top3"
    commutative = True
    idempotent = True

    def zero(self):
        return ()

    def unit(self, value):
        return (value,)

    def merge(self, left, right):
        return tuple(sorted(set(left) | set(right), reverse=True)[:3])

    def iterate(self, collection):
        return iter(collection)

    def accumulator(self):
        return _Top3Accumulator()


TOP3 = Top3Monoid()


@pytest.fixture(autouse=True)
def _user_monoids(register_monoid):
    for monoid in (GCD, AVGPAIR, TOP3):
        register_monoid(monoid)


class TestGcd:
    def test_laws(self):
        assert GCD.merge(12, 18) == 6
        assert GCD.merge(0, 7) == 7  # zero is the identity
        assert GCD.merge(7, 7) == 7  # idempotent

    def test_in_comprehension(self):
        term = comp("gcd", var("x"), [gen("x", const((12, 18, 30)))])
        assert evaluate(term) == 6

    def test_set_source_is_well_formed(self):
        """gcd is CI, so even set generators are admissible."""
        check_hom_well_formed(default_registry().get("set"), GCD)
        term = comp("gcd", var("x"), [gen("x", const(frozenset({8, 12})))])
        assert evaluate(term) == 4


class TestAveragePair:
    def test_average_via_pairs(self):
        """avg{ e } = let (s, c) = avgpair{ (e, 1) } in s / c."""
        term = comp(
            "avgpair", tup(var("x"), const(1)), [gen("x", const((2, 4, 6, 8)))]
        )
        total, count = evaluate(term)
        assert total / count == 5.0

    def test_composes_over_partitions(self):
        """The whole point: partial averages merge correctly."""
        left = evaluate(
            comp("avgpair", tup(var("x"), const(1)), [gen("x", const((2, 4)))])
        )
        right = evaluate(
            comp("avgpair", tup(var("x"), const(1)), [gen("x", const((6, 8)))])
        )
        merged = AVGPAIR.merge(left, right)
        assert merged[0] / merged[1] == 5.0

    def test_set_source_rejected(self):
        """avgpair is not idempotent: averaging a set via it is the same
        ill-formedness as summing a set."""
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(default_registry().get("set"), AVGPAIR)


class TestTop3:
    def test_in_comprehension(self):
        term = comp("top3", var("x"), [gen("x", const((5, 1, 9, 7, 3)))])
        assert evaluate(term) == (9, 7, 5)

    def test_idempotent_and_commutative(self):
        a, b = (9, 7, 5), (8, 6, 4)
        assert TOP3.merge(a, a) == a
        assert TOP3.merge(a, b) == TOP3.merge(b, a) == (9, 8, 7)

    def test_bag_source_allowed(self):
        term = comp("top3", var("x"), [gen("x", const(Bag([5, 5, 1])))])
        assert evaluate(term) == (5, 1)  # distinct by construction

    def test_with_projection_head(self):
        rows = tuple(
            {"name": f"e{i}", "salary": s} for i, s in enumerate((30, 90, 50, 70))
        )
        term = comp("top3", proj(var("r"), "salary"), [gen("r", const(rows))])
        assert evaluate(term) == (90, 70, 50)

    def test_normalization_preserves_user_monoid_semantics(self):
        from repro.normalize import RULES_BY_NAME, normalize

        inner = comp("bag", var("y"), [gen("y", var("Ys"))])
        outer = comp("top3", var("x"), [gen("x", inner)])
        data = {"Ys": (4, 9, 2, 9)}
        assert evaluate(normalize(outer), data) == evaluate(outer, data) == (9, 4, 2)


class TestRegisteredOnce:
    """One registration is the whole declaration: every static layer
    knows the monoid, and the planned execution agrees with the
    reference evaluator."""

    def test_every_layer_knows_it(self, company_db):
        term = parse_calculus("gcd{ e.salary | e <- Employees, e.dno = 2 }")
        assert alpha_equal(parse_calculus(pretty(term)), term)
        TypeChecker(company_db.schema).check(term)
        codes = [d.code for d in Linter(company_db.schema).lint_term(term)]
        assert "QL006" not in codes
        plan = build_plan(normalize(term))
        expected = company_db.run_calculus(term)
        assert expected > 0
        assert Executor(company_db.evaluator()).execute(plan) == expected

    def test_unit_comprehension_normalizes_to_its_head(self):
        """N0: a registered primitive's unit is the identity, as sum's is."""
        n0 = (RULES_BY_NAME["N0-unit"],)
        assert normalize(parse_calculus("gcd{ x }"), n0) == var("x")
        assert normalize(parse_calculus("top3{ x }"), n0) == parse_calculus("unit(top3)(x)")

    def test_csum_typechecks(self):
        import repro.vectors.linalg  # noqa: F401  (registers csum and cell)

        term = parse_calculus("csum{ (x, 0.0) | x <- Xs }")
        TypeChecker().check(term, {"Xs": TColl("list", TFLOAT)})

    def test_set_source_into_non_idempotent_monoid_is_ill_formed(self, company_db):
        term = parse_calculus("avgpair{ (d.budget, 1) | d <- Departments }")
        with pytest.raises(WellFormednessError, match="avgpair lacks"):
            TypeChecker(company_db.schema).check(term)
        codes = [d.code for d in Linter(company_db.schema).lint_term(term)]
        assert "QL001" in codes and "QL006" not in codes
