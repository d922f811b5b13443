"""Unit tests for the primitive monoids (Table 1, lower half), and the one
typed error of a fold whose merge refuses its operands."""

import pytest

from repro.cache import CacheConfig
from repro.db import Database, company_schema, make_company, make_travel_agency, travel_schema
from repro.errors import EvaluationError, TypingError
from repro.monoids import ALL, MAX, MIN, PROD, SOME, SUM
from repro.values import Bag, Record


def test_sum_monoid():
    assert SUM.zero() == 0
    assert SUM.unit(5) == 5
    assert SUM.merge(2, 3) == 5
    assert SUM.commutative and not SUM.idempotent


def test_prod_monoid():
    assert PROD.zero() == 1
    assert PROD.merge(2, 3) == 6
    assert PROD.commutative and not PROD.idempotent


def test_max_monoid_with_identity():
    assert MAX.zero() is None
    assert MAX.merge(None, 5) == 5
    assert MAX.merge(5, None) == 5
    assert MAX.merge(3, 7) == 7
    assert MAX.commutative and MAX.idempotent


def test_min_monoid():
    assert MIN.merge(3, 7) == 3
    assert MIN.merge(None, 7) == 7
    assert MIN.commutative and MIN.idempotent


def test_max_over_strings():
    assert MAX.merge("apple", "pear") == "pear"


def test_some_monoid():
    assert SOME.zero() is False
    assert SOME.merge(False, True) is True
    assert SOME.merge(False, False) is False
    assert SOME.commutative and SOME.idempotent


def test_all_monoid():
    assert ALL.zero() is True
    assert ALL.merge(True, False) is False
    assert ALL.merge(True, True) is True


def test_merge_all_folds_from_zero():
    assert SUM.merge_all([1, 2, 3]) == 6
    assert MAX.merge_all([]) is None
    assert ALL.merge_all([True, True]) is True


def test_properties_sets():
    assert SUM.properties == frozenset({"commutative"})
    assert MAX.properties == frozenset({"commutative", "idempotent"})


def test_primitive_monoids_are_not_collections():
    assert not SUM.is_collection
    assert not SOME.is_collection


def test_monoid_equality_by_signature():
    assert SUM == SUM
    assert SUM != PROD
    assert len({SUM, SUM, PROD}) == 2


def test_repr():
    assert repr(SUM) == "<monoid sum>"


#: monoid, an element, and 2000 copies of it folded by merge
FOLDS = {
    "sum": (SUM, 7, 14_000),
    "prod": (PROD, 2, 2**2_000),
    "max": (MAX, 7, 7),
    "min": (MIN, 7, 7),
    "some": (SOME, True, True),
    "all": (ALL, False, False),
}


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_fold_of_many_merges(name):
    monoid, element, folded = FOLDS[name]
    value = monoid.zero()
    for _ in range(2_000):
        value = monoid.merge(value, element)
    assert value == folded == monoid.merge_all([element] * 2_000)


# -- operands a merge cannot take ---------------------------------------------------
#
# A primitive fold over values its merge refuses raised a bare ``TypeError``,
# and ``max`` / ``min`` over sets answered by the subset order. Both are one
# typed error now, worded alike by the interpreter, the operator loops and
# generated code; the type checker refuses max/min over records and
# collections up front.

REFUSED = {
    "sum(select e.name from e in Employees)": "sum cannot merge int and str",
    "max(select e from e in Employees)": "max cannot merge Record and Record",
    "select struct(d: dno, total: sum(select p.name from p in partition)) "
    "from e in Employees group by dno: e.dno": "sum cannot merge int and str",
    "max(select h.facilities from c in Cities, h in c.hotels)": (
        "max cannot merge frozenset and frozenset"
    ),
    "min(select h.facilities from c in Cities, h in c.hotels)": (
        "min cannot merge frozenset and frozenset"
    ),
}


def _database(oql: str, **kwargs) -> Database:
    if "Employees" in oql:
        db = Database(company_schema(), **kwargs)
        db.load_extents(make_company())
    else:
        db = Database(travel_schema(), **kwargs)
        db.load_extents(make_travel_agency())
    return db


def _raised(run) -> tuple:
    with pytest.raises(EvaluationError) as caught:
        run()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("oql", sorted(REFUSED))
def test_a_refused_merge_is_one_typed_error_on_every_engine(oql):
    kept = _database(oql, cache=CacheConfig(results=False))  # code from the first run
    seen = {
        "interpret": _raised(lambda: _database(oql).run(oql, engine="interpret")),
        "explained": _raised(lambda: _database(oql).explain_data(oql, analyze=True)),
        "generated": _raised(lambda: kept.run(oql)),
        "generated again": _raised(lambda: kept.run(oql)),
    }
    assert set(seen.values()) == {(EvaluationError, REFUSED[oql])}, seen


@pytest.mark.parametrize("monoid", [MAX, MIN])
def test_max_and_min_refuse_what_python_orders_partially_or_not_at_all(monoid):
    for left, right in (
        (frozenset({"pool", "parking"}), frozenset({"pool"})),
        (Bag([1]), Bag([2])),
        (Record(a=1), Record(a=2)),
        (1, "a"),
    ):
        with pytest.raises(EvaluationError, match=f"^{monoid.name} cannot merge "):
            monoid.merge(left, right)
    assert monoid.merge(None, frozenset({1})) == frozenset({1})  # nothing to compare


def test_sum_names_its_operand_types():
    with pytest.raises(EvaluationError, match="^sum cannot merge int and str$"):
        SUM.merge(0, "a")


@pytest.mark.parametrize(
    "oql, element",
    [
        ("max(select e from e in Employees)", "Employee"),
        ("min(select distinct h.facilities from c in Cities, h in c.hotels)", "set(string)"),
        ("max(select distinct struct(n: c.name) from c in Cities)", "<n: string>"),
    ],
)
def test_the_type_checker_refuses_max_and_min_over_records_and_collections(oql, element):
    for engine in ("interpret", "auto"):
        with pytest.raises(TypingError) as caught:
            _database(oql).run(oql, engine=engine, typecheck=True)
        assert str(caught.value) == f"{oql[:3]} aggregates totally ordered values, got {element}"


def test_max_over_scalars_still_typechecks():
    oql = "max(select distinct h.stars from c in Cities, h in c.hotels)"
    assert _database(oql).run(oql, typecheck=True) == 5
