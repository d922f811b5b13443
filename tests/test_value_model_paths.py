"""The value model's per-row paths: what ``Runtime.iterate`` answers by type,
what the bag accumulator builds, and how often a row enters Python for them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jit.runtime as jit_runtime
from repro.algebra import Executor, build_plan
from repro.cache import CacheConfig
from repro.calculus.parser import parse_calculus
from repro.db.database import demo_company_database, demo_travel_database
from repro.errors import EvaluationError
from repro.eval import Evaluator
from repro.eval.builtins import runtime_monoid_of
from repro.eval.evaluator import INDEXED_SOURCE_ERROR
from repro.jit.runtime import Runtime
from repro.monoids import BAG
from repro.values import Bag, OrderedSet, Record, Vector
from repro.values.compare import stored


class _Pair(tuple):
    pass


class _Frozen(frozenset):
    pass


_RECORDS = (Record(a=1), Record(a=2, b="x"), Record(a=1))
SOURCES = {
    "tuple": (3, 1, 2, 1),
    "empty_tuple": (),
    "list": [3, 1, 2],
    "frozenset": frozenset({3, "a", None, (1, 2)}),
    "set": {2, 1, 3},
    "bag": Bag([2, 1, 2, "z"]),
    "bag_of_records": Bag(_RECORDS),
    "set_of_records": frozenset(_RECORDS),
    "oset": OrderedSet([3, 1, 3, 2]),
    "str": "hello",
    "vector": Vector.from_dense([0, 7, 0, 9], default=0),
    "tuple_subclass": _Pair((1, 2)),
    "frozenset_subclass": _Frozen({2, 1}),
}
ORDERED = {"tuple", "empty_tuple", "list", "oset", "str", "tuple_subclass"}


def _expected(source, indexed):
    elements = list(runtime_monoid_of(source).iterate(source))
    if isinstance(source, Vector):  # its monoid iterates (index, value) pairs
        return elements if indexed else [value for _, value in elements]
    return list(enumerate(elements)) if indexed else elements


@pytest.fixture
def rt():
    return Runtime(Evaluator({}))


class TestIterate:
    @pytest.mark.parametrize("as_object", [False, True], ids=["value", "object"])
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_unindexed_is_the_monoids_iteration(self, rt, name, as_object):
        source = SOURCES[name]
        given_source = rt.store.new(source) if as_object else source
        assert list(rt.iterate(given_source, False)) == _expected(source, False)

    @pytest.mark.parametrize("as_object", [False, True], ids=["value", "object"])
    @pytest.mark.parametrize("name", sorted(ORDERED | {"vector"}))
    def test_indexed_pairs_positions(self, rt, name, as_object):
        source = SOURCES[name]
        given_source = rt.store.new(source) if as_object else source
        assert list(rt.iterate(given_source, True)) == _expected(source, True)

    @pytest.mark.parametrize("name", sorted(set(SOURCES) - ORDERED - {"vector"}))
    def test_indexed_unordered_raises(self, rt, name):
        source = SOURCES[name]
        with pytest.raises(EvaluationError) as err:
            rt.iterate(source, True)
        assert str(err.value) == INDEXED_SOURCE_ERROR.format(type(source).__name__)

    @pytest.mark.parametrize("name", sorted(set(SOURCES) - ORDERED - {"vector"}))
    def test_indexed_unordered_is_the_interpreters_error(self, name):
        term = parse_calculus("sum{ i | x[i] <- Xs }")
        world = {"Xs": SOURCES[name]}
        with pytest.raises(EvaluationError) as reference:
            Evaluator(world).evaluate(term)
        with pytest.raises(EvaluationError) as generated:
            Executor(Evaluator(world)).execute(build_plan(term))
        assert str(generated.value) == str(reference.value)
        assert str(reference.value) == INDEXED_SOURCE_ERROR.format(type(SOURCES[name]).__name__)

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("value", [7, None, 2.5, Record(a=1)], ids=repr)
    def test_non_collections_raise_the_monoid_lookup_error(self, rt, value, indexed):
        with pytest.raises(EvaluationError) as expected:
            runtime_monoid_of(value)
        with pytest.raises(EvaluationError) as err:
            rt.iterate(value, indexed)
        assert str(err.value) == str(expected.value)
        assert str(err.value).startswith(f"value of type {type(value).__name__} is not a collection")

    def test_iteration_order_is_canonical_and_repeatable(self, rt):
        source = stored(frozenset({"b", 2, None, "a", 1}))
        assert list(rt.iterate(source, False)) == [None, 1, 2, "a", "b"]
        assert rt.iterate(source, False) is rt.iterate(source, False) is source.order
        plain = frozenset(source)  # sorted on every call, to the same order
        assert rt.iterate(plain, False) == source.order
        bag = Bag(["b", "a", "b"])
        assert list(rt.iterate(bag, False)) == ["a", "b", "b"] == list(bag)


_ELEMENTS = st.one_of(
    st.integers(0, 4), st.sampled_from(["a", "b"]), st.none(),
    st.builds(lambda a, b: Record(a=a, b=b), st.integers(0, 2), st.sampled_from(["x", "y"])),
    st.builds(lambda a, b: Record(b=b, a=a), st.integers(0, 2), st.sampled_from(["x", "y"])),
    st.frozensets(st.integers(0, 2), max_size=2),
)


class TestBagAccumulate:
    @settings(max_examples=150, deadline=None)
    @given(xs=st.lists(_ELEMENTS, max_size=12))
    def test_from_iterable_is_the_bag_and_the_merge_fold(self, xs):
        built = BAG.from_iterable(xs)
        assert type(built) is Bag and built == Bag(xs) and hash(built) == hash(Bag(xs))
        folded = BAG.zero()
        for x in xs:
            folded = BAG.merge(folded, BAG.unit(x))
        assert built == folded and len(built) == len(xs)
        assert sorted(built.counts().values()) == sorted(Bag(xs).counts().values())
        assert list(built) == list(folded)
        assert BAG.merge(built, built) == Bag(xs + xs)

    def test_accumulator_result_owns_its_counts(self):
        acc = BAG.accumulator()
        for x in (1, 1, 2):
            acc.add(x)
        bag = acc.finish()
        assert bag.counts() == {1: 2, 2: 1}
        assert bag.union(Bag([1])).count(1) == 3 and bag.count(1) == 2
        assert Bag(bag) == bag and Bag(bag).union(bag).count(2) == 2

    @settings(max_examples=150, deadline=None)
    @given(xs=st.lists(_ELEMENTS, max_size=10), ys=st.lists(_ELEMENTS, max_size=10))
    def test_algebra_is_multiplicity_wise(self, xs, ys):
        left, right = Bag(xs), Bag(ys)
        for result, combine in (
            (left.union(right), lambda m, n: m + n),
            (left.difference(right), lambda m, n: max(m - n, 0)),
            (left.intersection(right), min),
        ):
            expected = {e: combine(xs.count(e), ys.count(e)) for e in xs + ys}
            assert result.counts() == {e: n for e, n in expected.items() if n}
            assert len(result) == sum(result.counts().values()) == len(list(result))
        assert left == Bag(xs) and right == Bag(ys)  # the operands keep their counts

    def test_algebra_keeps_only_positive_counts(self):
        left, right = Bag([1, 1, 2, 3]), Bag([1, 2, 2, 4])
        assert left.difference(right) == Bag([1, 3])
        assert left.intersection(right) == Bag([1, 2])
        assert 2 not in left.difference(right) and 4 not in left.intersection(right)
        with pytest.raises(ValueError, match="negative multiplicity"):
            Bag.from_counts({1: -1})
        assert Bag.from_counts({1: 0, 2: 2}) == Bag([2, 2])


JOIN_BAG = (
    "select struct(e: e.name, d: d.name) "
    "from e in Employees, d in Departments where e.dno = d.dno"
)
UNNEST_SETS = "select distinct h.name from c in Cities, h in c.hotels where h.name != ''"


@pytest.mark.parametrize("cached", [True, False], ids=["compile-cache", "no-cache"])
def test_shape_one_record_hash_per_bag_row(monkeypatch, cached):
    db = demo_company_database(10, 120, seed=2)
    db = _pinned(db, cached)
    db.run(JOIN_BAG, verify=False)
    entries = []
    original = Record.__hash__

    def counting(self):
        entries.append(1)
        return original(self)

    monkeypatch.setattr(Record, "__hash__", counting)
    result = db.run_detailed(JOIN_BAG, verify=False)
    entered = len(entries)
    monkeypatch.undo()
    rows = len(result.value)
    assert rows == 120 and type(result.value) is Bag
    assert entered <= rows, f"{entered} Record.__hash__ entries for {rows} output rows"
    assert result.value == db.run(JOIN_BAG, engine="interpret")


@pytest.mark.parametrize("cached", [True, False], ids=["compile-cache", "no-cache"])
def test_shape_exact_frozenset_sources_skip_the_monoid_lookup(monkeypatch, cached):
    db = _pinned(demo_travel_database(num_cities=4, seed=1), cached)
    expected = db.run(UNNEST_SETS, engine="interpret")
    calls = []

    def counting(value):
        calls.append(type(value).__name__)
        return runtime_monoid_of(value)

    monkeypatch.setattr(jit_runtime, "runtime_monoid_of", counting)
    result = db.run_detailed(UNNEST_SETS, verify=False)
    assert result.value == expected and result.stats.rows_unnested > 0
    assert calls == []


def _pinned(db, cached):
    """``db`` with every mode off, whatever ``REPRO_*`` says, and a
    compile cache when ``cached``: the plan is compiled once (without one
    each run compiles it afresh, its code from the code cache)."""
    db.disable_telemetry()
    if cached:
        db.enable_cache(CacheConfig(results=False))
    else:
        db.disable_cache()
    return db
