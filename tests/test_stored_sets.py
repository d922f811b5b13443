"""Every set a database holds carries its canonical order.

A value extent (passed through, or built from dict rows), an object's
state and a ``$``-parameter are stored (:func:`repro.values.compare.stored`):
each ``frozenset`` in them, at any depth, becomes a
:class:`~repro.values.compare.StoredSet`, whose ``order`` slot is filled
the first time anything iterates it. The property below draws nested
values — sets of records that hold sets, bags and tuples, with ``True`` /
``1`` / ``1.0`` mixed in — loads them every way, and checks that a plan
and the reference interpreter walk them in ``sorted(…, key=canonical_key)``
order, to equal values with identical reprs, and that no plain set is left
in what the database holds. The count test pins "sorted once": across two
runs on each engine, a loaded nested set is sorted one time.
"""

from __future__ import annotations

import sys
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.calculus import comp, gen, proj, var
from repro.db import Database
from repro.types.schema import Schema
from repro.types.types import ANY
from repro.values import Bag, Record, canonical_key, canonical_order
from repro.values import compare
from repro.values.compare import StoredSet

_SCALARS = st.sampled_from([True, False, 1, 0, 1.0, 2, 2.5, -1, "a", "b", None])
_FLAT_SETS = st.frozensets(_SCALARS, max_size=4)
_ELEMENTS = st.one_of(
    _SCALARS,
    _FLAT_SETS,
    st.builds(lambda k, xs: Record(k=k, xs=xs), _SCALARS, _FLAT_SETS),
    st.lists(_SCALARS, max_size=3).map(tuple),
)
_COLLECTIONS = st.one_of(
    st.frozensets(_ELEMENTS, max_size=4),
    st.lists(_ELEMENTS, max_size=4).map(Bag),
    st.lists(_ELEMENTS, max_size=4).map(tuple),
)
_ROWS = st.lists(st.builds(lambda k, xs: Record(k=k, xs=xs), _SCALARS, _COLLECTIONS), max_size=5)

def nested(source: str):
    """``list{ y | x <- source, y <- x.xs }``: the order a plan walks in."""
    return comp("list", var("y"), [gen("x", var(source)), gen("y", proj(var("x"), "xs"))])


def _database() -> Database:
    schema = Schema()
    schema.define_class("Item", {"k": ANY, "xs": ANY}, extent="Items")
    return Database(schema, cache=False, telemetry=False, parallel=False)


def order(collection: Any) -> list:
    """The order a generator over ``collection`` must follow."""
    if type(collection) is tuple:
        return list(collection)
    return sorted(collection, key=canonical_key)


def typed(value: Any) -> Any:
    """``value`` with every scalar beside its type (``True``, ``1`` and
    ``1.0`` differ) and every set in canonical order."""
    if isinstance(value, Record):
        return ("record", tuple(sorted((k, typed(v)) for k, v in value.items())))
    if isinstance(value, (frozenset, Bag)):
        return (type(value).__name__, tuple(map(typed, canonical_order(value))))
    if isinstance(value, tuple):
        return ("tuple", tuple(map(typed, value)))
    return (type(value).__name__, repr(value))


def plain_sets(value: Any) -> list:
    """The plain ``frozenset`` objects in ``value``, at any depth, as a
    query reads it: a stored set through its order."""
    if type(value) is frozenset:
        return [value, *(s for v in value for s in plain_sets(v))]
    if isinstance(value, Record):
        value = value.values()
    elif isinstance(value, (Bag, StoredSet)):
        value = canonical_order(value)
    elif not isinstance(value, tuple):
        return []
    return [s for v in value for s in plain_sets(v)]


def _both_engines(db: Database, term: Any, **params: Any) -> tuple:
    """The value of ``term`` on a plan and on the interpreter: equal, and
    with one repr."""
    if params:
        plan = db.prepare(term).run(**params)
        reference = db.prepare(term, engine="interpret").run(**params)
    else:
        assert db.run_detailed(term).engine == "algebra"
        plan, reference = db.run(term), db.run(term, engine="interpret")
    assert plan == reference and repr(plan) == repr(reference)
    return plan


@given(rows=_ROWS)
def test_every_way_in_is_stored_and_walked_in_canonical_order(rows):
    source = frozenset(rows)
    expected = [y for x in order(source) for y in order(x["xs"])]
    db = _database()
    db.load_extent("S", source)
    dict_rows = [{"k": r["k"], "xs": set(r["xs"]) if type(r["xs"]) is frozenset else r["xs"]}
                 for r in rows]
    db.load_extent("D", dict_rows)
    db.load_objects("Items", "Item", rows)
    for name in ("S", "D"):
        extent = db.catalog.extent(name)
        assert type(extent) is StoredSet and extent == source and not plain_sets(extent)
        assert typed(_both_engines(db, nested(name))) == typed(tuple(expected))
    assert typed(_both_engines(db, nested("$P"), P=source)) == typed(tuple(expected))

    objects = _both_engines(db, comp("list", var("x"), [gen("x", var("Items"))]))
    states = [db.store.deref(obj) for obj in objects]
    assert not plain_sets(tuple(states))
    walked = [y for state in states for y in order(state["xs"])]
    assert typed(_both_engines(db, nested("Items"))) == typed(tuple(walked))


@pytest.fixture
def sorted_sets(monkeypatch) -> list:
    """Every stored set ``canonical_order`` sorts from now on: each one
    it is handed while its ``order`` is still empty, from any module."""
    sorts: list = []
    order = compare.canonical_order

    def counting(collection):
        if type(collection) is StoredSet and collection.order is None:
            sorts.append(collection)
        return order(collection)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "canonical_order", None) is order:
            monkeypatch.setattr(module, "canonical_order", counting)
    return sorts


def test_a_loaded_nested_set_is_sorted_once_across_runs(sorted_sets):
    db = _database()
    db.load_extent("S", frozenset({
        Record(k=1, xs=frozenset({3, 1, 2})),
        Record(k=2, xs=frozenset({Record(k=0, xs=frozenset({"b", "a"})), 5})),
    }))
    extent = db.catalog.extent("S")
    assert extent.order is None  # loading sorts nothing
    fields = [x["xs"] for x in canonical_order(extent)]  # this read orders the extent
    for engine in ("auto", "auto", "interpret", "interpret"):
        assert db.run(nested("S"), engine=engine) == (1, 2, 3, 5, Record(k=0, xs=frozenset("ab")))
    (inner,) = [y["xs"] for xs in fields for y in xs.order if isinstance(y, Record)]
    # the innermost set is sorted for its key, to order the set it is in
    assert len(sorted_sets) == 3
    for collection in (*fields, inner):
        assert sum(s is collection for s in sorted_sets) == 1, collection


def test_a_parameter_is_stored_once_per_run(sorted_sets):
    """However many rows walk a bound set, it is sorted once in the run;
    the caller's set is not changed by binding it."""
    db = _database()
    db.load_extent("S", frozenset(Record(k=i, xs=(i,)) for i in range(4)))
    bound = frozenset({2, 1})
    statement = db.prepare(comp("list", var("z"), [gen("x", var("S")), gen("z", var("$P"))]))
    for runs in (1, 2):
        assert statement.run(P=bound) == (1, 2) * 4
        assert sum(s == bound for s in sorted_sets) == runs and type(bound) is frozenset
