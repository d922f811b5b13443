"""Update programs as comprehensions — the paper's hotel insertion."""

import pytest

from repro.calculus import const, eq, proj, rec, var
from repro.db import Database, travel_schema
from repro.eval import Evaluator
from repro.objects import (
    add_to_field,
    run_update,
    set_field,
    update_where,
)
from repro.values import Record


def _city_world():
    """Two city objects with hotel sets, as the paper's db.cities."""
    ev = Evaluator()
    portland = ev.store.new(
        Record(name="Portland", hotels=frozenset({Record(name="Benson")}), hotel_count=1)
    )
    salem = ev.store.new(
        Record(name="Salem", hotels=frozenset(), hotel_count=0)
    )
    ev.bind_global("cities", (portland, salem))
    return ev, portland, salem


def test_paper_update_program_shape():
    program = update_where(
        "cities",
        "c",
        eq(proj(var("c"), "name"), const("Portland")),
        [
            add_to_field("hotels", rec(name=const("New Hotel"))),
            add_to_field("hotel_count", const(1)),
        ],
    )
    text = str(program)
    # the nested select-then-update comprehension form from the paper
    assert text.startswith("set{ c | c <- set{ c | c <- cities,")
    assert "(c.hotels += <name='New Hotel'>)" in text
    assert "(c.hotel_count += 1)" in text


def test_paper_update_program_executes():
    ev, portland, salem = _city_world()
    program = update_where(
        "cities",
        "c",
        eq(proj(var("c"), "name"), const("Portland")),
        [
            add_to_field("hotels", rec(name=const("New Hotel"))),
            add_to_field("hotel_count", const(1)),
        ],
    )
    touched = run_update(program, ev)
    assert touched == frozenset({portland})
    state = ev.store.deref(portland)
    assert state.hotel_count == 2
    assert Record(name="New Hotel") in state.hotels
    # Salem untouched
    assert ev.store.deref(salem).hotel_count == 0


def test_update_without_predicate_touches_all():
    ev, portland, salem = _city_world()
    program = update_where("cities", "c", None, [add_to_field("hotel_count", const(10))])
    touched = run_update(program, ev)
    assert touched == frozenset({portland, salem})
    assert ev.store.deref(salem).hotel_count == 10


def test_set_field_replaces():
    ev, portland, _ = _city_world()
    program = update_where(
        "cities",
        "c",
        eq(proj(var("c"), "name"), const("Portland")),
        [set_field("name", const("PDX"))],
    )
    run_update(program, ev)
    assert ev.store.deref(portland).name == "PDX"


def test_victims_chosen_before_mutation():
    """The nested set materializes targets before updates run, so an
    update that changes the predicate's field still applies exactly once
    to the originally-matching objects."""
    ev, portland, salem = _city_world()
    program = update_where(
        "cities",
        "c",
        eq(proj(var("c"), "hotel_count"), const(0)),
        [add_to_field("hotel_count", const(1))],
    )
    touched = run_update(program, ev)
    assert touched == frozenset({salem})
    assert ev.store.deref(salem).hotel_count == 1
    assert ev.store.deref(portland).hotel_count == 1  # unchanged


def test_bad_operator_rejected():
    with pytest.raises(ValueError):
        from repro.objects import FieldUpdate

        FieldUpdate("x", "-=", const(1))


def test_multiple_updates_apply_in_order():
    ev, portland, _ = _city_world()
    program = update_where(
        "cities",
        "c",
        eq(proj(var("c"), "name"), const("Portland")),
        [
            set_field("hotel_count", const(5)),
            add_to_field("hotel_count", const(2)),
        ],
    )
    run_update(program, ev)
    assert ev.store.deref(portland).hotel_count == 7


# -- Experiment U1 at size: the insertion program over a database extent ------------


def _object_db(num_cities):
    db = Database(travel_schema(), cache=False)
    db.load_objects("Cities", "City", [
        {"name": f"City-{i}", "state": "OR", "population": 1000 * i,
         "hotels": set(), "hotel_count": 0}
        for i in range(num_cities)
    ])
    return db


def _states(db):
    return {state.name: state for state in map(db.store.deref, db.registry.extent("Cities"))}


NEW_HOTEL = Record(name="New Hotel", stars=4)
INSERTION = update_where(
    "Cities",
    "c",
    eq(proj(var("c"), "name"), const("City-1")),
    [add_to_field("hotels", rec(name=const("New Hotel"), stars=const(4))),
     add_to_field("hotel_count", const(1))],
)


@pytest.mark.parametrize("num_cities", [10, 100, 1000])
def test_update_program_series(num_cities):
    db = _object_db(num_cities)
    before = _states(db)
    assert len(run_update(INSERTION, db.evaluator())) == 1
    after = _states(db)
    assert after.pop("City-1") == before.pop("City-1").with_field(
        "hotels", frozenset({NEW_HOTEL})
    ).with_field("hotel_count", 1)
    assert after == before


@pytest.mark.parametrize("num_cities", [10, 100, 1000])
def test_update_program_equals_the_imperative_loop(num_cities):
    """The program leaves the store as the same mutation written by hand
    against the store does."""
    by_query, by_hand = _object_db(num_cities), _object_db(num_cities)
    run_update(INSERTION, by_query.evaluator())
    store = by_hand.store
    for obj in by_hand.registry.extent("Cities"):
        state = store.deref(obj)
        if state.name == "City-1":
            store.assign(obj, state.with_field("hotels", state.hotels | {NEW_HOTEL})
                         .with_field("hotel_count", state.hotel_count + 1))
    assert _states(by_query) == _states(by_hand)


def test_bulk_update_touches_every_object():
    db = _object_db(200)
    program = update_where("Cities", "c", None, [add_to_field("hotel_count", const(1))])
    assert len(run_update(program, db.evaluator())) == 200
    assert {state.hotel_count for state in _states(db).values()} == {1}
