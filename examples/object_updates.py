#!/usr/bin/env python3
"""Section 4.2: identity and updates in the calculus.

Run:  python examples/object_updates.py

Replays the paper's five object examples (with their printed results)
and the hotel-insertion update program, all through the evaluator's
heap-threading semantics.
"""

from repro.calculus import (
    add,
    assign,
    bind,
    comp,
    const,
    deref,
    eq,
    gen,
    new,
    proj,
    rec,
    var,
)
from repro.db import Database, travel_schema
from repro.eval import Evaluator, evaluate
from repro.objects import add_to_field, update_where
from repro.values import to_python


def show(title, term, expected):
    value = evaluate(term)
    print(f"{title}\n  {term}\n  => {value!r}   (paper: {expected})\n")


def main() -> None:
    print("=== The paper's five object examples ===\n")
    show(
        "distinct objects differ",
        comp("some", eq(var("x"), var("y")),
             [bind("x", new(const(1))), bind("y", new(const(1)))]),
        "false",
    )
    show(
        "aliases are the same object",
        comp("some", eq(var("x"), var("y")),
             [bind("x", new(const(1))), bind("y", var("x")),
              assign(var("y"), const(2))]),
        "true",
    )
    show(
        "mutation through an alias is visible",
        comp("sum", deref(var("x")),
             [bind("x", new(const(1))), bind("y", var("x")),
              assign(var("y"), const(2))]),
        "2",
    )
    show(
        "replace state, then iterate it",
        comp("set", var("e"),
             [bind("x", new(const(()))), assign(var("x"), const((1, 2))),
              gen("e", deref(var("x")))]),
        "{1, 2}",
    )
    show(
        "running sums via a mutable accumulator",
        comp("list", deref(var("x")),
             [bind("x", new(const(0))), gen("e", const((1, 2, 3, 4))),
              assign(var("x"), add(deref(var("x")), var("e")))]),
        "[1, 3, 6, 10]",
    )

    print("=== The update program (hotel insertion) ===\n")
    db = Database(travel_schema())
    db.load_objects(
        "Cities",
        "City",
        [
            {"name": "Portland", "state": "OR", "population": 650_000,
             "hotels": set(), "hotel_count": 0},
            {"name": "Salem", "state": "OR", "population": 170_000,
             "hotels": set(), "hotel_count": 0},
        ],
    )
    program = update_where(
        "Cities",
        "c",
        eq(proj(var("c"), "name"), const("Portland")),
        [
            add_to_field(
                "hotels",
                rec(
                    name=const("Hotel Monaco"),
                    address=const("506 SW Washington St"),
                    stars=const(4),
                    rooms=const(()),
                    facilities=const(frozenset()),
                ),
            ),
            add_to_field("hotel_count", const(1)),
        ],
    )
    print("update comprehension:")
    print(" ", program, "\n")
    touched = db.run_calculus(program)  # a write is a query: compile, then execute
    print("objects touched:", touched)
    print(
        "hotels in Portland now:",
        to_python(
            db.run(
                "select distinct h.name from c in Cities, h in c.hotels "
                "where c.name = 'Portland'"
            )
        ),
    )
    print(
        "hotel_count per city:",
        to_python(
            db.run("select distinct struct(c: c.name, n: c.hotel_count) from c in Cities")
        ),
    )


if __name__ == "__main__":
    main()
