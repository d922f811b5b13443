"""Section 4.2: object identity, dereference, assignment, updates.

The five worked examples from the paper, plus the object-store unit
behaviour the evaluator relies on.
"""

import pytest

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
    rec,
    update,
    var,
)
from repro.errors import EvaluationError, ObjectStoreError
from repro.eval import Evaluator, evaluate
from repro.normalize import normalize
from repro.objects import Obj, ObjectStore
from repro.values import Record


class TestPaperExamples:
    """The paper's five examples, verbatim results."""

    def test_distinct_objects_are_not_equal(self):
        # some{ x = y | x <- new(1), y <- new(1) } -> false
        term = comp(
            "some",
            eq(var("x"), var("y")),
            [bind("x", _new_obj(1)), bind("y", _new_obj(1))],
        )
        assert evaluate(term) is False

    def test_aliased_objects_are_equal(self):
        # some{ x = y | x <- new(1), y == x, y := 2 } -> true
        term = comp(
            "some",
            eq(var("x"), var("y")),
            [bind("x", _new_obj(1)), bind("y", var("x")), assign(var("y"), const(2))],
        )
        assert evaluate(term) is True

    def test_assignment_through_alias_is_visible(self):
        # sum{ !x | x <- new(1), y == x, y := 2 } -> 2
        term = comp(
            "sum",
            deref(var("x")),
            [bind("x", _new_obj(1)), bind("y", var("x")), assign(var("y"), const(2))],
        )
        assert evaluate(term) == 2

    def test_state_replacement_then_iteration(self):
        # set{ e | x <- new([]), x := [1,2], e <- !x } -> {1, 2}
        term = comp(
            "set",
            var("e"),
            [
                bind("x", _new_obj(())),
                assign(var("x"), const((1, 2))),
                gen("e", deref(var("x"))),
            ],
        )
        assert evaluate(term) == frozenset({1, 2})

    def test_running_sums(self):
        # list{ !x | x <- new(0), e <- [1,2,3,4], x := !x + e } -> [1,3,6,10]
        term = comp(
            "list",
            deref(var("x")),
            [
                bind("x", _new_obj(0)),
                gen("e", const((1, 2, 3, 4))),
                assign(var("x"), add(deref(var("x")), var("e"))),
            ],
        )
        assert evaluate(term) == (1, 3, 6, 10)

    EXAMPLES = {
        "distinct-objects": (
            comp("some", eq(var("x"), var("y")),
                 [bind("x", new(const(1))), bind("y", new(const(1)))]),
            False,
        ),
        "alias-equality": (
            comp("some", eq(var("x"), var("y")),
                 [bind("x", new(const(1))), bind("y", var("x")), assign(var("y"), const(2))]),
            True,
        ),
        "alias-mutation": (
            comp("sum", deref(var("x")),
                 [bind("x", new(const(1))), bind("y", var("x")), assign(var("y"), const(2))]),
            2,
        ),
        "state-iteration": (
            comp("set", var("e"),
                 [bind("x", new(const(()))), assign(var("x"), const((1, 2))),
                  gen("e", deref(var("x")))]),
            frozenset({1, 2}),
        ),
        "running-sums": (
            comp("list", deref(var("x")),
                 [bind("x", new(const(0))), gen("e", const((1, 2, 3, 4))),
                  assign(var("x"), add(deref(var("x")), var("e")))]),
            (1, 3, 6, 10),
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_paper_object_examples(self, name):
        """Normalization's effect guards keep each example's value: no rule
        duplicates or drops a ``new`` or an assignment."""
        term, expected = self.EXAMPLES[name]
        assert Evaluator().evaluate(term) == expected
        assert Evaluator().evaluate(normalize(term)) == expected


class TestObjectOperations:
    def test_new_returns_distinct_oids(self):
        ev = Evaluator()
        a = ev.evaluate(_new_obj(1))
        b = ev.evaluate(_new_obj(1))
        assert isinstance(a, Obj) and isinstance(b, Obj)
        assert a != b

    def test_states_can_be_equal(self):
        ev = Evaluator()
        a = ev.evaluate(_new_obj(5))
        b = ev.evaluate(_new_obj(5))
        assert ev.store.deref(a) == ev.store.deref(b)

    def test_assignment_returns_true(self):
        ev = Evaluator()
        obj = ev.evaluate(_new_obj(1))
        ev.bind_global("o", obj)
        assert ev.evaluate(assign(var("o"), const(2))) is True
        assert ev.store.deref(obj) == 2

    def test_deref_of_non_object(self):
        with pytest.raises(ObjectStoreError):
            evaluate(deref(const(3)))

    def test_projection_dereferences_objects(self):
        """OQL path expressions implicitly dereference (the paper's e..name)."""
        from repro.calculus import proj

        ev = Evaluator()
        obj = ev.store.new(Record(name="Ann"))
        ev.bind_global("p", obj)
        assert ev.evaluate(proj(var("p"), "name")) == "Ann"

    def test_generator_dereferences_object_collections(self):
        ev = Evaluator()
        obj = ev.store.new((1, 2, 3))
        ev.bind_global("xs", obj)
        term = comp("sum", var("x"), [gen("x", var("xs"))])
        assert ev.evaluate(term) == 6


class TestUpdateTerm:
    def test_field_replace(self):
        ev = Evaluator()
        obj = ev.store.new(Record(n=1, tags=frozenset()))
        ev.bind_global("o", obj)
        assert ev.evaluate(update(var("o"), "n", ":=", const(9))) is True
        assert ev.store.deref(obj).n == 9

    def test_numeric_increment(self):
        ev = Evaluator()
        obj = ev.store.new(Record(n=1))
        ev.bind_global("o", obj)
        ev.evaluate(update(var("o"), "n", "+=", const(5)))
        assert ev.store.deref(obj).n == 6

    def test_collection_element_insert(self):
        """The paper's c.hotels += <name=...> inserts one element."""
        ev = Evaluator()
        obj = ev.store.new(Record(hotels=frozenset({Record(name="Old")})))
        ev.bind_global("c", obj)
        ev.evaluate(update(var("c"), "hotels", "+=", rec(name=const("New"))))
        hotels = ev.store.deref(obj).hotels
        assert Record(name="New") in hotels and Record(name="Old") in hotels

    def test_collection_merge(self):
        ev = Evaluator()
        obj = ev.store.new(Record(xs=(1,)))
        ev.bind_global("o", obj)
        ev.evaluate(update(var("o"), "xs", "+=", const((2, 3))))
        assert ev.store.deref(obj).xs == (1, 2, 3)

    def test_update_requires_object(self):
        with pytest.raises(EvaluationError):
            evaluate(update(const(3), "n", "+=", const(1)))

    def test_update_requires_record_state(self):
        ev = Evaluator()
        obj = ev.store.new(3)
        ev.bind_global("o", obj)
        with pytest.raises(EvaluationError):
            ev.evaluate(update(var("o"), "n", "+=", const(1)))


class TestObjectStoreUnit:
    def test_snapshot_restore(self):
        store = ObjectStore()
        x = store.new(1)
        snap = store.snapshot()
        store.assign(x, 2)
        store.restore(snap)
        assert store.deref(x) == 1

    def test_dangling_oid(self):
        store = ObjectStore()
        with pytest.raises(ObjectStoreError):
            store.deref(Obj(99))

    def test_objects_enumeration(self):
        store = ObjectStore()
        a = store.new(1)
        b = store.new(2)
        assert list(store.objects()) == [a, b]
        assert len(store) == 2

    def test_contains(self):
        store = ObjectStore()
        a = store.new(1)
        assert store.contains(a)
        assert not store.contains(Obj(99))


def _new_obj(state):
    return new(const(state))
