"""Unit tests for canonical ordering and to_python conversion."""

from repro.values import (
    Bag,
    OrderedSet,
    Record,
    Vector,
    canonical_key,
    canonical_sorted,
    to_python,
)


def test_total_order_across_types():
    values = ["z", 3, True, None, (1,)]
    ordered = canonical_sorted(values)
    assert ordered == [None, True, 3, "z", (1,)]


def test_bool_ranks_before_numbers():
    assert canonical_sorted([1, False]) == [False, 1]


def test_numbers_sort_numerically():
    assert canonical_sorted([2.5, 1, 3]) == [1, 2.5, 3]


def test_tuples_sort_lexicographically():
    assert canonical_sorted([(2, 1), (1, 9), (1, 2)]) == [(1, 2), (1, 9), (2, 1)]


def test_sets_sort_by_sorted_contents():
    a = frozenset({3, 1})
    b = frozenset({2})
    assert canonical_sorted([a, b]) == [a, b] or canonical_sorted([a, b]) == [b, a]
    # deterministic across calls
    assert canonical_sorted([a, b]) == canonical_sorted([b, a])


def test_records_sort_by_fields():
    a = Record(x=1)
    b = Record(x=2)
    assert canonical_sorted([b, a]) == [a, b]


def test_bags_and_osets_have_keys():
    assert canonical_key(Bag([1, 1]))[0] != canonical_key(OrderedSet([1]))[0]


def test_sorting_is_deterministic_for_mixed_nested_values():
    values = [Bag([1]), frozenset({1}), (1,), OrderedSet([1]), Record(a=1)]
    assert canonical_sorted(values) == canonical_sorted(list(reversed(values)))


def test_to_python_list_monoid_tuple():
    assert to_python((1, 2, 3)) == [1, 2, 3]


def test_to_python_nested():
    value = Record(a=(1, 2), b=Bag(["x"]))
    assert to_python(value) == {"a": [1, 2], "b": ["x"]}


def test_to_python_set_of_tuples():
    out = to_python(frozenset({(1, 2)}))
    assert out == {(1, 2)}


def test_to_python_vector():
    assert to_python(Vector.from_dense([1, 2])) == [1, 2]


def test_to_python_scalars_pass_through():
    assert to_python(42) == 42
    assert to_python("s") == "s"
    assert to_python(None) is None


def test_keys_by_type_and_base_type():
    """``canonical_key`` looks the value's MRO up in one table: the
    carriers by their own type, ``bool`` before ``int``, a subclass by its
    base, and an OID by the entry ``repro.objects`` registers."""
    from collections import namedtuple

    from repro.objects import Obj

    class Name(str):
        pass

    class Other:
        def __repr__(self) -> str:
            return "other"

    Pair = namedtuple("Pair", "a b")
    expected = [
        (None, (0,)),
        (True, (1, True)),
        (1, (2, 1)),
        (1.5, (2, 1.5)),
        ("a", (3, "a")),
        (Name("a"), (3, "a")),
        (Pair(1, "x"), (4, ((2, 1), (3, "x")))),
        (frozenset({True, 2}), (5, ((1, True), (2, 2)))),
        (Bag([1, 1, (2, "c")]), (6, (((2, 1), 2), ((4, ((2, 2), (3, "c"))), 1)))),
        (OrderedSet([3, 1]), (7, ((2, 3), (2, 1)))),
        (Record(a=1, b=frozenset({Record(c=2)})),
         (8, (("a", (2, 1)), ("b", (5, ((8, (("c", (2, 2)),)),)))))),
        (Vector(3, 0, {1: 5}), (9, 3, ((2, 0), (2, 5), (2, 0)))),
        (Obj(12), (10, "Obj", "obj#12")),
        ((Obj(2), Obj(10)), (4, ((10, "Obj", "obj#2"), (10, "Obj", "obj#10")))),
        (Other(), (10, "Other", "other")),
    ]
    for value, key in expected:
        assert canonical_key(value) == key, value
