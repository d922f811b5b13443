"""Registry lookups and the regenerated Table 1."""

import pytest

from repro.calculus.ast import Const, MonoidRef
from repro.calculus.parser import parse_calculus
from repro.errors import MonoidError, UnknownMonoidError
from repro.monoids import (
    MonoidRegistry,
    PrimitiveMonoid,
    default_registry,
    get_monoid,
    static_monoid,
    table1,
)


def test_default_registry_has_table1_monoids():
    registry = default_registry()
    for name in ("list", "set", "bag", "oset", "string",
                 "sum", "prod", "max", "min", "some", "all"):
        assert name in registry
        assert registry.get(name).name == name


def test_get_monoid_shorthand():
    assert get_monoid("bag").name == "bag"


def test_unknown_monoid_error_lists_known():
    with pytest.raises(UnknownMonoidError) as err:
        get_monoid("nope")
    assert "nope" in str(err.value)
    assert "bag" in str(err.value)


def test_user_registration():
    registry = MonoidRegistry()
    gcd_monoid = PrimitiveMonoid(
        "gcd", 0, lambda a, b: _gcd(a, b), commutative=True, idempotent=True
    )
    registry.register(gcd_monoid)
    assert registry.get("gcd").merge(12, 18) == 6


def test_duplicate_registration_rejected():
    registry = MonoidRegistry()
    m = PrimitiveMonoid("m", 0, lambda a, b: a + b)
    registry.register(m)
    with pytest.raises(MonoidError):
        registry.register(m)
    registry.register(m, replace=True)  # explicit replace is fine


@pytest.mark.parametrize("name", ["vec", "sorted", "sortedbag"])
def test_built_in_names_rejected(name):
    """The evaluator resolves these names before it reads the registry,
    so a monoid registered under one could never run."""
    registry = MonoidRegistry()
    with pytest.raises(MonoidError, match="reserved"):
        registry.register(PrimitiveMonoid(name, 0, lambda a, b: a + b))
    with pytest.raises(MonoidError, match="reserved"):
        default_registry().register(PrimitiveMonoid(name, 0, lambda a, b: a + b))
    assert name not in default_registry()


class TestStaticMonoid:
    """The one resolver every static layer reads C/I properties through."""

    def test_registered_names_are_the_live_monoids(self):
        for name in default_registry().names():
            assert static_monoid(MonoidRef(name)) is default_registry().get(name)

    def test_keyed_and_vector_references(self):
        key = parse_calculus("\\x. x")
        assert static_monoid(MonoidRef("sorted", key=key)).properties == {
            "commutative", "idempotent"
        }
        assert static_monoid(MonoidRef("sortedbag", key=key)).properties == {"commutative"}
        vec = MonoidRef("vec", element=MonoidRef("max"), size=Const(4))
        assert static_monoid(vec) is get_monoid("max")

    def test_unregistered_is_unknown(self):
        assert static_monoid(MonoidRef("nope")) is None
        assert static_monoid(MonoidRef("vec", element=MonoidRef("nope"))) is None

    def test_properties_are_computed_once(self):
        assert get_monoid("bag").properties is get_monoid("bag").properties


def test_names_sorted():
    registry = default_registry()
    assert registry.names() == sorted(registry.names())


class TestTable1:
    def test_row_count_and_columns(self):
        rows = table1()
        assert len(rows) == 12
        for row in rows:
            assert set(row) == {"monoid", "type", "zero", "unit", "merge", "C/I"}

    def test_ci_column_matches_paper(self):
        flags = {row["monoid"]: row["C/I"] for row in table1()}
        assert flags == {
            "list": "-", "set": "CI", "bag": "C", "oset": "I", "string": "-",
            "sorted[f]": "CI", "sum": "C", "prod": "C", "max": "CI", "min": "CI",
            "some": "CI", "all": "CI",
        }

    def test_zero_unit_and_merge_columns_match_paper(self):
        columns = {row["monoid"]: (row["zero"], row["unit"], row["merge"]) for row in table1()}
        assert columns == {
            "list": ("[]", "[a]", "++"), "set": ("{}", "{a}", "∪"),
            "bag": ("{{}}", "{{a}}", "⊎"), "oset": ("[]", "[a]", "x ++ (y -- x)"),
            "string": ('""', '"a"', "concat"), "sorted[f]": ("[]", "[a]", "sorted merge"),
            "sum": ("0", "a", "+"), "prod": ("1", "a", "*"), "max": ("None", "a", "max"),
            "min": ("None", "a", "min"), "some": ("false", "a", "or"),
            "all": ("true", "a", "and"),
        }

    def test_type_column_sorted_and_oset_are_lists(self):
        types = {row["monoid"]: row["type"] for row in table1()}
        assert types["oset"] == "list(a)"
        assert types["sorted[f]"] == "list(a)"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
