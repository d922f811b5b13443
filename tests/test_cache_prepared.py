"""Prepared statements: $params, validation, recompilation, caching."""

import pytest

from repro.db.database import Database, demo_travel_database
from repro.errors import DatabaseError, OQLSyntaxError
from repro.values import to_python


def _db(cache=False):
    db = demo_travel_database(num_cities=6, seed=3)
    if cache:
        db.enable_cache()
    return db


class TestBasics:
    def test_single_param(self):
        db = _db()
        q = db.prepare(
            "select distinct c.name from c in Cities where c.population > $min")
        assert q.params == ("min",)
        everyone = q.run(min=0)
        nobody = q.run(min=10**12)
        assert nobody == frozenset()
        assert everyone == db.run(
            "select distinct c.name from c in Cities where c.population > 0")

    def test_multiple_params_sorted(self):
        db = _db()
        q = db.prepare(
            "select distinct c.name from c in Cities "
            "where c.population > $min and c.state = $state")
        assert q.params == ("min", "state")
        assert q.run(min=0, state="OR") == db.run(
            "select distinct c.name from c in Cities "
            "where c.population > 0 and c.state = 'OR'")

    def test_callable_alias(self):
        db = _db()
        q = db.prepare("select c.name from c in Cities where c.population > $min")
        assert to_python(q(min=0)) == to_python(q.run(min=0))

    def test_param_in_head(self):
        db = _db()
        q = db.prepare("select distinct struct(tag: $tag, name: c.name) "
                       "from c in Cities")
        rows = q.run(tag="x")
        assert rows and all(r["tag"] == "x" for r in rows)

    def test_no_params(self):
        db = _db()
        q = db.prepare("count(Cities)")
        assert q.params == ()
        assert q.run() == 6


class TestValidation:
    def test_missing_binding(self):
        q = _db().prepare(
            "select c.name from c in Cities where c.population > $min")
        with pytest.raises(DatabaseError, match="missing parameters: min"):
            q.run()

    def test_extra_binding(self):
        q = _db().prepare(
            "select c.name from c in Cities where c.population > $min")
        with pytest.raises(DatabaseError, match="unexpected parameters: bogus"):
            q.run(min=0, bogus=1)

    def test_compile_errors_surface_at_prepare(self):
        with pytest.raises(OQLSyntaxError):
            _db().prepare("select from where")

    def test_bare_dollar_rejected(self):
        with pytest.raises(OQLSyntaxError):
            _db().prepare("select c.name from c in Cities where c.population > $")

    def test_typecheck_with_param_types(self):
        from repro.types.types import TINT

        db = _db()
        q = db.prepare(
            "select distinct c.name from c in Cities where c.population > $min",
            typecheck=True,
            param_types={"min": TINT},
        )
        assert q.run(min=0) is not None

    @pytest.mark.parametrize("cache", [False, True])
    def test_param_types_are_part_of_the_compile_key(self, cache):
        from repro.errors import TypingError
        from repro.types.types import TSTRING

        db = _db(cache)
        oql = "select distinct c.name from c in Cities where c.population > $min"
        db.prepare(oql, typecheck=True)  # $min is ANY: it type-checks
        with pytest.raises(TypingError, match="incompatible types in comparison >: int vs string"):
            db.prepare(oql, typecheck=True, param_types={"min": TSTRING})


class TestWithCache:
    def test_bindings_get_separate_result_entries(self):
        db = _db(cache=True)
        q = db.prepare(
            "select distinct c.name from c in Cities where c.population > $min")
        a1 = q.run(min=0)
        a2 = q.run(min=0)  # result hit
        b = q.run(min=10**12)
        assert a1 == a2 and b == frozenset()
        stats = db.cache.stats_dict()
        assert stats["result_hits"] >= 1
        assert stats["result_entries"] >= 2

    def test_querylog_marks_prepared(self):
        import json

        db = _db(cache=True)
        lines = []
        db.profile(True, sink=lines.append)
        q = db.prepare("select c.name from c in Cities where c.population > $min")
        q.run(min=0)
        db.profile(False)
        entry = json.loads(lines[-1])
        assert entry["cache"]["compile"] == "prepared"

    def test_shares_compiled_entry_with_adhoc_equivalents(self):
        db = _db(cache=True)
        db.prepare("select distinct c.name from c in Cities where c.state = $s")
        # the same shape spelled with another binder still shares
        db.prepare("select distinct x.name from x in Cities where x.state = $s")
        assert db.cache.stats_dict()["compiled_entries"] == 1


class TestRecompilation:
    def test_recompiles_after_catalog_change(self):
        db = Database()
        db.load_extents({"Rs": [{"k": i % 3, "v": i} for i in range(9)]})
        q = db.prepare("select distinct r.v from r in Rs where r.k = $k")
        before = q.run(k=1)
        first_entry = q._entry
        db.create_index("Rs", "k")
        after = q.run(k=1)
        assert after == before
        assert q._entry is not first_entry  # version moved, recompiled

    def test_reload_extents_seen(self):
        db = Database()
        db.load_extents({"Ns": [1, 2, 3]})
        q = db.prepare("sum(select n from n in Ns where n > $floor)")
        assert q.run(floor=0) == 6
        db.load_extents({"Ns": [10, 20]}, replace=True)
        assert q.run(floor=0) == 30

    def test_works_with_cache_and_catalog_change(self):
        db = Database(cache=True)
        db.load_extents({"Ns": [1, 2, 3]})
        q = db.prepare("sum(select n from n in Ns where n > $floor)")
        assert q.run(floor=0) == 6
        db.load_extents({"Ns": [5]}, replace=True)
        assert q.run(floor=0) == 5
