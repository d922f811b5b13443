"""The Database facade: loading, querying, engines, explain, objects."""

import pytest

from repro.db import Database, HashIndex, travel_schema
from repro.errors import DatabaseError, WellFormednessError
from repro.values import Bag, Record


class TestLoading:
    def test_load_dict_rows(self):
        db = Database()
        db.load_extent("Xs", [{"a": 1}, {"a": 2}])
        assert db.run("count(Xs)") == 2

    def test_rows_deep_converted(self):
        db = Database()
        db.load_extent("Xs", [{"a": [1, 2], "b": {"c": 3}}])
        out = db.run("select distinct x.b.c from x in Xs")
        assert out == frozenset({3})

    def test_load_monoids(self):
        db = Database()
        db.load_extent("L", [{"a": 1}, {"a": 1}], monoid="list")
        db.load_extent("B", [{"a": 1}, {"a": 1}], monoid="bag")
        db.load_extent("S", [{"a": 1}, {"a": 1}], monoid="set")
        assert db.run("count(L)") == 2
        assert db.run("count(B)") == 2
        assert db.run("count(S)") == 1

    def test_bad_monoid(self):
        db = Database()
        with pytest.raises(DatabaseError):
            db.load_extent("Xs", [{"a": 1}], monoid="tree")

    def test_duplicate_extent_rejected(self):
        db = Database()
        db.load_extent("Xs", [{"a": 1}])
        with pytest.raises(DatabaseError):
            db.load_extent("Xs", [{"a": 2}])
        db.load_extent("Xs", [{"a": 2}], replace=True)

    @pytest.mark.parametrize(
        "load",
        [
            lambda db: db.load_extent("X", 5),
            lambda db: db.load_extents({"X": 5}),
            lambda db: db.load_objects("X", "City", 5),
        ],
        ids=["load_extent", "load_extents", "load_objects"],
    )
    def test_rows_that_are_no_iterable_are_a_database_error(self, load):
        db = Database(travel_schema())
        with pytest.raises(DatabaseError, match="extent 'X' needs an iterable of rows, got int"):
            load(db)

    @pytest.mark.parametrize("leading", [0, 1], ids=["alone", "after_a_city"])
    def test_object_rows_that_are_no_dicts_are_a_database_error(self, leading):
        db = Database(travel_schema())
        city = {"name": "Bend", "hotels": set(), "hotel_count": 0,
                "population": 1, "state": "OR"}
        with pytest.raises(DatabaseError, match="extent 'Cities' needs dict rows, got int"):
            db.load_objects("Cities", "City", [city] * leading + [5])
        assert list(db.registry.all_objects()) == []  # no row was half-loaded

    def test_unknown_extent_in_query(self):
        db = Database()
        from repro.errors import UnboundVariableError

        with pytest.raises(UnboundVariableError):
            db.run("count(Ghost)")


class TestQuerying:
    def test_both_engines_agree(self, travel_db):
        queries = [
            "select distinct c.name from c in Cities",
            "select h.name from c in Cities, h in c.hotels where h.stars >= 3",
            "sum(select h.stars from c in Cities, h in c.hotels)",
            "select distinct c.name from c in Cities "
            "where exists h in c.hotels : h.stars = 5",
        ]
        for q in queries:
            algebra = travel_db.run_detailed(q)
            assert algebra.engine == "algebra", q
            assert algebra.value == db_run(travel_db, q, "interpret"), q

    def test_run_detailed_artifacts(self, travel_db):
        result = travel_db.run_detailed(
            "select distinct h.name from c in Cities, h in c.hotels"
        )
        assert result.engine == "algebra"
        assert result.plan is not None
        assert result.stats is not None
        report = result.pipeline_report()
        assert "OQL:" in report and "plan:" in report

    def test_interpret_fallback_for_non_comprehension(self, travel_db):
        result = travel_db.run_detailed("count(Cities)")
        assert result.engine == "interpret"
        assert result.value == 5

    def test_typecheck_flag(self, travel_db):
        # Cities is a set extent: bag-select over it is ill-formed...
        with pytest.raises(WellFormednessError):
            travel_db.run("select c.name from c in Cities", typecheck=True)
        # ...but the distinct (set) form checks.
        assert travel_db.run(
            "select distinct c.name from c in Cities", typecheck=True
        )

    def test_methods_callable_from_oql(self, travel_db):
        out = travel_db.run(
            "select distinct h.cheapest_room().price from c in Cities, h in c.hotels"
        )
        assert all(isinstance(p, int) for p in out)

    def test_registered_function(self, travel_db):
        travel_db.register_function("shout", lambda s: s.upper())
        out = travel_db.run("select distinct shout(c.name) from c in Cities")
        assert all(name.isupper() for name in out)

    def test_run_calculus(self, travel_db):
        from repro.calculus import comp, gen, proj, var

        term = comp("set", proj(var("c"), "name"), [gen("c", var("Cities"))])
        assert len(travel_db.run_calculus(term)) == 5

    def test_explain(self, travel_db):
        out = travel_db.explain(
            "select distinct h.name from c in Cities, h in c.hotels "
            "where c.name = 'Portland'"
        )
        assert "Scan c <- Cities" in out
        assert "Unnest" in out

    def test_explain_non_comprehension(self, travel_db):
        assert "not a comprehension" in travel_db.explain("count(Cities)")

    @pytest.mark.parametrize(
        "query, kinds",
        [
            ("set(1,2) union bag(1,2)", "frozenset and Bag"),
            ("bag(1,2) union set(1,2)", "Bag and frozenset"),
            ("'ab' union set(1,2)", "str and frozenset"),
            ("list(1,2) union 1", "tuple and int"),
        ],
    )
    @pytest.mark.parametrize("engine", ["auto", "interpret"])
    def test_union_of_two_kinds_is_an_evaluation_error(self, travel_db, query, kinds, engine):
        from repro.errors import EvaluationError

        with pytest.raises(
            EvaluationError, match=f"union requires two collections of one kind, got {kinds}"
        ):
            travel_db.run(query, engine=engine)

    @pytest.mark.parametrize(
        "query, value",
        [("list(1,2) union list(3)", (1, 2, 3)), ("'ab' union 'cd'", "abcd")],
    )
    @pytest.mark.parametrize("engine", ["auto", "interpret"])
    def test_union_of_one_kind_merges(self, travel_db, query, value, engine):
        assert travel_db.run(query, engine=engine) == value


class TestIndexes:
    def test_index_used_by_plan(self, company_db):
        company_db.create_index("Departments", "dno")
        result = company_db.run_detailed(
            "select distinct d.name from d in Departments where d.dno = 2"
        )
        assert result.stats is not None
        assert result.stats.index_probes == 1
        assert "IndexScan" in result.plan.render()

    def test_index_results_match_scan(self, company_db):
        q = "select distinct d.name from d in Departments where d.dno = 2"
        before = company_db.run(q)
        company_db.create_index("Departments", "dno")
        assert company_db.run(q) == before

    def test_index_unknown_extent(self, company_db):
        with pytest.raises(DatabaseError):
            company_db.create_index("Ghosts", "x")

    def test_hash_index_unit(self):
        rows = [Record(k=1), Record(k=1), Record(k=2)]
        idx = HashIndex.build("R", "k", rows)
        assert len(idx.lookup(1)) == 2
        assert idx.lookup(3) == []
        assert len(idx) == 3

    def test_hash_index_requires_records(self):
        with pytest.raises(DatabaseError):
            HashIndex.build("R", "k", [42])

    def test_hash_index_missing_attribute(self):
        with pytest.raises(DatabaseError):
            HashIndex.build("R", "k", [Record(other=1)])


class TestObjectMode:
    def test_load_objects_and_query(self):
        db = Database(travel_schema())
        db.load_objects(
            "Cities",
            "City",
            [
                {"name": "Portland", "hotels": set(), "hotel_count": 0,
                 "population": 100, "state": "OR"},
            ],
        )
        assert db.run("select distinct c.name from c in Cities") == frozenset(
            {"Portland"}
        )

    def test_update_program_through_db(self):
        from repro.calculus import const, eq, proj, var
        from repro.objects import add_to_field, run_update, update_where

        db = Database(travel_schema())
        db.load_objects(
            "Cities",
            "City",
            [{"name": "Portland", "hotels": set(), "hotel_count": 0,
              "population": 100, "state": "OR"}],
        )
        program = update_where(
            "Cities", "c", eq(proj(var("c"), "name"), const("Portland")),
            [add_to_field("hotel_count", const(1))],
        )
        run_update(program, db.evaluator())
        assert db.run("select distinct c.hotel_count from c in Cities") == frozenset({1})

    def test_load_objects_unknown_class(self):
        db = Database()
        with pytest.raises(DatabaseError):
            db.load_objects("Xs", "Ghost", [{"a": 1}])


class TestSampleData:
    def test_travel_agency_deterministic(self):
        from repro.db import make_travel_agency

        a = make_travel_agency(num_cities=3, seed=5)
        b = make_travel_agency(num_cities=3, seed=5)
        assert a == b

    def test_company_shapes(self):
        from repro.db import make_company

        data = make_company(num_departments=3, num_employees=10, seed=1)
        assert len(data["Departments"]) == 3
        assert isinstance(data["Employees"], Bag)
        assert len(data["Employees"]) == 10

    def test_demo_databases(self):
        from repro.db import demo_company_database, demo_travel_database

        assert demo_travel_database(num_cities=2).run("count(Cities)") == 2
        assert demo_company_database(num_employees=5).run("count(Employees)") == 5


def db_run(db, query, engine):
    return db.run(query, engine=engine)
