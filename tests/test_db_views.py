"""Named queries (ODMG `define`) and the build-side join heuristic."""

import pytest

from repro.algebra import Join, Optimizer, Scan, build_plan
from repro.errors import DatabaseError
from repro.normalize import is_canonical_comprehension
from repro.oql import translate_oql
from repro.values import Record


@pytest.fixture
def db(company_db):
    return company_db


class TestViews:
    def test_view_expands_into_query(self, db):
        db.define("RichPeople", "select distinct e from e in Employees "
                                "where e.salary > 100000")
        direct = db.run("select distinct e.name from e in Employees "
                        "where e.salary > 100000")
        via_view = db.run("select distinct p.name from p in RichPeople")
        assert via_view == direct

    def test_view_fuses_into_canonical_form(self, db):
        db.define("RichPeople", "select distinct e from e in Employees "
                                "where e.salary > 100000")
        result = db.run_detailed("select distinct p.name from p in RichPeople")
        assert is_canonical_comprehension(result.normalized)
        # the plan scans the base extent — no view materialization
        assert "Employees" in result.plan.render()

    def test_views_compose(self, db):
        db.define("RichPeople", "select distinct e from e in Employees "
                                "where e.salary > 100000")
        db.define("RichOldPeople", "select distinct p from p in RichPeople "
                                   "where p.age > 50")
        out = db.run("select distinct q.name from q in RichOldPeople")
        direct = db.run("select distinct e.name from e in Employees "
                        "where e.salary > 100000 and e.age > 50")
        assert out == direct

    def test_view_name_conflicting_with_extent_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.define("Employees", "select distinct e from e in Employees")

    def test_view_joins_with_extents(self, db):
        db.define("TopFloors", "select distinct d from d in Departments "
                               "where d.floor > 5")
        out = db.run(
            "select distinct e.name from e in Employees, d in TopFloors "
            "where e.dno = d.dno"
        )
        direct = db.run(
            "select distinct e.name from e in Employees, d in Departments "
            "where e.dno = d.dno and d.floor > 5"
        )
        assert out == direct


class TestBuildSideHeuristic:
    """The optimizer used to flip a hash Join whose build (right) side was
    estimated larger; that measured at parity and was deleted
    (EXPERIMENTS.md A3). These now pin what is left: whatever the extent
    sizes, a Join keeps the sides the query wrote."""

    def _join_plan(self):
        return build_plan(
            translate_oql(
                "select distinct 1 from big in Big, small in Small "
                "where big.k = small.k"
            )
        )

    def test_larger_build_side_flipped(self):
        plan = self._join_plan()
        optimized = Optimizer(extent_sizes={"Big": 10_000, "Small": 10}).optimize(plan)
        join = optimized.child
        assert isinstance(join, Join)
        # probe (left) is the big input, build (right) the small: as written
        assert isinstance(join.left, Scan) and join.left.var == "big"
        assert isinstance(join.right, Scan) and join.right.var == "small"

    def test_already_good_order_untouched(self):
        plan = self._join_plan()
        for sizes in ({"Big": 10, "Small": 10_000}, {"Big": 10_000, "Small": 10}, None):
            assert Optimizer(extent_sizes=sizes).optimize(plan) == plan

    def test_flip_preserves_results(self):
        plan = self._join_plan()
        flipped = Optimizer(extent_sizes={"Big": 10_000, "Small": 10}).optimize(plan)
        from repro.algebra import execute_plan

        data = {
            "Big": frozenset(Record(k=i % 5, v=i) for i in range(50)),
            "Small": frozenset(Record(k=i) for i in range(5)),
        }
        assert execute_plan(plan, data) == execute_plan(flipped, data)

    def test_noncommutative_output_not_flipped(self):
        from repro.calculus import comp, eq, gen, proj, var

        term = comp(
            "list",
            const_one := proj(var("big"), "v"),
            [
                gen("big", var("Big")),
                gen("small", var("Small")),
                eq(proj(var("big"), "k"), proj(var("small"), "k")),
            ],
        )
        plan = build_plan(term)
        optimized = Optimizer(extent_sizes={"Big": 10_000, "Small": 10}).optimize(plan)
        join = optimized.child
        assert join.left.var == "big"  # order preserved for list output

    def test_database_passes_sizes(self, db):
        result = db.run_detailed(
            "select distinct struct(e: e.name, d: d.name) "
            "from d in Departments, e in Employees where e.dno = d.dno"
        )
        join = result.plan.child
        assert isinstance(join, Join)
        # The sizes still reach the Optimizer (its signature is the
        # harness's), but nothing reads them: Departments, written first,
        # probes and Employees builds.
        assert join.left.columns() == {"d"} and join.right.columns() == {"e"}
