"""The heuristic optimizer: index selection, pushdown, key promotion —
and the EXPLAIN estimates of the plans it returns."""


from repro.algebra import (
    IndexScan,
    Join,
    Nest,
    Optimizer,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
    build_plan,
    plan_group_by,
)
from repro.calculus import const, eq, gt, proj, var
from repro.obs.explain import estimate_cardinalities, plan_to_dict, render_explain
from repro.oql import translate_oql


def _plan(oql: str):
    return build_plan(translate_oql(oql))


def estimate_cardinality(plan, sizes):
    return estimate_cardinalities(plan, sizes)[id(plan)]


def test_index_selection_rewrites_scan():
    plan = _plan("select distinct c from c in Cities where c.zip = 97201")
    optimized = Optimizer({("Cities", "zip")}).optimize(plan)
    assert isinstance(optimized.child, IndexScan)
    assert optimized.child.extent == "Cities"
    assert optimized.child.attribute == "zip"


def test_index_selection_handles_swapped_equality():
    plan = _plan("select distinct c from c in Cities where 97201 = c.zip")
    optimized = Optimizer({("Cities", "zip")}).optimize(plan)
    assert isinstance(optimized.child, IndexScan)


def test_no_index_no_rewrite():
    plan = _plan("select distinct c from c in Cities where c.zip = 97201")
    optimized = Optimizer(set()).optimize(plan)
    assert isinstance(optimized.child, SelectOp)


def test_non_equality_predicate_not_indexed():
    plan = _plan("select distinct c from c in Cities where c.zip > 97201")
    optimized = Optimizer({("Cities", "zip")}).optimize(plan)
    assert isinstance(optimized.child, SelectOp)


def test_self_referencing_key_not_indexed():
    plan = _plan("select distinct c from c in Cities where c.zip = c.other")
    optimized = Optimizer({("Cities", "zip")}).optimize(plan)
    assert isinstance(optimized.child, SelectOp)


def test_selection_pushdown_below_join():
    # Build an unpushed plan by hand: Select over Join.
    raw = Reduce(
        _plan("select distinct 1 from a in Ls, b in Rs").monoid,
        const(1),
        SelectOp(
            Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
            gt(proj(var("a"), "x"), const(1)),
        ),
    )
    optimized = Optimizer().optimize(raw)
    join = optimized.child
    assert isinstance(join, Join)
    assert isinstance(join.left, SelectOp)


def test_selection_pushdown_below_unnest():
    raw = Reduce(
        _plan("select distinct 1 from a in Ls").monoid,
        const(1),
        SelectOp(
            Unnest(Scan("c", var("Cs")), "h", proj(var("c"), "hotels")),
            gt(proj(var("c"), "pop"), const(1)),
        ),
    )
    optimized = Optimizer().optimize(raw)
    assert isinstance(optimized.child, Unnest)
    assert isinstance(optimized.child.child, SelectOp)


def test_join_key_promotion():
    raw = Reduce(
        _plan("select distinct 1 from a in Ls").monoid,
        const(1),
        SelectOp(
            Join(Scan("a", var("Ls")), Scan("b", var("Rs"))),
            eq(proj(var("a"), "k"), proj(var("b"), "k")),
        ),
    )
    optimized = Optimizer().optimize(raw)
    join = optimized.child
    assert isinstance(join, Join)
    assert len(join.left_keys) == 1


class TestCardinalityEstimates:
    def test_scan_uses_extent_sizes(self):
        plan = _plan("select distinct c from c in Cities")
        assert estimate_cardinality(plan, {"Cities": 42}) == 42.0

    def test_selection_reduces(self):
        plan = _plan("select distinct c from c in Cities where c.x = 1")
        est = estimate_cardinality(plan, {"Cities": 100})
        assert est < 100

    def test_hash_join_vs_cross(self):
        keyed = _plan("select distinct 1 from a in Ls, b in Rs where a.k = b.k")
        cross = _plan("select distinct 1 from a in Ls, b in Rs")
        sizes = {"Ls": 10, "Rs": 20}
        assert estimate_cardinality(keyed, sizes) < estimate_cardinality(cross, sizes)

    def test_index_scan_small(self):
        plan = Optimizer({("Cities", "zip")}).optimize(
            _plan("select distinct c from c in Cities where c.zip = 1")
        )
        assert estimate_cardinality(plan, {"Cities": 1000}) <= 10

    def test_primitive_reduce_is_one_row(self):
        plan = _plan("sum(select c.population from c in Cities)")
        assert estimate_cardinality(plan, {"Cities": 50}) == 1.0

    def test_nest_keeps_a_tenth_of_its_rows_as_groups(self):
        plan = plan_group_by(translate_oql(
            "select struct(d: dno, n: count(partition)) from e in Employees "
            "group by dno: e.dno"
        ))
        nest = next(node for node in plan.preorder() if isinstance(node, Nest))
        assert estimate_cardinalities(plan, {"Employees": 90})[id(nest)] == 9.0

    def test_explain_renders_estimates(self):
        plan = _plan("select distinct h from c in Cities, h in c.hotels")
        out = render_explain({"plan": plan_to_dict(plan, {"Cities": 10})})
        assert "Scan c <- Cities" in out and "est~10" in out
        assert "Unnest" in out and "est~40" in out
