"""The operator table of ``repro.algebra.ops``: every operator declares
its children, binders and expressions, completely — so a field added
later cannot escape placement, jit, plan-check and invalidation silently
— and selection placement keeps source order."""

from __future__ import annotations

import ast
import dataclasses
import gc
import itertools
import weakref
from pathlib import Path

import pytest

from repro.algebra import Optimizer, build_plan
from repro.algebra.ops import (
    IndexScan,
    Join,
    Nest,
    PlanNode,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
    plan_variables,
)
from repro.calculus import const, eq, gt, mref, proj, var
from repro.calculus.ast import Term
from repro.db import demo_database
from repro.oql import translate_oql


def _scan(name: str = "a") -> Scan:
    return Scan(name, var(name.upper() + "s"))


#: one instance per operator class, every optional field filled in and
#: every term distinct
SAMPLES: dict[type, PlanNode] = {
    Scan: Scan("a", var("As"), "i", Reduce(mref("bag"), var("x"), Scan("x", var("Xs")))),
    IndexScan: IndexScan("a", "As", "k", var("wanted")),
    SelectOp: SelectOp(_scan(), gt(proj(var("a"), "x"), const(1))),
    Join: Join(
        _scan("a"),
        _scan("b"),
        (proj(var("a"), "k"), proj(var("a"), "l")),
        (proj(var("b"), "k"), proj(var("b"), "l")),
        gt(proj(var("a"), "x"), proj(var("b"), "x")),
    ),
    Unnest: Unnest(_scan(), "h", proj(var("a"), "hs"), "j"),
    Reduce: Reduce(mref("bag"), proj(var("a"), "name"), _scan()),
    Nest: Nest(
        _scan(),
        (("k", proj(var("a"), "k")), ("l", proj(var("a"), "l"))),
        (
            ("n", mref("sum"), const(1), None),
            ("t", mref("sum"), proj(var("a"), "v"), gt(proj(var("a"), "v"), const(2))),
        ),
    ),
}


def _subclasses(cls: type) -> set[type]:
    return {cls} | set().union(*map(_subclasses, cls.__subclasses__()))


def _terms(value) -> list[Term]:
    """Every Term inside a dataclass field's value, through tuples."""
    if isinstance(value, Term):
        return [value]
    if isinstance(value, tuple):
        return [term for item in value for term in _terms(item)]
    return []


def test_every_operator_class_is_sampled():
    assert _subclasses(PlanNode) - {PlanNode} == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestTheTableIsTotal:
    def test_the_class_declares_all_of_it_itself(self, cls):
        assert {"CHILDREN", "binds", "_exprs", "label"} <= set(vars(cls))

    def test_children_are_the_operator_typed_fields(self, cls):
        node = SAMPLES[cls]
        operators = tuple(
            f.name for f in dataclasses.fields(node) if isinstance(getattr(node, f.name), PlanNode)
        )
        assert cls.CHILDREN == operators
        assert node.children() == tuple(getattr(node, name) for name in operators)

    def test_every_term_of_every_field_is_in_exactly_one_entry(self, cls):
        node = SAMPLES[cls]
        in_fields = [
            term for f in dataclasses.fields(node) for term in _terms(getattr(node, f.name))
        ]
        declared = [term for entry in node.exprs for _, term in entry.labelled()]
        assert in_fields  # every operator carries at least one
        for term in in_fields:
            assert declared.count(term) == 1, term
        # anything else an entry lists is synthesized (IndexScan's extent name)
        assert len(declared) - len(in_fields) == (cls is IndexScan)

    def test_every_name_field_is_a_binder(self, cls):
        node = SAMPLES[cls]
        names = {
            getattr(node, f.name) for f in dataclasses.fields(node)
            if f.name in ("var", "index_var")
        }
        names |= {name for f in ("keys", "folds") for name, *_ in getattr(node, f, ())}
        assert set(node.binds()) == names
        below = frozenset().union(*[child.columns() for child in node.children()])
        # a group replaces its rows; a Scan's sub-plan binds only for itself
        assert node.columns() == (names if cls in (Nest, Scan) else names | below)

    def test_scopes_are_columns_of_the_node_or_a_child(self, cls):
        node = SAMPLES[cls]
        allowed = [node.columns(), *[child.columns() for child in node.children()]]
        slots = [entry.slot for entry in node.exprs if entry.slot is not None]
        assert len(slots) == len(set(slots))
        for entry in node.exprs:
            if entry.slot is not None:
                assert entry.scope in allowed
                assert node.expr(entry.slot) is entry
            else:  # evaluated once, in the global scope
                assert entry.scope <= node.columns() | {getattr(node, "extent", None)}

    def test_no_entry_holds_its_own_node(self, cls):
        node = SAMPLES[cls]  # a kept ``exprs`` would make the node a cycle
        assert all(entry.over is not node for entry in node.exprs)

    def test_rebuild_and_walk(self, cls):
        node = SAMPLES[cls]
        kids = node.children()
        assert node.with_children(*kids) is node
        if kids:
            other = _scan("z")
            rebuilt = node.with_children(other, *kids[1:])
            assert type(rebuilt) is cls and rebuilt.children() == (other, *kids[1:])
            assert rebuilt == dataclasses.replace(node, **{cls.CHILDREN[0]: other})
        assert list(node.preorder()) == [node, *[n for kid in kids for n in kid.preorder()]]
        assert node.render().splitlines()[0] == node.label()


def test_derived_structure_is_computed_once_per_node():
    join = SAMPLES[Join]
    assert join.columns() is join.columns() and join.exprs is join.exprs
    assert plan_variables(Reduce(mref("set"), var("a"), join)) == {"a", "b"}


@pytest.mark.parametrize(
    "oql",
    [
        "select distinct e.name from e in Employees",
        "select distinct struct(e: e.name, d: d.name) from e in Employees, d in Departments "
        "where e.dno = d.dno and e.salary > d.dno",
    ],
)
def test_a_dropped_plan_is_freed_without_the_collector(oql):
    """Plan keys, emission and plan-check read every node's ``exprs``; a
    plan dropped after a run still dies by reference counting alone."""
    db = demo_database("company")
    db.disable_cache()
    entry = db.compile(oql)
    db.run(oql)
    refs = [weakref.ref(node) for node in entry.plan.preorder()]
    assert any(type(ref()) is Join for ref in refs) == ("Departments" in oql)
    gc.disable()
    try:
        del entry
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# -- placement keeps source order -------------------------------------------------

LOCAL = ["c.population > 1", "c.name != 'x'", "c.state = 'OR'", "c.hotel_count < 9"]
DEEP = ["h.stars > 2", "h.name != c.name", "h.stars < 6"]


def _selects(plan: PlanNode) -> list[str]:
    """Selection predicates in execution order (innermost first) along
    the plan's one spine."""
    preds = [str(node.pred) for node in plan.preorder() if isinstance(node, SelectOp)]
    return preds[::-1]


def _conjuncts(n_local: int, n_deep: int):
    for local in itertools.permutations(LOCAL, n_local):
        for deep in itertools.permutations(DEEP, n_deep):
            yield list(local), list(deep)


@pytest.mark.parametrize("optimize", [False, True], ids=["build_plan", "optimized"])
def test_stacked_selects_execute_in_source_order(optimize):
    """Selections over one input stay in the order the ``where`` clause
    wrote them — the order the reference evaluator tests them in —
    straight out of ``build_plan``, optimizer or not."""
    checked = 0
    for local, deep in itertools.chain(_conjuncts(3, 0), _conjuncts(2, 2)):
        # interleave: a deep conjunct first must not reorder the local ones
        written = [p for pair in itertools.zip_longest(deep, local) for p in pair if p]
        source = "c in Cities, h in c.hotels" if deep else "c in Cities"
        plan = build_plan(
            translate_oql(f"select distinct c.name from {source} where {' and '.join(written)}")
        )
        if optimize:
            plan = Optimizer(set(), {"Cities": 10}).optimize(plan)
        want = [f"({p})" for p in local + deep]
        assert _selects(plan) == want, written
        checked += 1
    assert checked > 50


def test_an_index_takes_its_conjunct_and_leaves_the_rest_in_order():
    plan = build_plan(translate_oql(
        "select distinct c.name from c in Cities "
        "where c.population > 1 and c.state = 'OR' and c.hotel_count < 9"
    ))
    optimized = Optimizer({("Cities", "state")}).optimize(plan)
    assert _selects(optimized) == ["(c.population > 1)", "(c.hotel_count < 9)"]
    (leaf,) = [node for node in optimized.preorder() if not node.children()]
    assert isinstance(leaf, IndexScan) and leaf.key == const("OR")


def test_a_later_conjunct_still_sinks_past_an_earlier_one_to_go_deeper():
    plan = build_plan(translate_oql(
        "select distinct a.x from a in Ls, b in Rs where a.m < b.m and b.z > 3 and a.k = b.k"
    ))
    join = plan.child.child
    assert isinstance(plan.child, SelectOp) and str(plan.child.pred) == "(a.m < b.m)"
    assert isinstance(join, Join) and join.left_keys == (proj(var("a"), "k"),)
    assert isinstance(join.right, SelectOp) and str(join.right.pred) == "(b.z > 3)"
    assert eq(proj(var("a"), "k"), proj(var("b"), "k")) not in [
        node.pred for node in plan.preorder() if isinstance(node, SelectOp)
    ]


def test_the_algebra_imports_nothing_above_the_calculus():
    """Plans are built from calculus terms: the front end (``repro.oql``)
    and the layers that drive the algebra (``repro.db``, ``repro.cache``)
    are out of reach, so a planner feature cannot go around the calculus."""
    package = Path(__file__).parents[1] / "src" / "repro" / "algebra"
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert name.split(".")[:2] not in (
                    ["repro", "oql"], ["repro", "db"], ["repro", "cache"]
                ), f"{module.name} imports {name}"
