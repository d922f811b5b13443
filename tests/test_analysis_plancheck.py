"""Physical-plan scoping/schema verification and the optimizer hook."""

import pytest

from repro.algebra.ops import (
    IndexScan,
    Join,
    Nest,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
)
from repro.analysis.plancheck import (
    check_plan_rewrite,
    plan_variables,
    verify_plan,
)
from repro.analysis.verifier import verification
from repro.calculus.builders import eq, gt, mref, proj, var
from repro.errors import VerificationError


def scan(name, extent):
    return Scan(name, var(extent))


def violations(exc_info):
    return [v.invariant for v in exc_info.value.violations]


class TestPlanVariables:
    def test_collects_all_binders(self):
        plan = Join(
            scan("c", "Cities"),
            Unnest(scan("d", "Depts"), "e", proj(var("d"), "emps")),
        )
        assert plan_variables(plan) == {"c", "d", "e"}

    def test_nest_binds_labels_and_partition(self):
        plan = Nest(
            scan("e", "Employees"),
            keys=(("dno", proj(var("e"), "dno")),),
            folds=(
                ("partition", mref("bag"), var("e"), None),
                ("total", mref("sum"), proj(var("e"), "salary"), None),
            ),
        )
        assert plan_variables(plan) == {"e", "dno", "partition", "total"}


class TestGoodPlans:
    def test_scan_select_reduce(self):
        plan = Reduce(
            mref("bag"),
            proj(var("c"), "name"),
            SelectOp(scan("c", "Cities"), gt(proj(var("c"), "pop"), 0)),
        )
        verify_plan(plan)  # must not raise

    def test_join_with_sided_keys(self):
        plan = Reduce(
            mref("bag"),
            var("c"),
            Join(
                scan("c", "Cities"),
                scan("h", "Hotels"),
                left_keys=(proj(var("c"), "name"),),
                right_keys=(proj(var("h"), "city"),),
                residual=gt(proj(var("h"), "stars"), 2),
            ),
        )
        verify_plan(plan)

    def test_unnest_over_parent_path(self):
        plan = Reduce(
            mref("bag"),
            var("h"),
            Unnest(scan("c", "Cities"), "h", proj(var("c"), "hotels")),
        )
        verify_plan(plan)

    def test_index_scan_with_constant_key(self):
        plan = Reduce(
            mref("bag"),
            var("c"),
            IndexScan("c", "Cities", "state", var("target_state")),
        )
        verify_plan(plan)


class TestBadPlans:
    def test_select_pred_from_other_join_side(self):
        # the predicate over d is sunk into c's side, where d is unbound
        plan = Join(
            SelectOp(scan("c", "Cities"), gt(proj(var("d"), "pop"), 0)),
            scan("d", "Docks"),
        )
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "plan-scope" in violations(exc)
        assert "'d'" in str(exc.value)

    def test_join_sides_overlap(self):
        plan = Join(scan("c", "Cities"), scan("c", "Docks"))
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "plan-schema" in violations(exc)

    def test_join_key_on_wrong_side(self):
        plan = Join(
            scan("c", "Cities"),
            scan("h", "Hotels"),
            left_keys=(proj(var("h"), "city"),),  # h is a right-side column
            right_keys=(proj(var("h"), "city"),),
        )
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "plan-scope" in violations(exc)

    def test_index_scan_key_referencing_plan_variable(self):
        plan = Join(
            scan("c", "Cities"),
            IndexScan("h", "Hotels", "city", proj(var("c"), "name")),
        )
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "evaluated once" in str(exc.value)

    def test_unnest_path_referencing_sibling(self):
        plan = Join(
            scan("c", "Cities"),
            Unnest(scan("d", "Docks"), "h", proj(var("c"), "hotels")),
        )
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "plan-scope" in violations(exc)

    def test_unnest_rebinding(self):
        plan = Unnest(scan("c", "Cities"), "c", proj(var("c"), "hotels"))
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert "plan-schema" in violations(exc)

    @pytest.mark.parametrize(
        "head, pred",
        [
            (proj(var("d"), "budget"), None),  # d is the other join side's column
            (proj(var("e"), "salary"), gt(var("dno"), 0)),  # the Nest's own label
        ],
    )
    def test_nest_fold_term_not_bound_by_its_input(self, head, pred):
        nest = Nest(
            scan("e", "Employees"),
            keys=(("dno", proj(var("e"), "dno")),),
            folds=(("total", mref("sum"), head, pred),),
        )
        plan = Reduce(mref("set"), var("total"), Join(nest, scan("d", "Departments")))
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan)
        assert violations(exc) == ["plan-scope"]
        assert "Nest fold total" in str(exc.value)

    def test_nest_fold_terms_over_its_input_pass(self):
        e = var("e")
        nest = Nest(
            scan("e", "Employees"),
            keys=(("dno", proj(e, "dno")),),
            folds=(("total", mref("sum"), proj(e, "salary"), gt(proj(e, "age"), 30)),),
        )
        verify_plan(Reduce(mref("set"), var("total"), nest))  # must not raise

    def test_phase_names_the_failure(self):
        plan = Join(scan("c", "Cities"), scan("c", "Docks"))
        with pytest.raises(VerificationError) as exc:
            verify_plan(plan, phase="group-by-plan")
        assert exc.value.rule == "group-by-plan"


class TestPlanRewrite:
    def base(self):
        return Reduce(
            mref("bag"),
            var("c"),
            SelectOp(scan("c", "Cities"), gt(proj(var("c"), "pop"), 0)),
        )

    def test_identity_rewrite_passes(self):
        plan = self.base()
        check_plan_rewrite("optimizer", plan, plan)

    def test_changed_head_rejected(self):
        before = self.base()
        after = Reduce(before.monoid, proj(var("c"), "name"), before.child)
        with pytest.raises(VerificationError) as exc:
            check_plan_rewrite("optimizer", before, after)
        assert "head" in str(exc.value)

    def test_changed_columns_rejected(self):
        before = self.base()
        after = Reduce(before.monoid, before.head, scan("x", "Cities"))
        with pytest.raises(VerificationError):
            check_plan_rewrite("optimizer", before, after)

    def test_changed_monoid_rejected(self):
        before = self.base()
        after = Reduce(mref("set"), before.head, before.child)
        with pytest.raises(VerificationError):
            check_plan_rewrite("optimizer", before, after)


class TestOptimizerHook:
    def test_optimizer_verifies_its_own_rewrites(self):
        from repro.algebra.optimizer import Optimizer

        plan = Reduce(
            mref("bag"),
            var("h"),
            SelectOp(
                Join(
                    scan("c", "Cities"),
                    scan("h", "Hotels"),
                ),
                eq(proj(var("c"), "name"), proj(var("h"), "city")),
            ),
        )
        with verification(True):
            optimized = Optimizer().optimize(plan)
        assert optimized.head == plan.head
        verify_plan(optimized)
