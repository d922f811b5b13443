"""Update programs as comprehensions (section 4.2's final example).

The paper shows an imperative update

.. code-block:: text

    for c in db.cities where c.name = city_name:
        c.hotels += <name=..., address=..., facilities={}, ...>;
        c.hotel#  += 1

and its comprehension form

.. code-block:: text

    set{ c | c <- set{ c | c <- db.cities, c.name = city_name },
             c.hotels += <...>,
             c.hotel# += 1 }

This module provides :func:`update_where`, a builder producing exactly
that shape, plus :func:`run_update` to execute it against an evaluator
and report the touched objects. Updates require *object mode* extents
(OIDs with record states); the ``+=``/``:=`` qualifiers evaluate to
true, so they slot into the comprehension as ordinary qualifiers — and
into its algebra plan as *effect filters*, run by the one executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.calculus.ast import Comprehension, Const, Filter, Generator, MonoidRef, Term
from repro.calculus.ast import Update, Var
from repro.calculus.builders import as_term, comp, filt, gen
from repro.calculus.traversal import numbered
from repro.analysis.verifier import verification_enabled
from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.ops import Reduce
    from repro.eval.evaluator import Evaluator


class FieldUpdate:
    """One field update clause: ``field op value`` with op ``+=``/``:=``."""

    def __init__(self, field_name: str, op: str, value: Any) -> None:
        if op not in (":=", "+="):
            raise ValueError(f"update operator must be ':=' or '+=', got {op!r}")
        self.field_name = field_name
        self.op = op
        self.value = as_term(value)

    def to_qualifier(self, target: str) -> Filter:
        return Filter(Update(Var(target), self.field_name, self.op, self.value))


def set_field(field_name: str, value: Any) -> FieldUpdate:
    """``field := value``."""
    return FieldUpdate(field_name, ":=", value)


def add_to_field(field_name: str, value: Any) -> FieldUpdate:
    """``field += value`` (numeric add or collection insert/merge)."""
    return FieldUpdate(field_name, "+=", value)


def update_where(
    extent: Term | str,
    var: str,
    predicate: Optional[Term],
    updates: Sequence[FieldUpdate],
) -> Comprehension:
    """Build the paper's update-program comprehension.

    >>> from repro.calculus import eq, proj, var as v, rec, const
    >>> program = update_where("cities", "c",
    ...     eq(proj(v("c"), "name"), const("Portland")),
    ...     [add_to_field("hotel_count", const(1))])
    >>> print(program)
    set{ c | c <- set{ c | c <- cities, (c.name = 'Portland') }, (c.hotel_count += 1) }
    """
    source = Var(extent) if isinstance(extent, str) else extent
    inner_quals: list = [gen(var, source)]
    if predicate is not None:
        inner_quals.append(filt(predicate))
    inner = comp("set", Var(var), inner_quals)
    qualifiers: list = [Generator(var, inner)]
    qualifiers.extend(update.to_qualifier(var) for update in updates)
    return Comprehension(MonoidRef("set"), Var(var), tuple(qualifiers))


def run_update(program: Term, evaluator: "Evaluator") -> Any:
    """Execute an update comprehension; returns the set of touched objects.

    The materialized inner set makes the update well-behaved even when
    the predicate reads fields the updates write (the paper's reason
    for the nested shape): the victims are chosen before any mutation —
    in the plan, by the Scan's sub-plan, run to completion first.

    The one entry for effectful terms, with one branch decided before
    anything runs: the program runs as its algebra plan on the executor,
    its literals lifted into ``$``-parameters so that programs differing
    only in literals share one generated function (the code cache keys
    on the alpha-canonical plan); a term no plan takes — ``new``, an
    effect in a head or a source — or whose plan gets no function runs
    on the reference interpreter.
    """
    from repro.algebra.physical import Executor  # imports this package
    from repro.jit.plan import fused

    plan, params = _planned(program)
    if plan is not None and fused(plan, verification_enabled()) is not None:
        outer = evaluator.global_env
        evaluator.global_env = outer.bind_many(params)
        try:
            executor = Executor(evaluator)  # its runtime reads the parameters
        finally:
            evaluator.global_env = outer
        return executor.execute(plan)
    return evaluator.evaluate(program)


def _planned(program: Term) -> tuple[Optional["Reduce"], dict[str, Any]]:
    """``program``'s plan (None: no plan takes it) and the parameters to
    run it with — derived once per term and kept in its instance
    ``__dict__``, as a span is: not part of the term's value."""
    from repro.algebra.translate import build_plan  # imports this package

    planned = program.__dict__.get("update_plan")
    if planned is None:
        lifted, params = _lift_literals(program)
        try:
            plan: Optional[Reduce] = build_plan(lifted)
        except PlanError:
            plan = None
        planned = program.__dict__["update_plan"] = (plan, params)
    return planned


def _lift_literals(program: Term) -> tuple[Term, dict[str, Any]]:
    """``program`` with its binders numbered and each literal replaced by
    a parameter ``$~i`` (a name no parser makes), and those parameters'
    values — the literal skeleton, and the literal vector to bind."""
    from repro.eval.evaluator import _freeze_const

    values: dict[str, Any] = {}

    def lift(literal: Const) -> Term:
        name = f"$~{len(values)}"
        values[name] = _freeze_const(literal.value)
        return Var(name)

    return numbered(program, lift), values
