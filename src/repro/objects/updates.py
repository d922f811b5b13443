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
and report the touched objects; ``Database.run_calculus`` runs it as a
query. Updates require *object mode* extents (OIDs with record states);
the ``+=``/``:=`` qualifiers evaluate to true, so they slot into the
comprehension as ordinary qualifiers — and into its algebra plan as
*effect filters*, run by the one executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.calculus.ast import Comprehension, Filter, Generator, MonoidRef, Term, Update, Var
from repro.calculus.builders import as_term, comp, filt, gen
from repro.analysis.verifier import verification_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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

    The program passes ``Database.compile``'s effect stage
    (:func:`~repro.algebra.translate.plan_effects`): its plan runs with the
    lifted literals bound, or the interpreter runs a program with none.
    """
    from repro.algebra.physical import Executor  # imports this package
    from repro.algebra.translate import plan_effects

    values, plan = plan_effects(program, verification_enabled())
    if plan is None:
        return evaluator.evaluate(program)
    outer = evaluator.global_env  # the caller's evaluator keeps no ``$~i``
    evaluator.global_env = outer.bind_many({"$" + name: v for name, v in values.items()})
    try:
        executor = Executor(evaluator)  # its runtime reads the parameters
    finally:
        evaluator.global_env = outer
    return executor.execute(plan)
