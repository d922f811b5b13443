"""Execution of algebra plans: every plan runs as one generated function.

:mod:`repro.jit.plan` emits a ``Reduce`` plan as one Python function, one
*template* per operator, so that nothing is materialized but hash-join
build sides, grouping tables and the final accumulator: the evaluation
style the paper's canonical forms are designed to enable. :class:`Executor`
calls it on a plan's first run as on every later one; a plan the emitter
refuses raises :class:`~repro.errors.PlanError`, and the database answers
it on the reference interpreter instead.

An operator event is counted once, in the loop that produces it: the
function counts rows in locals and stores the totals into each node's
block of the executor's :class:`~repro.obs.metrics.PlanMetrics` at the
end. That table is the execution's one record; :class:`ExecutionStats` is
a view of it by node class and EXPLAIN ANALYZE reads it per node. The
executor reads no clock: the execution's wall time is the query record's
``execute`` slot (:class:`~repro.obs.tracer.QueryRecord`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.algebra.ops import IndexScan, Join, Nest, Reduce, Scan, SelectOp, Unnest
from repro.analysis.verifier import verification_enabled
from repro.errors import EvaluationError, PlanError
from repro.eval.evaluator import VECTOR_HEAD_ERROR, Evaluator
from repro.jit import plan as jit_plan  # a module: repro.jit imports this one
from repro.jit.runtime import Runtime
from repro.monoids import CollectionMonoid, PrimitiveMonoid, VectorMonoid
from repro.obs.metrics import PlanMetrics
from repro.values import Bag, OrderedSet, Vector


@dataclass
class ExecutionStats:
    """Whole-query row counters of one execution: a view, by node class,
    of the executor's :class:`~repro.obs.metrics.PlanMetrics` blocks
    (:meth:`of`). Nothing increments these fields while a query runs.
    """

    rows_scanned: int = 0
    rows_joined: int = 0
    rows_unnested: int = 0
    rows_selected_out: int = 0
    rows_reduced: int = 0
    rows_grouped: int = 0
    hash_builds: int = 0
    index_probes: int = 0
    #: always 0, and no field: ``benchmarks/harness``'s parallel probe reads it
    partitions = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))  # every field: a counter added later is reported too

    @classmethod
    def of(cls, plan: Reduce, metrics: PlanMetrics) -> "ExecutionStats":
        """The totals of ``metrics`` over ``plan``: each operator's
        rows-out under its class's field (:data:`_OPERATORS`), a Select's
        rows-in minus rows-out as ``rows_selected_out``, the root Reduce's
        rows-in as ``rows_reduced`` (a sub-plan's Reduce adds nothing: its
        rows are counted where they are made and where they are scanned)."""
        stats = cls(rows_reduced=metrics.for_node(plan.child).rows_out)
        totals = vars(stats)  # field name -> running total
        for node, block in metrics.blocks(plan.child):
            name = _OPERATORS[type(node)]
            if name is not None:
                totals[name] += block.rows_out
            elif type(node) is SelectOp:
                offered = metrics.for_node(node.child).rows_out
                totals["rows_selected_out"] += offered - block.rows_out
            totals["hash_builds"] += block.hash_builds
            totals["index_probes"] += block.index_probes
        return stats


#: Per operator class, the :class:`ExecutionStats` field its rows-out
#: adds to (a Select's drop count is derived instead).
_OPERATORS = {
    Reduce: None,
    Scan: "rows_scanned",
    IndexScan: "rows_scanned",
    SelectOp: None,
    Join: "rows_joined",
    Unnest: "rows_unnested",
    Nest: "rows_grouped",
}


class Executor:
    """Executes logical plans against an :class:`Evaluator`'s world.

    The evaluator supplies global bindings (extents), builtins, methods
    and the object store — its globals as they are when the executor is
    built; ``indexes`` optionally maps ``(extent, attribute)`` to a hash
    index (dict key -> list of elements) used by :class:`IndexScan`
    nodes. ``jit`` changes nothing.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        indexes: Optional[dict[tuple[str, str], dict[Any, list]]] = None,
        jit: Any = None,
    ) -> None:
        self.evaluator = evaluator
        self.indexes = indexes or {}
        #: the record of the current execution's operator events
        self.metrics = PlanMetrics()
        self._plan: Optional[Reduce] = None
        self._rt = Runtime(evaluator)
        #: which of a plan's functions runs: verify mode's checked one or not
        self._checked = verification_enabled()

    @property
    def stats(self) -> ExecutionStats:
        """The whole-query totals of the plan last executed."""
        if self._plan is None:
            return ExecutionStats()
        return ExecutionStats.of(self._plan, self.metrics)

    def execute(self, plan: Reduce) -> Any:
        """Run the plan's generated function to completion and return the
        reduced value; :class:`PlanError` when the plan has none."""
        self._plan = plan
        self.metrics.reset()
        pipeline = jit_plan.fused(plan, self._checked)
        if pipeline is None:  # more than MAX_LOOPS nested loops, or too deep
            raise PlanError("plan cannot be compiled to Python")
        monoid = self.evaluator.resolve_monoid(plan.monoid, self.evaluator.global_env)
        blocks = [self.metrics.for_node(node) for node in plan.walk()]
        value = pipeline(self._rt, self.indexes, blocks[1:], monoid)
        blocks[0].rows_out = result_cardinality(value)
        return value


def _folder(monoid) -> tuple[Any, Any, Any]:
    """The accumulate step of folding values into ``monoid``, as
    ``(start, step, finish)``: ``state = start()``, then ``state =
    step(state, value)`` per value, then ``finish(state)`` — an
    accumulator's ``add`` for a collection monoid, ``merge`` onto the
    running value for a primitive one: its own merge function, ``operator.add``
    for ``sum``, so a caller turns a step's ``TypeError`` into ``fold_error``."""
    if not isinstance(monoid, CollectionMonoid):
        own = type(monoid).merge is PrimitiveMonoid.merge
        return monoid.zero, monoid._merge if own else monoid.merge, _identity
    if not isinstance(monoid, VectorMonoid):
        return monoid.accumulator, _accumulate, _finish

    def step(acc, value):
        if not isinstance(value, tuple) or len(value) != 2:
            raise EvaluationError(VECTOR_HEAD_ERROR)
        acc.add(value)
        return acc

    return monoid.accumulator, step, _finish


def _accumulate(acc: Any, value: Any) -> Any:
    """The step of a plain collection fold (generated code inlines it)."""
    acc.add(value)
    return acc


def _identity(state: Any) -> Any:
    return state


def _finish(acc: Any) -> Any:
    return acc.finish()


def result_cardinality(value: Any) -> int:
    """Rows a Reduce 'emitted': the collection size, or 1 for scalars."""
    if isinstance(value, (frozenset, tuple, Bag, OrderedSet, Vector)):
        return len(value)
    return 1


def execute_plan(
    plan: Reduce,
    bindings: dict[str, Any] | None = None,
    evaluator: Optional[Evaluator] = None,
) -> Any:
    """One-shot plan execution convenience."""
    ev = evaluator if evaluator is not None else Evaluator(bindings)
    return Executor(ev).execute(plan)
