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
block of the execution's :class:`~repro.obs.metrics.PlanMetrics` at the
end, by the node's position in the plan's pre-order. That list is the
execution's one record; :class:`ExecutionStats` is its one fold, by node
class, and EXPLAIN ANALYZE reads it per node. The
executor reads no clock: the execution's wall time is the query record's
``execute`` slot (:class:`~repro.obs.tracer.QueryRecord`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Optional

from repro.algebra.ops import Reduce, SelectOp
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
    """Whole-query row counters of one execution: its
    :class:`~repro.obs.metrics.PlanMetrics` blocks summed by node class
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

    #: rows out per operator class name, every Reduce's included (what
    #: telemetry reports per operator): set by :meth:`of`; no field
    operator_rows = MappingProxyType({})

    def as_dict(self) -> dict[str, int]:
        """Every field: a counter added later is reported too."""
        counters = vars(self)
        return {name: counters[name] for name in self.__dataclass_fields__}

    @classmethod
    def of(cls, metrics: PlanMetrics) -> "ExecutionStats":
        """The totals of ``metrics``, one pass over its blocks: rows out
        by operator class (a Scan's and an IndexScan's are rows scanned), a
        Select's rows-in minus rows-out as ``rows_selected_out``, the root
        Reduce's rows-in as ``rows_reduced`` (a sub-plan's Reduce adds
        nothing: its rows are counted where they are made and where they
        are scanned)."""
        rows: Counter[str] = Counter()
        dropped = builds = probes = 0
        for at, (node, block) in enumerate(metrics.blocks()):
            rows[type(node).__name__] += block.rows_out
            if type(node) is SelectOp:  # its one child is the next block
                dropped += metrics[at + 1].rows_out - block.rows_out
            builds += block.hash_builds
            probes += block.index_probes
        stats = cls(
            rows_scanned=rows["Scan"] + rows["IndexScan"],
            rows_joined=rows["Join"],
            rows_unnested=rows["Unnest"],
            rows_selected_out=dropped,
            rows_reduced=metrics[1].rows_out,  # the root's one child
            rows_grouped=rows["Nest"],
            hash_builds=builds,
            index_probes=probes,
        )
        stats.operator_rows = rows
        return stats


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
        #: the record of the last execution's operator events
        self.metrics: Optional[PlanMetrics] = None
        self._rt = Runtime(evaluator)
        #: which of a plan's functions runs: verify mode's checked one or not
        self._checked = verification_enabled()

    @property
    def stats(self) -> ExecutionStats:
        """The whole-query totals of the plan last executed."""
        return ExecutionStats() if self.metrics is None else ExecutionStats.of(self.metrics)

    def execute(self, plan: Reduce) -> Any:
        """Run the plan's generated function to completion and return the
        reduced value; :class:`PlanError` when the plan has none."""
        self.metrics = metrics = PlanMetrics(plan)
        pipeline = jit_plan.fused(plan, self._checked)
        if pipeline is None:  # more than MAX_LOOPS nested loops, or too deep
            raise PlanError("plan cannot be compiled to Python")
        monoid = self.evaluator.resolve_monoid(plan.monoid, self.evaluator.global_env)
        value = pipeline(self._rt, self.indexes, metrics, monoid)
        metrics[0].rows_out = result_cardinality(value)
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
