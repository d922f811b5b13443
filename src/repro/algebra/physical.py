"""Pipelined (Volcano-style) execution of algebra plans.

Every logical operator compiles to a Python generator over *bindings*
(dicts mapping plan variables to values). Nothing is materialized
except hash-join build sides and the final Reduce accumulator — this
is the evaluation style the paper's canonical forms are designed to
enable.

Join strategy: when a :class:`Join` carries equi-keys, a hash join is
used (build on the right input, probe from the left); otherwise a
block nested-loop join (the right side is materialized once).

An operator event is counted once, in the loop that produces it: every
loop counts its rows in a local and stores the total into its node's
block of the executor's :class:`~repro.obs.metrics.PlanMetrics` once its
input is drained (every stream is — no operator stops early). That table
is the execution's one record; :class:`ExecutionStats` is a view of it by
node class and EXPLAIN ANALYZE reads it per node. Only per-operator *wall
time* is collected on request: hand the Executor a ``PlanMetrics`` of
your own and every stream is also timed into it.

There is one loop per operator. §3's normalization leaves only small
first-order terms in operator positions, so a loop never needs to know
how its expression is evaluated: it calls an ``fn(binding, rt)`` that
:meth:`Executor._fn` hands it, a thunk into the reference interpreter.
Every binding dict an operator yields is a fresh one, never mutated
afterwards. An execution is one of two things: these loops, or — with the
JIT on, serial and untimed — the one function :mod:`repro.jit.plan`
generated for the plan, which :meth:`Executor._reduce` calls instead and
which has one *template* per operator making the same checks and the same
counts. A timed execution and a parallel one need operator boundaries, so
they run the loops, JIT or no JIT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from repro.algebra.ops import (
    IndexScan,
    Join,
    Nest,
    PlanNode,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
)
from repro.calculus.ast import Term
from repro.errors import EvaluationError, PlanError
from repro.eval.env import Env
from repro.eval.evaluator import VECTOR_HEAD_ERROR, Evaluator
from repro.jit.runtime import Runtime
from repro.monoids import CollectionMonoid, VectorMonoid
from repro.obs.metrics import OperatorMetrics, PlanMetrics
from repro.values import Bag, OrderedSet, Vector, canonical_key


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
    #: partitions executed by the parallel engine (0 on the serial path)
    partitions: int = 0
    #: worker threads the parallel engine ran those partitions on
    parallel_workers: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))  # every field: a counter added later is reported too

    @classmethod
    def of(cls, plan: Reduce, metrics: PlanMetrics) -> "ExecutionStats":
        """The totals of ``metrics`` over ``plan``: each operator's
        rows-out under its class's field (:data:`_OPERATORS`), a Select's
        rows-in minus rows-out as ``rows_selected_out``, the Reduce's
        rows-in as ``rows_reduced``."""
        stats = cls(
            rows_reduced=metrics.for_node(plan.child).rows_out,
            partitions=metrics.partitions,
            parallel_workers=metrics.parallel_workers,
        )
        totals = vars(stats)  # field name -> running total
        for node, block in metrics.blocks(plan.child):
            name = _OPERATORS[type(node)][1]
            if name is not None:
                totals[name] += block.rows_out
            else:
                offered = metrics.for_node(node.child).rows_out
                totals["rows_selected_out"] += offered - block.rows_out
            totals["hash_builds"] += block.hash_builds
            totals["index_probes"] += block.index_probes
        return stats


#: Per operator class: the :class:`Executor` method that produces its
#: binding stream, and the :class:`ExecutionStats` field its rows-out
#: adds to (a Select's drop count is derived instead).
_OPERATORS = {
    Scan: ("_iter_scan", "rows_scanned"),
    IndexScan: ("_iter_index_scan", "rows_scanned"),
    SelectOp: ("_iter_select", None),
    Join: ("_iter_join", "rows_joined"),
    Unnest: ("_iter_unnest", "rows_unnested"),
    Nest: ("_iter_nest", "rows_grouped"),
}


class Executor:
    """Executes logical plans against an :class:`Evaluator`'s world.

    The evaluator supplies global bindings (extents), builtins, methods
    and the object store — its globals as they are when the executor is
    built; ``indexes`` optionally maps ``(extent, attribute)`` to a hash
    index (dict key -> list of elements) used by :class:`IndexScan`
    nodes. ``metrics``, when given, is the table this executor records
    into *and* asks for per-operator wall time; without one the executor
    records into a table of its own, untimed.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        indexes: Optional[dict[tuple[str, str], dict[Any, list]]] = None,
        metrics: Optional[PlanMetrics] = None,
        jit: Any = None,
    ) -> None:
        self.evaluator = evaluator
        self.indexes = indexes or {}
        self._timed = metrics is not None
        #: the record of the current execution's operator events
        self.metrics = metrics if metrics is not None else PlanMetrics()
        self._plan: Optional[Reduce] = None
        #: optional repro.jit.JITConfig: run the plan's generated function
        #: where :meth:`_reduce` can
        self.jit = jit
        self._rt = Runtime(evaluator)
        self._jit_verify = False
        if jit is not None:
            from repro.analysis.verifier import resolve_verify

            self._jit_verify = resolve_verify(getattr(jit, "verify", None))
        #: ``id(node)`` -> state computed (and counted) ahead of this
        #: execution, replayed instead of recomputed: a Scan's rows, a
        #: hash Join's table, a loop Join's right rows. Filled by the
        #: :mod:`repro.parallel` coordinator for its partition workers.
        self._prepared: dict[int, Any] = {}

    # -- public API --------------------------------------------------------------

    @property
    def stats(self) -> ExecutionStats:
        """The whole-query totals of the plan last executed."""
        if self._plan is None:
            return ExecutionStats()
        return ExecutionStats.of(self._plan, self.metrics)

    def execute(self, plan: Reduce) -> Any:
        """Run the plan to completion and return the reduced value."""
        self._plan = plan
        self.metrics.reset()
        block = self.metrics.for_node(plan)
        block.invocations = 1
        start = time.perf_counter_ns() if self._timed else 0
        value = self._reduce(plan)
        if self._timed:
            block.time_ns = time.perf_counter_ns() - start
        block.rows_out = result_cardinality(value)
        return value

    def _reduce(self, plan: Reduce) -> Any:
        monoid = self.evaluator.resolve_monoid(plan.monoid, self.evaluator.global_env)
        if self.jit is not None and not self._timed:  # wall time needs boundaries
            from repro.jit.plan import fused

            pipeline = fused(plan, self._jit_verify)
            if pipeline is not None:
                blocks = [self.metrics.for_node(node) for node in plan.child.walk()]
                for block in blocks:
                    block.invocations = 1
                return pipeline(self._rt, self.indexes, blocks, monoid)
        return self._fold_plan(plan, monoid, self._iter(plan.child))

    def _fold_plan(
        self, plan: Reduce, monoid, bindings: Iterator[dict[str, Any]]
    ) -> Any:
        """Fold a Reduce node's head over a binding stream into
        ``monoid``. The parallel engine calls this per partition."""
        head_fn = self._fn(plan, "head_fn")
        rt = self._rt
        start, step, finish = _folder(monoid)
        state = start()
        for binding in bindings:
            state = step(state, head_fn(binding, rt))
        return finish(state)

    # -- operator expressions --------------------------------------------------------

    def _fn(self, node: PlanNode, slot: str) -> Any:
        """The ``fn(binding, rt)`` for the expression ``node`` keeps in
        ``slot`` (its :meth:`~PlanNode.expr` entry names the term): a
        thunk that re-enters the reference interpreter — a tuple of them
        for a tuple of terms, None for an absent one (alone or inside the
        tuple)."""
        term = node.expr(slot).terms
        return tuple(map(_interpreted, term)) if isinstance(term, tuple) else _interpreted(term)

    # -- binding streams -------------------------------------------------------------

    def _iter(self, node: PlanNode, loop: Any = None) -> Iterator[dict[str, Any]]:
        """Open ``node``'s binding stream. The one place an opening is
        counted, the operator's loop is handed its block, and the stream
        is timed when asked for. ``loop(node, block)`` stands in for the
        operator's own (the parallel engine's partitioned grouping)."""
        if loop is None:
            operator = _OPERATORS.get(type(node))
            if operator is None:
                raise PlanError(f"unknown plan node {type(node).__name__}")
            loop = getattr(self, operator[0])
        block = self.metrics.for_node(node)
        block.invocations += 1
        stream = loop(node, block)
        return self.metrics.instrument(node, stream) if self._timed else stream

    def _iter_scan(self, node: Scan, block: OperatorMetrics) -> Iterator[dict[str, Any]]:
        rows = self._prepared.get(id(node))
        if rows is not None:
            block.rows_out += len(rows)
            yield from rows
            return
        source = self._rt.eval_fallback(node.source, {})
        scanned = 0
        for binding in self._bindings_of(source, node.var, node.index_var):
            scanned += 1
            yield binding
        block.rows_out += scanned

    def _iter_select(
        self, node: SelectOp, block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        pred_fn = self._fn(node, "pred_fn")
        rt = self._rt
        kept = 0
        for binding in self._iter(node.child):
            value = pred_fn(binding, rt)
            if value is True:
                kept += 1
                yield binding
            elif value is not False:
                Evaluator._require_bool(value, "qualifier predicate")
        block.rows_out += kept

    def _iter_join(self, node: Join, block: OperatorMetrics) -> Iterator[dict[str, Any]]:
        join = self._hash_join if node.left_keys else self._nested_loop_join
        return join(node, block)

    def _build_table(
        self, node: Join, right: Iterable[dict[str, Any]]
    ) -> dict[Any, list[dict[str, Any]]]:
        """Hash ``right`` (the Join's right input) on its key terms."""
        right_fns = self._fn(node, "right_key_fns")
        rt = self._rt
        table: dict[Any, list[dict[str, Any]]] = {}
        built = 0
        for right_binding in right:
            key = tuple(fn(right_binding, rt) for fn in right_fns)
            table.setdefault(key, []).append(right_binding)
            built += 1
        self.metrics.for_node(node).hash_builds += built
        return table

    def _hash_join(self, node: Join, block: OperatorMetrics) -> Iterator[dict[str, Any]]:
        table = self._prepared.get(id(node))
        if table is None:
            table = self._build_table(node, self._iter(node.right))
        left_fns = self._fn(node, "left_key_fns")
        residual_fn = self._fn(node, "residual_fn")
        rt = self._rt
        joined = 0
        for left_binding in self._iter(node.left):
            key = tuple(fn(left_binding, rt) for fn in left_fns)
            for right_binding in table.get(key, ()):
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not _holds(residual_fn(merged, rt)):
                    continue
                joined += 1
                yield merged
        block.rows_out += joined

    def _nested_loop_join(
        self, node: Join, block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        right = self._prepared.get(id(node))
        if right is None:
            right = list(self._iter(node.right))
        residual_fn = self._fn(node, "residual_fn")
        rt = self._rt
        joined = 0
        for left_binding in self._iter(node.left):
            for right_binding in right:
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not _holds(residual_fn(merged, rt)):
                    continue
                joined += 1
                yield merged
        block.rows_out += joined

    def _iter_unnest(
        self, node: Unnest, block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        src_fn = self._fn(node, "src_fn")
        rt = self._rt
        unnested = 0
        for binding in self._iter(node.child):
            source = src_fn(binding, rt)
            for inner in self._bindings_of(source, node.var, node.index_var):
                unnested += 1
                yield {**binding, **inner}
        block.rows_out += unnested

    def _iter_nest(self, node: Nest, block: OperatorMetrics) -> Iterator[dict[str, Any]]:
        """Single-pass grouping: hash on the key tuple, fold as rows arrive."""
        return self._emit_groups(node, self._group(node, self._iter(node.child)), block)

    def _fold_monoids(self, node: Nest) -> list:
        env = self.evaluator.global_env
        return [self.evaluator.resolve_monoid(fold[1], env) for fold in node.folds]

    def _group(
        self, node: Nest, bindings: Iterator[dict[str, Any]]
    ) -> dict[tuple, list]:
        """Key tuple -> one value per fold of ``node``, folded over the
        bindings carrying that key. This is the one grouping loop: the
        parallel engine calls it per partition and combines the values
        per key and fold."""
        key_fns = self._fn(node, "key_fns")
        head_fns = self._fn(node, "head_fns")
        pred_fns = self._fn(node, "pred_fns")
        folders = [_folder(monoid) for monoid in self._fold_monoids(node)]
        steps = [
            (i, pred_fns[i], head_fns[i], folders[i][1]) for i in range(len(folders))
        ]
        rt = self._rt
        groups: dict[tuple, list] = {}
        for binding in bindings:
            key = tuple(fn(binding, rt) for fn in key_fns)
            state = groups.get(key)
            if state is None:
                state = groups[key] = [start() for start, _, _ in folders]
            for i, pred_fn, head_fn, step in steps:
                if pred_fn is not None:
                    keep = pred_fn(binding, rt)
                    if keep is not True:
                        if keep is not False:
                            Evaluator._require_bool(keep, "qualifier predicate")
                        continue
                state[i] = step(state[i], head_fn(binding, rt))
        for state in groups.values():
            state[:] = [finish(value) for (_, _, finish), value in zip(folders, state)]
        return groups

    def _emit_groups(
        self, node: Nest, groups: dict[tuple, list], block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        """One binding per group, in canonical key order."""
        names = node.binds()
        for key in sorted(groups, key=canonical_key):
            yield dict(zip(names, (*key, *groups[key])))
        block.rows_out += len(groups)

    def _iter_index_scan(
        self, node: IndexScan, block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        index = self.indexes.get((node.extent, node.attribute))
        if index is None:
            raise PlanError(
                f"no index on {node.extent}.{node.attribute} for IndexScan"
            )
        key = self._rt.eval_fallback(node.key, {})
        block.index_probes += 1
        elements = index.get(key, ())
        for element in elements:
            yield {node.var: element}
        block.rows_out += len(elements)

    # -- helpers ------------------------------------------------------------------------

    def _bindings_of(
        self, source: Any, var: str, index_var: Optional[str]
    ) -> Iterator[dict[str, Any]]:
        """A fresh dict per element — operators and the interpreter
        thunks (``Env.wrapping``) may keep the ones they are handed."""
        if index_var is None:
            for value in self._rt.iterate(source, False):
                yield {var: value}
        else:
            for position, value in self._rt.iterate(source, True):
                yield {var: value, index_var: position}


def _folder(monoid) -> tuple[Any, Any, Any]:
    """The accumulate step of folding values into ``monoid``, as
    ``(start, step, finish)``: ``state = start()``, then ``state =
    step(state, value)`` per value, then ``finish(state)`` — an
    accumulator's ``add`` for a collection monoid, ``merge`` onto the
    running value for a primitive one."""
    if not isinstance(monoid, CollectionMonoid):
        return monoid.zero, monoid.merge, _identity
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


def _interpreted(term: Term):
    """``term`` as an ``fn(binding, rt)`` run by the reference
    interpreter — ``Runtime.eval_fallback`` without its frame, this
    being the per-row path of every query on the loops. The no-copy
    ``Env.wrapping`` is sound because every binding dict is fresh."""
    if term is None:
        return None
    wrap = Env.wrapping
    return lambda binding, rt: rt.ev.evaluate(term, wrap(binding, rt.globals))


def _holds(value: Any) -> bool:
    """The Select test, on a Join residual: only True keeps, only False drops."""
    if value is not True and value is not False:
        Evaluator._require_bool(value, "qualifier predicate")
    return value


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
