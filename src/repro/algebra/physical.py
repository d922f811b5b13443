"""Pipelined (Volcano-style) execution of algebra plans.

Every logical operator compiles to a Python generator over *bindings*
(dicts mapping plan variables to values). Nothing is materialized
except hash-join build sides and the final Reduce accumulator — this
is the evaluation style the paper's canonical forms are designed to
enable.

Join strategy: when a :class:`Join` carries equi-keys, a hash join is
used (build on the right input, probe from the left); otherwise a
block nested-loop join (the right side is materialized once). The
:class:`ExecutionStats` counter block lets benchmarks report rows
flowing through each operator, making the pipelining-vs-materialization
comparison concrete. For *per-node* attribution (rows, wall time, probe
counts on each operator instead of whole-query totals), construct the
Executor with a :class:`repro.obs.metrics.PlanMetrics`; without one the
binding streams are the plain generators, with no per-row accounting.

There is one loop per operator. §3's normalization leaves only small
first-order terms in operator positions, so a loop never needs to know
how its expression is evaluated: it calls an ``fn(binding, rt)`` that
:meth:`Executor._fn` hands it — a compiled closure with the JIT on, a
thunk into the reference interpreter with it off. Every binding dict an
operator yields is a fresh one, never mutated afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

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
from repro.errors import EvaluationError, PlanError, VerificationError
from repro.eval.builtins import runtime_monoid_of
from repro.eval.env import Env
from repro.eval.evaluator import VECTOR_HEAD_ERROR, Evaluator
from repro.jit.runtime import Runtime
from repro.monoids import CollectionMonoid, VectorMonoid
from repro.objects.store import Obj
from repro.values import OrderedSet, canonical_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import PlanMetrics


@dataclass
class ExecutionStats:
    """Per-operator row counters collected during one execution.

    One instance belongs to one :class:`Executor`, which belongs to one
    query execution — counters are plain ints and are **not** safe to
    share across threads. Concurrent executions (including the
    per-partition workers of :mod:`repro.parallel`) each own a private
    block and combine them afterwards with :meth:`merge_from`.
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
        # Derived from the dataclass fields so a counter added later can
        # never be silently dropped from reports.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge_from(self, other: "ExecutionStats") -> None:
        """Add another block's row counters into this one.

        Used to fold per-partition worker stats back into the query's
        block after the workers have finished — summation is
        order-insensitive, so the combined totals are deterministic
        however the workers interleaved. The parallel bookkeeping
        fields (``partitions``/``parallel_workers``) describe the whole
        query, not one partition, and are deliberately not summed.
        """
        for f in fields(self):
            if f.name in ("partitions", "parallel_workers"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class Executor:
    """Executes logical plans against an :class:`Evaluator`'s world.

    The evaluator supplies global bindings (extents), builtins, methods
    and the object store — its globals as they are when the executor is
    built; ``indexes`` optionally maps ``(extent, attribute)`` to a hash
    index (dict key -> list of elements) used by :class:`IndexScan`
    nodes.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        indexes: Optional[dict[tuple[str, str], dict[Any, list]]] = None,
        metrics: Optional["PlanMetrics"] = None,
        jit: Any = None,
    ) -> None:
        self.evaluator = evaluator
        self.indexes = indexes or {}
        self.stats = ExecutionStats()
        #: optional per-operator collector; None means no per-row accounting
        self.metrics = metrics
        #: optional repro.jit.JITConfig; None makes every expression a
        #: thunk into the reference interpreter (see :meth:`_fn`)
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

    def execute(self, plan: Reduce) -> Any:
        """Run the plan to completion and return the reduced value."""
        self.stats = ExecutionStats()
        if self.metrics is None:
            return self._reduce(plan)
        self.metrics.reset()
        block = self.metrics.for_node(plan)
        block.invocations += 1
        start = time.perf_counter_ns()
        try:
            value = self._reduce(plan)
        finally:
            block.time_ns += time.perf_counter_ns() - start
        block.rows_out += _result_cardinality(value)
        return value

    def _reduce(self, plan: Reduce) -> Any:
        monoid = self.evaluator.resolve_monoid(plan.monoid, self.evaluator.global_env)
        return self._fold_plan(plan, monoid, self._iter(plan.child))

    def _fold_plan(
        self, plan: Reduce, monoid, bindings: Iterator[dict[str, Any]]
    ) -> Any:
        """Fold a Reduce node's head over a binding stream into
        ``monoid``. The parallel engine calls this per partition."""
        head_fn = self._fn(plan, "head_fn", plan.head)
        rt = self._rt
        stats = self.stats
        start, step, finish = _folder(monoid)
        state = start()
        for binding in bindings:
            stats.rows_reduced += 1
            state = step(state, head_fn(binding, rt))
        return finish(state)

    # -- operator expressions --------------------------------------------------------

    def _fn(self, node: PlanNode, slot: str, term: Any) -> Any:
        """The ``fn(binding, rt)`` for ``term``, the expression ``node``
        keeps compiled in ``slot`` — a tuple of them for a tuple of
        terms, None for an absent one (alone or inside the tuple).

        This is the only place that knows how expressions are evaluated:
        with the JIT on it is the node's compiled closure (compiled
        here on first use unless the pipeline's jit phase already did),
        wrapped under verify mode with a per-row differential check
        against the interpreter; with it off, a thunk that re-enters the
        reference interpreter. The loops below only ever call it.
        """
        many = isinstance(term, tuple)
        if self.jit is None:
            return tuple(map(_interpreted, term)) if many else _interpreted(term)
        if not node.jit_ready:
            from repro.jit.plan import compile_node

            compile_node(node)
        fn = getattr(node, slot)
        if not self._jit_verify:
            return fn
        return tuple(map(_checked, fn, term)) if many else _checked(fn, term)

    # -- binding streams -------------------------------------------------------------

    def _iter(self, node: PlanNode) -> Iterator[dict[str, Any]]:
        if self.metrics is None:
            return self._dispatch(node)
        return self.metrics.instrument(node, self._dispatch(node))

    def _dispatch(self, node: PlanNode) -> Iterator[dict[str, Any]]:
        if isinstance(node, Scan):
            yield from self._iter_scan(node)
        elif isinstance(node, SelectOp):
            yield from self._iter_select(node)
        elif isinstance(node, Join):
            yield from self._iter_join(node)
        elif isinstance(node, Unnest):
            yield from self._iter_unnest(node)
        elif isinstance(node, IndexScan):
            yield from self._iter_index_scan(node)
        elif isinstance(node, Nest):
            yield from self._iter_nest(node)
        else:
            raise PlanError(f"unknown plan node {type(node).__name__}")

    def _iter_scan(self, node: Scan) -> Iterator[dict[str, Any]]:
        rows = self._prepared.get(id(node))
        if rows is not None:
            yield from rows
            return
        source = self._rt.eval_fallback(node.source, {})
        for binding in self._bindings_of(source, node.var, node.index_var):
            self.stats.rows_scanned += 1
            yield binding

    def _iter_select(self, node: SelectOp) -> Iterator[dict[str, Any]]:
        pred_fn = self._fn(node, "pred_fn", node.pred)
        rt = self._rt
        stats = self.stats
        for binding in self._iter(node.child):
            value = pred_fn(binding, rt)
            if value is True:
                yield binding
            elif value is False:
                stats.rows_selected_out += 1
            else:
                Evaluator._require_bool(value, "qualifier predicate")

    def _iter_join(self, node: Join) -> Iterator[dict[str, Any]]:
        if node.left_keys:
            yield from self._hash_join(node)
        else:
            yield from self._nested_loop_join(node)

    def _build_table(
        self, node: Join, right: Iterable[dict[str, Any]]
    ) -> dict[Any, list[dict[str, Any]]]:
        """Hash ``right`` (the Join's right input) on its key terms."""
        right_fns = self._fn(node, "right_key_fns", node.right_keys)
        rt = self._rt
        table: dict[Any, list[dict[str, Any]]] = {}
        built = 0
        for right_binding in right:
            key = tuple(fn(right_binding, rt) for fn in right_fns)
            table.setdefault(key, []).append(right_binding)
            built += 1
        self._count_hash_builds(node, built)
        return table

    def _count_hash_builds(self, node: Join, built: int) -> None:
        self.stats.hash_builds += built
        if self.metrics is not None:
            self.metrics.for_node(node).hash_builds += built

    def _hash_join(self, node: Join) -> Iterator[dict[str, Any]]:
        table = self._prepared.get(id(node))
        if table is None:
            table = self._build_table(node, self._iter(node.right))
        left_fns = self._fn(node, "left_key_fns", node.left_keys)
        residual_fn = self._fn(node, "residual_fn", node.residual)
        rt = self._rt
        for left_binding in self._iter(node.left):
            key = tuple(fn(left_binding, rt) for fn in left_fns)
            for right_binding in table.get(key, ()):
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not residual_fn(merged, rt):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _nested_loop_join(self, node: Join) -> Iterator[dict[str, Any]]:
        right = self._prepared.get(id(node))
        if right is None:
            right = list(self._iter(node.right))
        residual_fn = self._fn(node, "residual_fn", node.residual)
        rt = self._rt
        for left_binding in self._iter(node.left):
            for right_binding in right:
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not residual_fn(merged, rt):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _iter_unnest(self, node: Unnest) -> Iterator[dict[str, Any]]:
        src_fn = self._fn(node, "src_fn", node.path)
        rt = self._rt
        for binding in self._iter(node.child):
            source = src_fn(binding, rt)
            for inner in self._bindings_of(source, node.var, node.index_var):
                self.stats.rows_unnested += 1
                yield {**binding, **inner}

    def _iter_nest(self, node: Nest) -> Iterator[dict[str, Any]]:
        """Single-pass grouping: hash on the key tuple, fold as rows arrive."""
        return self._emit_groups(node, self._group(node, self._iter(node.child)))

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
        key_fns = self._fn(node, "key_fns", tuple(term for _, term in node.keys))
        head_fns = self._fn(node, "head_fns", tuple(fold[2] for fold in node.folds))
        pred_fns = self._fn(node, "pred_fns", tuple(fold[3] for fold in node.folds))
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
        self, node: Nest, groups: dict[tuple, list]
    ) -> Iterator[dict[str, Any]]:
        """One binding per group, in canonical key order."""
        names = [label for label, _ in node.keys] + [fold[0] for fold in node.folds]
        for key in sorted(groups, key=canonical_key):
            self.stats.rows_grouped += 1
            yield dict(zip(names, (*key, *groups[key])))

    def _iter_index_scan(self, node: IndexScan) -> Iterator[dict[str, Any]]:
        index = self.indexes.get((node.extent, node.attribute))
        if index is None:
            raise PlanError(
                f"no index on {node.extent}.{node.attribute} for IndexScan"
            )
        key = self._rt.eval_fallback(node.key, {})
        self.stats.index_probes += 1
        if self.metrics is not None:
            self.metrics.for_node(node).index_probes += 1
        for element in index.get(key, ()):
            self.stats.rows_scanned += 1
            yield {node.var: element}

    # -- helpers ------------------------------------------------------------------------

    def _bindings_of(
        self, source: Any, var: str, index_var: Optional[str]
    ) -> Iterator[dict[str, Any]]:
        """A fresh dict per element — operators and the interpreter
        thunks (``Env.wrapping``) may keep the ones they are handed."""
        if isinstance(source, Obj):
            source = self.evaluator.store.deref(source)
        monoid = runtime_monoid_of(source)
        if index_var is None:
            if isinstance(monoid, VectorMonoid):
                for _, value in monoid.iterate(source):
                    yield {var: value}
            else:
                for value in monoid.iterate(source):
                    yield {var: value}
        else:
            if isinstance(monoid, VectorMonoid):
                for position, value in monoid.iterate(source):
                    yield {var: value, index_var: position}
            elif isinstance(source, (tuple, list, str, OrderedSet)):
                for position, value in enumerate(monoid.iterate(source)):
                    yield {var: value, index_var: position}
            else:
                raise EvaluationError(
                    "indexed scan requires an ordered collection, got "
                    f"{type(source).__name__}"
                )


def _folder(monoid) -> tuple[Any, Any, Any]:
    """The accumulate step of folding values into ``monoid``, as
    ``(start, step, finish)``: ``state = start()``, then ``state =
    step(state, value)`` per value, then ``finish(state)`` — an
    accumulator's ``add`` for a collection monoid, ``merge`` onto the
    running value for a primitive one."""
    if not isinstance(monoid, CollectionMonoid):
        return monoid.zero, monoid.merge, _identity
    if isinstance(monoid, VectorMonoid):

        def step(acc, value):
            if not isinstance(value, tuple) or len(value) != 2:
                raise EvaluationError(VECTOR_HEAD_ERROR)
            acc.add(value)
            return acc

    else:

        def step(acc, value):
            acc.add(value)
            return acc

    return monoid.accumulator, step, _finish


def _identity(state: Any) -> Any:
    return state


def _finish(acc: Any) -> Any:
    return acc.finish()


def _interpreted(term: Term):
    """``term`` as an ``fn(binding, rt)`` run by the reference
    interpreter — ``Runtime.eval_fallback`` without its frame, this
    being the per-row path of every jit-off query. The no-copy
    ``Env.wrapping`` is sound because every binding dict is fresh."""
    if term is None:
        return None
    wrap = Env.wrapping
    return lambda binding, rt: rt.ev.evaluate(term, wrap(binding, rt.globals))


def _checked(fn, term: Term):
    """``fn`` with every result compared against the interpreter's."""
    if term is None:
        return None

    def checked(binding: dict[str, Any], rt) -> Any:
        value = fn(binding, rt)
        expected = rt.eval_fallback(term, binding)
        if type(value) is not type(expected) or value != expected:
            raise VerificationError(
                "jit-compile",
                term,
                violations=[f"compiled {value!r} != interpreted {expected!r}"],
            )
        return value

    return checked


def _result_cardinality(value: Any) -> int:
    """Rows a Reduce 'emitted': the collection size, or 1 for scalars."""
    from repro.values import Bag, Vector

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
