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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterator, Optional

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
from repro.calculus.ast import Lambda, Term
from repro.calculus.traversal import subterms
from repro.errors import EvaluationError, PlanError
from repro.eval.builtins import runtime_monoid_of
from repro.eval.env import Env
from repro.eval.evaluator import Evaluator
from repro.monoids import CollectionMonoid, VectorMonoid
from repro.objects.store import Obj
from repro.values import OrderedSet

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
    and the object store; ``indexes`` optionally maps
    ``(extent, attribute)`` to a hash index (dict key -> list of
    elements) used by :class:`IndexScan` nodes.
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
        #: optional repro.jit.JITConfig; None keeps the interpreted path
        self.jit = jit
        if jit is not None:
            from repro.analysis.verifier import resolve_verify
            from repro.jit.runtime import Runtime

            self._rt = Runtime(evaluator)
            self._jit_verify = resolve_verify(getattr(jit, "verify", None))
        else:
            self._rt = None
            self._jit_verify = False
        self._reusable_scans: frozenset[int] = frozenset()

    # -- public API --------------------------------------------------------------

    def execute(self, plan: Reduce) -> Any:
        """Run the plan to completion and return the reduced value."""
        self.stats = ExecutionStats()
        if self.metrics is None:
            self._reusable_scans = _collect_reusable_scans(plan)
            return self._reduce(plan)
        # EXPLAIN ANALYZE keeps fresh-dict-per-row streams.
        self._reusable_scans = frozenset()
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
        """Fold a Reduce node's head, through its compiled closure when
        the JIT is on. The parallel engine calls this per partition."""
        if self.jit is not None:
            return self._fold_jit(monoid, self._jit_head(plan), bindings)
        return self._fold(monoid, plan.head, bindings)

    def _fold(self, monoid, head, bindings: Iterator[dict[str, Any]]) -> Any:
        """Fold ``head`` over a binding stream into ``monoid``."""
        if isinstance(monoid, CollectionMonoid):
            acc = monoid.accumulator()
            is_vector = isinstance(monoid, VectorMonoid)
            for binding in bindings:
                self.stats.rows_reduced += 1
                value = self._eval(head, binding)
                if is_vector and (not isinstance(value, tuple) or len(value) != 2):
                    raise EvaluationError(
                        "a vector reduce head must be a (value, index) pair"
                    )
                acc.add(value)
            return acc.finish()
        result = monoid.zero()
        for binding in bindings:
            self.stats.rows_reduced += 1
            result = monoid.merge(result, self._eval(head, binding))
        return result

    def _fold_jit(self, monoid, head_fn, bindings: Iterator[dict[str, Any]]) -> Any:
        """`_fold` with the head as a compiled closure."""
        rt = self._rt
        if isinstance(monoid, CollectionMonoid):
            acc = monoid.accumulator()
            is_vector = isinstance(monoid, VectorMonoid)
            for binding in bindings:
                self.stats.rows_reduced += 1
                value = head_fn(binding, rt)
                if is_vector and (not isinstance(value, tuple) or len(value) != 2):
                    raise EvaluationError(
                        "a vector reduce head must be a (value, index) pair"
                    )
                acc.add(value)
            return acc.finish()
        result = monoid.zero()
        for binding in bindings:
            self.stats.rows_reduced += 1
            result = monoid.merge(result, head_fn(binding, rt))
        return result

    # -- JIT helpers -----------------------------------------------------------------

    def _jit_node(self, node: PlanNode) -> None:
        """Ensure ``node`` carries compiled closures (lazy: cached plans
        compiled by the pipeline's jit phase skip this; plan nodes
        rebuilt by the parallel spine walk compile here on first use)."""
        if not node.jit_ready:
            from repro.jit.plan import compile_node

            compile_node(node)

    def _jit_wrap(self, fn, term: Term):
        """Under verify mode, wrap a compiled closure with a per-row
        differential check against the reference interpreter."""
        if not self._jit_verify:
            return fn
        rt = self._rt

        def checked(binding: dict[str, Any], _rt, _fn=fn, _term=term) -> Any:
            value = _fn(binding, _rt)
            expected = rt.eval_fallback(_term, binding)
            if type(value) is not type(expected) or value != expected:
                from repro.errors import VerificationError

                raise VerificationError(
                    "jit-compile",
                    _term,
                    violations=[f"compiled {value!r} != interpreted {expected!r}"],
                )
            return value

        return checked

    def _jit_head(self, plan: Reduce):
        self._jit_node(plan)
        return self._jit_wrap(plan.head_fn, plan.head)

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
        source = self._eval(node.source, {})
        if id(node) in self._reusable_scans:
            yield from self._iter_scan_reused(node, source)
            return
        for binding in self._bindings_of(source, node.var, node.index_var):
            self.stats.rows_scanned += 1
            yield binding

    def _iter_scan_reused(self, node: Scan, source: Any) -> Iterator[dict[str, Any]]:
        """`_iter_scan` yielding ONE binding dict mutated in place.

        Only used when :func:`_collect_reusable_scans` proved nothing
        downstream retains the dict past the row (no merge-copying
        operator stores it and no expression evaluated on it can
        allocate a closure). Inlines ``_bindings_of`` so the per-row
        cost is two dict stores instead of an allocation.
        """
        if isinstance(source, Obj):
            source = self.evaluator.store.deref(source)
        monoid = runtime_monoid_of(source)
        stats = self.stats
        var, index_var = node.var, node.index_var
        binding: dict[str, Any] = {}
        if index_var is None:
            if isinstance(monoid, VectorMonoid):
                for _, value in monoid.iterate(source):
                    stats.rows_scanned += 1
                    binding[var] = value
                    yield binding
            else:
                for value in monoid.iterate(source):
                    stats.rows_scanned += 1
                    binding[var] = value
                    yield binding
        elif isinstance(monoid, VectorMonoid):
            for position, value in monoid.iterate(source):
                stats.rows_scanned += 1
                binding[var] = value
                binding[index_var] = position
                yield binding
        elif isinstance(source, (tuple, list, str, OrderedSet)):
            for position, value in enumerate(monoid.iterate(source)):
                stats.rows_scanned += 1
                binding[var] = value
                binding[index_var] = position
                yield binding
        else:
            raise EvaluationError(
                "indexed scan requires an ordered collection, got "
                f"{type(source).__name__}"
            )

    def _iter_select(self, node: SelectOp) -> Iterator[dict[str, Any]]:
        if self.jit is not None:
            yield from self._iter_select_jit(node)
            return
        for binding in self._iter(node.child):
            value = self._eval(node.pred, binding)
            if not isinstance(value, bool):
                raise EvaluationError(
                    f"selection predicate produced non-boolean {value!r}"
                )
            if value:
                yield binding
            else:
                self.stats.rows_selected_out += 1

    def _iter_select_jit(self, node: SelectOp) -> Iterator[dict[str, Any]]:
        self._jit_node(node)
        pred_fn = self._jit_wrap(node.pred_fn, node.pred)
        rt = self._rt
        stats = self.stats
        for binding in self._iter(node.child):
            value = pred_fn(binding, rt)
            if value is True:
                yield binding
            elif value is False:
                stats.rows_selected_out += 1
            else:
                raise EvaluationError(
                    f"selection predicate produced non-boolean {value!r}"
                )

    def _iter_join(self, node: Join) -> Iterator[dict[str, Any]]:
        if node.left_keys:
            yield from self._hash_join(node)
        else:
            yield from self._nested_loop_join(node)

    def _join_fns(self, node: Join):
        """The (left key, right key, residual) closures for a Join."""
        self._jit_node(node)
        left_fns = tuple(
            self._jit_wrap(fn, term)
            for fn, term in zip(node.left_key_fns, node.left_keys)
        )
        right_fns = tuple(
            self._jit_wrap(fn, term)
            for fn, term in zip(node.right_key_fns, node.right_keys)
        )
        residual_fn = None
        if node.residual is not None:
            residual_fn = self._jit_wrap(node.residual_fn, node.residual)
        return left_fns, right_fns, residual_fn

    def _hash_join(self, node: Join) -> Iterator[dict[str, Any]]:
        if self.jit is not None:
            yield from self._hash_join_jit(node)
            return
        table: dict[Any, list[dict[str, Any]]] = {}
        for right_binding in self._iter(node.right):
            key = tuple(self._eval(k, right_binding) for k in node.right_keys)
            table.setdefault(key, []).append(right_binding)
            self.stats.hash_builds += 1
        if self.metrics is not None:
            self.metrics.for_node(node).hash_builds += sum(
                len(bucket) for bucket in table.values()
            )
        for left_binding in self._iter(node.left):
            key = tuple(self._eval(k, left_binding) for k in node.left_keys)
            for right_binding in table.get(key, ()):
                merged = {**left_binding, **right_binding}
                if node.residual is not None and not self._eval(node.residual, merged):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _hash_join_jit(self, node: Join) -> Iterator[dict[str, Any]]:
        left_fns, right_fns, residual_fn = self._join_fns(node)
        rt = self._rt
        table: dict[Any, list[dict[str, Any]]] = {}
        for right_binding in self._iter(node.right):
            key = tuple(fn(right_binding, rt) for fn in right_fns)
            table.setdefault(key, []).append(right_binding)
            self.stats.hash_builds += 1
        if self.metrics is not None:
            self.metrics.for_node(node).hash_builds += sum(
                len(bucket) for bucket in table.values()
            )
        for left_binding in self._iter(node.left):
            key = tuple(fn(left_binding, rt) for fn in left_fns)
            for right_binding in table.get(key, ()):
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not residual_fn(merged, rt):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _nested_loop_join(self, node: Join) -> Iterator[dict[str, Any]]:
        if self.jit is not None:
            yield from self._nested_loop_join_jit(node)
            return
        right = list(self._iter(node.right))
        for left_binding in self._iter(node.left):
            for right_binding in right:
                merged = {**left_binding, **right_binding}
                if node.residual is not None and not self._eval(node.residual, merged):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _nested_loop_join_jit(self, node: Join) -> Iterator[dict[str, Any]]:
        _, _, residual_fn = self._join_fns(node)
        rt = self._rt
        right = list(self._iter(node.right))
        for left_binding in self._iter(node.left):
            for right_binding in right:
                merged = {**left_binding, **right_binding}
                if residual_fn is not None and not residual_fn(merged, rt):
                    continue
                self.stats.rows_joined += 1
                yield merged

    def _iter_unnest(self, node: Unnest) -> Iterator[dict[str, Any]]:
        if self.jit is not None:
            yield from self._iter_unnest_jit(node)
            return
        for binding in self._iter(node.child):
            source = self._eval(node.path, binding)
            for inner in self._bindings_of(source, node.var, node.index_var):
                self.stats.rows_unnested += 1
                yield {**binding, **inner}

    def _iter_unnest_jit(self, node: Unnest) -> Iterator[dict[str, Any]]:
        self._jit_node(node)
        src_fn = self._jit_wrap(node.src_fn, node.path)
        rt = self._rt
        for binding in self._iter(node.child):
            source = src_fn(binding, rt)
            for inner in self._bindings_of(source, node.var, node.index_var):
                self.stats.rows_unnested += 1
                yield {**binding, **inner}

    def _iter_nest(self, node: Nest) -> Iterator[dict[str, Any]]:
        """Single-pass grouping: hash on the key tuple, fold partitions."""
        monoid = self.evaluator.resolve_monoid(
            node.part_monoid, self.evaluator.global_env
        )
        if not isinstance(monoid, CollectionMonoid):
            raise PlanError("Nest requires a collection partition monoid")
        groups: dict[tuple, Any] = {}
        if self.jit is not None:
            self._jit_node(node)
            key_fns = tuple(
                self._jit_wrap(fn, term)
                for fn, (_, term) in zip(node.key_fns, node.keys)
            )
            head_fn = self._jit_wrap(node.head_fn, node.part_head)
            rt = self._rt
            for binding in self._iter(node.child):
                key = tuple(fn(binding, rt) for fn in key_fns)
                acc = groups.get(key)
                if acc is None:
                    acc = groups[key] = monoid.accumulator()
                acc.add(head_fn(binding, rt))
        else:
            for binding in self._iter(node.child):
                key = tuple(self._eval(term, binding) for _, term in node.keys)
                acc = groups.get(key)
                if acc is None:
                    acc = groups[key] = monoid.accumulator()
                acc.add(self._eval(node.part_head, binding))
        from repro.values import canonical_key

        for key in sorted(groups, key=canonical_key):
            out = {label: value for (label, _), value in zip(node.keys, key)}
            out[node.part_var] = groups[key].finish()
            self.stats.rows_grouped += 1
            yield out

    def _iter_index_scan(self, node: IndexScan) -> Iterator[dict[str, Any]]:
        index = self.indexes.get((node.extent, node.attribute))
        if index is None:
            raise PlanError(
                f"no index on {node.extent}.{node.attribute} for IndexScan"
            )
        key = self._eval(node.key, {})
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

    def _eval(self, term, binding: dict[str, Any]) -> Any:
        env = self.evaluator.global_env
        if binding:
            # No-copy wrap: binding dicts here are either fresh per row
            # or proven non-retained by _collect_reusable_scans, so
            # aliasing them in an Env is safe and saves a dict copy per
            # expression per row.
            env = Env.wrapping(binding, env)
        return self.evaluator.evaluate(term, env)


def _may_capture(term: Term) -> bool:
    """Could evaluating ``term`` allocate a closure (and thus retain the
    environment — i.e. the binding dict — past the current row)? Any
    ``Lambda`` subterm counts, including monoid key functions."""
    return any(isinstance(sub, Lambda) for sub in subterms(term))


def _collect_reusable_scans(plan: PlanNode) -> frozenset[int]:
    """ids of Scan nodes whose binding dict can be mutated in place.

    A scan's dict may be reused iff every value computed *directly on
    that dict* before the next merge point is closure-free. Merge
    points (Unnest / Join-probe ``{**l, **r}``, Nest regrouping) copy
    into fresh dicts, so safety resets below them; hash-join build and
    nested-loop right sides store their input dicts outright and are
    never safe. Scans feeding a metrics-collecting (EXPLAIN ANALYZE)
    execution are excluded by the caller.
    """
    out: set[int] = set()
    _walk_reuse(plan, False, out)
    return frozenset(out)


def _walk_reuse(node: PlanNode, safe: bool, out: set[int]) -> None:
    if isinstance(node, Reduce):
        _walk_reuse(node.child, not _may_capture(node.head), out)
    elif isinstance(node, SelectOp):
        _walk_reuse(node.child, safe and not _may_capture(node.pred), out)
    elif isinstance(node, Unnest):
        _walk_reuse(node.child, not _may_capture(node.path), out)
    elif isinstance(node, Join):
        left_safe = all(not _may_capture(k) for k in node.left_keys)
        _walk_reuse(node.left, left_safe, out)
        _walk_reuse(node.right, False, out)
    elif isinstance(node, Nest):
        child_safe = all(not _may_capture(t) for _, t in node.keys) and not (
            _may_capture(node.part_head)
        )
        _walk_reuse(node.child, child_safe, out)
    elif isinstance(node, Scan):
        if safe:
            out.add(id(node))
    # IndexScan dicts are single-binding and cheap; leave them fresh.


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
