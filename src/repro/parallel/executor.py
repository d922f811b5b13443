"""The partition-parallel executor.

The paper's observation (section 2) makes this engine sound: a
``Reduce`` is a monoid homomorphism, and ``merge`` is associative, so
folding each partition of the input independently and recombining the
partials with :meth:`~repro.monoids.base.Monoid.combine_partials`
equals the serial fold — *provided* the partials are combined in
partition-index order. Commutative monoids additionally allow the
partials to be combined as they complete.

Execution model:

1. Walk the plan spine from the ``Reduce`` down to the driving
   :class:`~repro.algebra.ops.Scan` (through ``Select``/``Unnest``
   wrappers and the left input of ``Join``\\ s). An unsupported spine
   (e.g. an ``IndexScan`` leaf) falls back to serial execution.
2. Materialize the driving scan's bindings in the coordinating thread
   and split them into contiguous, order-preserving partitions
   (:func:`repro.parallel.partition.partition_rows`).
3. Prepare shared state for spine ``Join``\\ s once: hash tables are
   built up front (the key evaluation itself fanned out over
   partitions of the build side, buckets concatenated in partition
   order), loop-join right sides materialized once. It goes into a map
   keyed by node identity, next to each partition's scan rows.
4. Run each pipeline (filter → map → partial ``Reduce``) on a
   ``ThreadPoolExecutor`` worker: a plain
   :class:`~repro.algebra.physical.Executor` over the *original* plan
   nodes, with its own :class:`~repro.obs.metrics.PlanMetrics`,
   whose scan and join loops replay the prepared entries instead of
   scanning and building again.
5. Combine partials with the target monoid's ``combine_partials`` —
   index order for non-commutative monoids, completion order for
   commutative ones — and add the workers' blocks into the query's.

``Nest`` (group-by) parallelizes as partitioned partial groupings:
each worker folds its partition into per-key partial values (the
serial operator's own grouping loop), the coordinator combines them per
key and fold in partition-index order, and the outer fold then runs over the
merged groups in canonical key order — the same order the serial
operator emits.

The execution record composes with the fan-out: each worker counts
into a private :class:`~repro.obs.metrics.PlanMetrics`, and because
workers run the plan's own nodes the coordinator adds the blocks up node
by node, so ``stats``, ``EXPLAIN ANALYZE`` and telemetry see the same
counts they would serially — with ``invocations`` honestly reporting one
stream opening per partition. A partition's rows are counted where they
are replayed (the worker's Scan loop), not where the coordinator
materialized them.

Serial fallbacks (always value-identical): one worker, too few rows
(``min_partition_rows``), or an unsupported spine. In verify mode
every parallel execution is re-run serially and checked with
:func:`repro.analysis.verifier.check_parallel_equivalence`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Optional

from repro.algebra.ops import Join, Nest, PlanNode, Reduce, Scan, SelectOp, Unnest
from repro.algebra.physical import Executor
from repro.analysis.verifier import check_parallel_equivalence, verification_enabled
from repro.monoids import Monoid
from repro.obs.metrics import OperatorMetrics, PlanMetrics
from repro.parallel.config import ParallelConfig
from repro.parallel.partition import partition_rows

#: One partition's outcome: ``(index, value, worker, start, duration)``.
Outcome = tuple[int, Any, Executor, float, float]


class ParallelExecutor(Executor):
    """Drop-in :class:`Executor` that fans ``Reduce`` out over
    partitions when the plan shape and configuration allow it.

    ``tracer`` (optional) receives one attached span per partition so
    traced queries show the fan-out; ``last_mode`` records how the most
    recent ``execute`` ran (``"parallel"`` or ``"serial"``) for tests
    and diagnostics. Evaluation through the shared evaluator is
    read-only, so workers share it safely.
    """

    def __init__(
        self,
        evaluator,
        indexes=None,
        metrics=None,
        config: Optional[ParallelConfig] = None,
        tracer=None,
    ) -> None:
        super().__init__(evaluator, indexes, metrics)
        self.config = config or ParallelConfig()
        self.tracer = tracer
        self.last_mode = "serial"

    # -- the parallel reduce ---------------------------------------------------

    def _reduce(self, plan: Reduce) -> Any:
        monoid = self.evaluator.resolve_monoid(plan.monoid, self.evaluator.global_env)
        if self.config.max_workers <= 1:
            self.last_mode = "serial"
            return self._fold_plan(plan, monoid, self._iter(plan.child))
        value, mode = self._maybe_parallel(plan, monoid)
        self.last_mode = mode
        if mode == "parallel" and verification_enabled():
            reference = Executor(self.evaluator, self.indexes)
            check_parallel_equivalence(plan, reference.execute(plan), value)
        return value

    def _maybe_parallel(self, plan: Reduce, monoid: Monoid) -> tuple[Any, str]:
        child = plan.child
        nest = child if isinstance(child, Nest) else None
        prepared: dict[int, Any] = {}
        scan = self._prepare_spine(nest.child if nest is not None else child, prepared)
        if scan is None:
            return self._fold_plan(plan, monoid, self._iter(child)), "serial"
        source = self._rt.eval_fallback(scan.source, {})
        rows = tuple(self._bindings_of(source, scan.var, scan.index_var))
        partitions = partition_rows(
            rows, self.config.max_workers, self.config.morsel_size
        )
        if len(rows) < self.config.min_partition_rows or len(partitions) <= 1:
            # Already scanned and built: replay it all in this thread.
            worker = self._worker({**prepared, id(scan): rows})
            value = worker._fold_plan(plan, monoid, worker._iter(child))
            self.metrics.merge_from(worker.metrics)
            return value, "serial"

        maps = [{**prepared, id(scan): part} for part in partitions]
        if nest is None:
            outs = self._fan_out(
                maps,
                lambda worker: worker._fold_plan(plan, monoid, worker._iter(child)),
                ordered=not monoid.commutative,
            )
            # Index order for non-commutative monoids (the
            # combine_partials contract), completion order otherwise.
            return monoid.combine_partials([out[1] for out in outs]), "parallel"
        groups = self._iter(
            nest, lambda node, block: self._parallel_groups(node, maps, block)
        )
        return self._fold_plan(plan, monoid, groups), "parallel"

    def _worker(self, prepared: dict[int, Any]) -> Executor:
        """A private executor for one partition — its own record, timed
        when the query's is — that replays ``prepared`` where it would
        scan or build."""
        metrics = PlanMetrics() if self._timed else None
        worker = Executor(self.evaluator, self.indexes, metrics=metrics)
        worker._prepared = prepared
        return worker

    def _prepare_spine(self, node: PlanNode, prepared: dict[int, Any]) -> Optional[Scan]:
        """The driving Scan of a partitionable spine, else None.

        Shared join state (hash tables, materialized right sides) goes
        into ``prepared``, exactly once, on the way back up a successful
        walk; the partition workers replay it.
        """
        if isinstance(node, Scan):
            return node
        if isinstance(node, (SelectOp, Unnest)):
            return self._prepare_spine(node.child, prepared)
        if isinstance(node, Join):
            scan = self._prepare_spine(node.left, prepared)
            if scan is not None:
                right_rows = tuple(self._iter(node.right))
                if node.left_keys:
                    prepared[id(node)] = self._build_hash_table(node, right_rows)
                else:
                    prepared[id(node)] = right_rows
            return scan
        return None

    def _build_hash_table(
        self, join: Join, right_rows: tuple[dict[str, Any], ...]
    ) -> dict[Any, list[dict[str, Any]]]:
        """Build the join's hash table once, fanning the key evaluation
        out over partitions of the build side.

        Buckets are concatenated in partition-index order, so each
        bucket lists its rows in exactly the order the serial build
        would — probe outputs stay deterministic.
        """
        partitions = partition_rows(
            right_rows, self.config.max_workers, self.config.morsel_size
        )
        if len(partitions) <= 1 or len(right_rows) < self.config.min_partition_rows:
            return self._build_table(join, right_rows)
        right_fns = self._fn(join, "right_key_fns")
        rt = self._rt

        def keyed(part: Any) -> list[tuple[Any, dict[str, Any]]]:
            return [(tuple(fn(rb, rt) for fn in right_fns), rb) for rb in part]

        table: dict[Any, list[dict[str, Any]]] = {}
        with ThreadPoolExecutor(
            max_workers=min(self.config.max_workers, len(partitions))
        ) as pool:
            for pairs in pool.map(keyed, partitions):
                for key, right_binding in pairs:
                    table.setdefault(key, []).append(right_binding)
        self.metrics.for_node(join).hash_builds += len(right_rows)
        return table

    def _fan_out(
        self,
        prepared: list[dict[int, Any]],
        task: Callable[[Executor], Any],
        ordered: bool,
    ) -> list[Outcome]:
        """Run ``task`` on a private worker per partition (one
        ``prepared`` map each) on the pool, then add the workers' blocks
        into the query's (workers run the plan's own nodes, so they merge
        by node) and attach per-partition trace spans.

        ``ordered=True`` returns outcomes in partition-index order (the
        non-commutative requirement); ``ordered=False`` returns them in
        completion order, which commutative combining may exploit.
        """

        def run(index: int) -> Outcome:
            worker = self._worker(prepared[index])
            start = time.perf_counter()
            value = task(worker)
            return index, value, worker, start, time.perf_counter() - start

        workers = min(self.config.max_workers, len(prepared))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, index) for index in range(len(prepared))]
            outs = [f.result() for f in (futures if ordered else as_completed(futures))]
        for index, _value, worker, start, duration in sorted(
            outs, key=lambda out: out[0]
        ):
            self.metrics.merge_from(worker.metrics)
            if self.tracer is not None:
                self.tracer.attach(
                    f"partition[{index}]",
                    start,
                    duration,
                    rows=worker.metrics.for_node(self._plan.child).rows_out,  # reduced
                )
        self.metrics.partitions, self.metrics.parallel_workers = len(outs), workers
        return outs

    def _parallel_groups(
        self, nest: Nest, prepared: list[dict[int, Any]], block: OperatorMetrics
    ) -> Iterator[dict[str, Any]]:
        """The Nest's output bindings from partitioned partial groupings."""
        outs = self._fan_out(
            prepared,
            lambda worker: worker._group(nest, worker._iter(nest.child)),
            ordered=True,
        )
        # Per key and fold, the partitions' values combined in
        # partition-index order, so a non-commutative fold monoid (e.g.
        # a list partition) sees its elements exactly as the serial
        # single-pass grouping did.
        parts: dict[tuple, list[list]] = {}
        for out in outs:
            for key, values in out[1].items():
                parts.setdefault(key, []).append(values)
        monoids = self._fold_monoids(nest)
        merged = {
            key: [
                monoid.combine_partials(column)
                for monoid, column in zip(monoids, zip(*rows))
            ]
            for key, rows in parts.items()
        }
        yield from self._emit_groups(nest, merged, block)
