"""The traced run: the pipeline re-executed stage by stage, plus layer probes.

Every number here is taken from outside the program: each layer's public
function is called inside a harness-owned span (``spans.Recorder``). The
staged pipeline mirrors what ``Database.run`` does under the workload's
modes; its value must equal ``Database.run``'s for the class, or the
class's numbers are dropped and flagged. A probe that raises — because
a later change deleted or renamed the entry point it calls — records
``None`` plus the error text for its metrics and nothing else fails.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Callable, NamedTuple, Optional

from benchmarks.harness import datagen
from benchmarks.harness.spans import Recorder
from benchmarks.harness.stats import Clock, geomean, quiesced
from benchmarks.harness.workloads import CACHED, MODES_OFF, QueryClass, UpdateMix, database

#: share of ``--seconds`` the staged loop may use; the probes take the rest
STAGED_SHARE = 0.4
MAX_STAGED_REPS = 40
PROBE_REPS = 3


class Compiled(NamedTuple):
    node: Any
    calculus: Any
    normalized: Any
    trace: Any
    plan: Any


class Staged(NamedTuple):
    cls: QueryClass
    compiled: Optional[Compiled]
    value: Any
    stats: Any


def compile_query(rec: Recorder, db: Any, cls: QueryClass) -> Compiled:
    """The front half of ``Database.run``, one span per layer call."""
    from repro.algebra.groupby import build_group_by_plan
    from repro.algebra.optimizer import Optimizer
    from repro.algebra.translate import build_plan
    from repro.calculus.ast import Comprehension
    from repro.errors import LintError, PlanError
    from repro.normalize.engine import normalize_with_trace
    from repro.oql.ast import Select
    from repro.oql.parser import parse
    from repro.oql.translate import Translator

    if cls.opts.get("strict"):
        with rec.span("lint.lint"):
            errors = [d for d in db.lint(cls.oql) if d.is_error]
        if errors:
            raise LintError(errors)
    with rec.span("oql.parse"):
        node = parse(cls.oql)
    with rec.span("oql.translate"):
        calculus = Translator(db.schema).translate(node)
    if cls.opts.get("typecheck"):
        with rec.span("types.typecheck"):
            db.typecheck(calculus)
    with rec.span("normalize.normalize"):
        normalized, trace = normalize_with_trace(calculus)
    plan = None
    if isinstance(node, Select) and node.group_by:
        try:
            with rec.span("algebra.plan"):
                plan = build_group_by_plan(node, Translator(db.schema))
        except PlanError:
            plan = None
    if plan is None and isinstance(normalized, Comprehension):
        try:
            with rec.span("algebra.plan"):
                logical = build_plan(normalized, pre_normalize=True)
            with rec.span("algebra.optimize"):
                plan = Optimizer(
                    db.catalog.index_keys(), db.catalog.extent_sizes()
                ).optimize(logical)
        except PlanError:
            plan = None
    if plan is not None and db.jit is not None:
        from repro.jit.plan import precompile_plan

        with rec.span("jit.compile"):
            precompile_plan(plan)
    return Compiled(node, calculus, normalized, trace, plan)


def execute_query(rec: Recorder, db: Any, cls: QueryClass, compiled: Compiled):
    """The back half: the algebra executor, else the reference evaluator."""
    from repro.algebra.physical import Executor
    from repro.errors import PlanError

    evaluator = db.evaluator()
    for name, value in cls.params.items():
        evaluator.bind_global("$" + name, value)
    if compiled.plan is not None:
        executor = Executor(evaluator, db.catalog.index_mappings(), jit=db.jit)
        try:
            with rec.span("algebra.execute"):
                value = executor.execute(compiled.plan)
            return value, executor.stats
        except PlanError:
            pass
    with rec.span("eval.evaluate"):
        return evaluator.evaluate(compiled.normalized), None


def literal_oql(cls: QueryClass) -> str:
    """The class's OQL with its ``$`` parameters written in as literals."""
    oql = cls.oql
    for name, value in cls.params.items():
        oql = oql.replace("$" + name, repr(value))
    return oql


def yields(*names: str):
    """Mark a probe with the metrics it produces (nulled if it raises)."""
    def mark(fn):
        fn.metrics = names
        return fn
    return mark


class Tracer:
    """One traced run of one workload."""

    def __init__(self, workload: Any, seconds: float) -> None:
        self.w = workload
        self.seconds = seconds
        self.clock = Clock()
        self.rec = Recorder(self.clock)
        self.metrics: dict[str, Optional[float]] = {}
        self.errors: dict[str, str] = {}
        self.flags: list[str] = []
        self.classes: dict[str, dict[str, Any]] = {}
        #: what a geomean was taken over, where the parts are worth reading
        self.breakdown: dict[str, dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0

    def probe(self, names: tuple[str, ...], fn: Callable[[], dict[str, float]]) -> None:
        """Run one layer probe; a failure nulls its metrics and is recorded."""
        try:
            with quiesced():
                values = fn()
            self.metrics.update({name: values[name] for name in names})
        except Exception as err:  # the probe boundary: never fails the run
            for name in names:
                self.metrics[name] = None
                self.errors[name] = repr(err)

    # -- the staged pipeline ------------------------------------------------------

    def run_staged(self) -> None:
        w, rec = self.w, self.rec
        with rec.span("setup"):
            w.setup(rec.span)
        untraced: dict[str, list[float]] = {}
        dropped: set[str] = set()
        last: dict[str, Staged] = {}
        with quiesced():
            begun = time.perf_counter()
            for rep in range(MAX_STAGED_REPS):
                for cls, call in w.trace_ops(rep):
                    self.attempted += 1
                    query = f"{cls.name}#{rep}"
                    try:
                        # alternate which side runs first: the second one
                        # finds the caches warmed by the first
                        staged = None
                        if rep % 2 and cls.path != "none":
                            staged = self._staged_once(cls, query)
                        seconds, value = self.clock.timed(call)
                        untraced.setdefault(cls.name, []).append(seconds)
                        if cls.path == "none":
                            continue
                        staged = staged or self._staged_once(cls, query)
                    except Exception as err:  # keeps the run going; the class is flagged
                        self.failed += 1
                        dropped.add(cls.name)
                        self.flags.append(f"{cls.name}: {err!r}")
                        continue
                    if staged.value != value:
                        dropped.add(cls.name)
                    last[cls.name] = staged
                gc.collect()
                if rep >= 2 and time.perf_counter() - begun > self.seconds * STAGED_SHARE:
                    break
        for name in sorted(dropped):
            self.flags.append(f"{name}: staged value differs from Database.run; numbers dropped")
        self._summarise(untraced, dropped)
        kept = [s for name, s in last.items() if name not in dropped and s.compiled]
        self.probe(self._counts.metrics, lambda: self._counts(kept))

    def _staged_once(self, cls: QueryClass, query: str) -> Staged:
        from repro.objects import run_update

        rec, db = self.rec, self.w.dbs[cls.target]
        if cls.kind == "update":
            with rec.span("query", query), rec.span("objects.update"):
                return Staged(cls, None, run_update(cls.program, db.evaluator()), None)
        if cls.path == "full":
            with rec.span("query", query):
                compiled = compile_query(rec, db, cls)
                value, stats = execute_query(rec, db, cls, compiled)
        else:  # a compile-cache hit pays execution only; compile off the path
            with rec.span("compile", query):
                compiled = compile_query(rec, db, cls)
            with rec.span("query", query):
                value, stats = execute_query(rec, db, cls, compiled)
        return Staged(cls, compiled, value, stats)

    def _summarise(self, untraced: dict[str, list[float]], dropped: set[str]) -> None:
        """Per-class stage medians, then the layer metrics made from them."""
        rec = self.rec
        stage: dict[tuple[str, str], list[float]] = {}
        on_path: set[tuple[str, str]] = set()
        for span in rec.spans:
            if span.query is None:
                continue
            key = (span.query.split("#")[0], span.name)
            stage.setdefault(key, []).append(span.duration)
            if span.parent is not None and rec.spans[span.parent].name == "query":
                on_path.add(key)
        for name, samples in untraced.items():
            if name in dropped:
                continue
            entry: dict[str, Any] = {"run_ms": statistics.median(samples) * 1e3}
            entry["stages_ms"] = {
                span_name: statistics.median(durations) * 1e3
                for (cls_name, span_name), durations in stage.items()
                if cls_name == name and span_name not in ("query", "compile")
            }
            if (name, "query") in stage:
                entry["query_span_ms"] = statistics.median(stage[(name, "query")]) * 1e3
                entry["staged_ms"] = sum(
                    ms for span_name, ms in entry["stages_ms"].items()
                    if (name, span_name) in on_path)
                entry["accounted_share"] = entry["staged_ms"] / entry["run_ms"]
            self.classes[name] = entry

        for metric, span_name in (
            ("oql.parse_ms", "oql.parse"),
            ("oql.translate_ms", "oql.translate"),
            ("normalize.normalize_ms", "normalize.normalize"),
            ("algebra.plan_ms", "algebra.plan"),
            ("algebra.optimize_ms", "algebra.optimize"),
            ("algebra.execute_ms", "algebra.execute"),
        ):
            self.probe((metric,), lambda m=metric, s=span_name: {m: geomean([
                c["stages_ms"][s] for c in self.classes.values() if s in c["stages_ms"]])})
        staged = [c for c in self.classes.values() if "staged_ms" in c]
        self.probe(("db.glue_ms",), lambda: {
            "db.glue_ms": statistics.median(c["run_ms"] - c["staged_ms"] for c in staged)})
        self.probe(("bench.trace_overhead_share",), lambda: {
            "bench.trace_overhead_share":
                geomean([c["query_span_ms"] / c["run_ms"] for c in staged]) - 1})
        for metric, span_name in (("db.load_extent_ms", "db.load_extent"),
                                  ("db.create_index_ms", "db.create_index")):
            # totals over set-up; zero when the workload makes no such call
            self.metrics[metric] = sum(
                s.duration for s in rec.spans if s.name == span_name) * 1e3

    @staticmethod
    @yields("oql.tokens", "normalize.rule_fires", "normalize.term_nodes_in",
            "normalize.term_nodes_out", "algebra.plan_operators", "algebra.rows_scanned",
            "algebra.rows_joined", "algebra.rows_unnested", "algebra.rows_reduced",
            "algebra.hash_builds", "algebra.index_probes", "algebra.rows_per_result")
    def _counts(staged: list[Staged]) -> dict[str, float]:
        """Exact sums over one staged execution of every class."""
        from repro.calculus.traversal import term_size
        from repro.oql.lexer import tokenize

        def operators(plan: Any) -> int:
            return 0 if plan is None else 1 + sum(operators(c) for c in plan.children())

        out = dict.fromkeys(Tracer._counts.metrics, 0)
        returned = 0
        for cls, compiled, value, stats in staged:
            out["oql.tokens"] += len(tokenize(cls.oql))
            out["normalize.rule_fires"] += len(compiled.trace)
            out["normalize.term_nodes_in"] += term_size(compiled.calculus)
            out["normalize.term_nodes_out"] += term_size(compiled.normalized)
            out["algebra.plan_operators"] += operators(compiled.plan)
            if stats is not None:
                for field in ("rows_scanned", "rows_joined", "rows_unnested",
                              "rows_reduced", "hash_builds", "index_probes"):
                    out["algebra." + field] += getattr(stats, field)
                returned += len(value) if hasattr(value, "__len__") else 1
        examined = (out["algebra.rows_scanned"] + out["algebra.rows_joined"]
                    + out["algebra.rows_unnested"])
        out["algebra.rows_per_result"] = examined / max(1, returned)
        return out

    # -- probes -------------------------------------------------------------------------
    #
    # Each probe measures one layer through its public entry points on
    # modes-off copies of the workload's databases (``self.off``), over
    # the workload's distinct read queries (``self.queries``).

    def run_probes(self) -> None:
        w = self.w
        self.queries: list[QueryClass] = []
        for cls in w.classes:
            if cls.kind != "update" and cls.oql not in [q.oql for q in self.queries]:
                self.queries.append(
                    QueryClass(cls.name, cls.target, literal_oql(cls), opts=cls.opts))
        self.off = w.build_dbs(w.data, MODES_OFF)
        self._base_ms: dict[str, float] = {}
        for fn in (self.checks, self.qerror, self.jit, self.reference, self.values,
                   self.monoids, self.cache, self.objects, self.parallel,
                   self.tracer_overhead, self.telemetry_overhead, self.vectors,
                   self.first_run):
            self.probe(fn.metrics, fn)

    def ms(self, fn: Callable[[], Any]) -> float:
        """Median of a few calls; one call when it alone outlasts the budget."""
        return self.clock.median_ms(fn, PROBE_REPS, self.seconds / 100)

    def run(self, dbs: dict, cls: QueryClass) -> Any:
        return dbs[cls.target].run(cls.oql, **cls.opts)

    def fresh(self, dbs: dict, cls: QueryClass) -> Compiled:
        """Compile without spans, lint or typecheck: just the artefacts."""
        return compile_query(Recorder(), dbs[cls.target], QueryClass(cls.name, cls.target, cls.oql))

    def per_class(self, fn: Callable[[QueryClass], Any]) -> list:
        """``fn`` over the queries it works for; a probe fails only if none does."""
        results, errors = [], []
        for cls in self.queries:
            try:
                results.append(fn(cls))
            except Exception as err:  # e.g. a typecheck the class does not pass
                errors.append(f"{cls.name}: {err!r}")
        if not results:
            raise RuntimeError("; ".join(errors) or "no query class to probe")
        return results

    def toggled(self, enable: Callable[[Any], Any], disable: Callable[[Any], Any]) -> float:
        """Geomean over queries of (mode on ÷ mode off) on the same database."""
        def ratio(c: QueryClass) -> float:
            if c.name not in self._base_ms:
                self._base_ms[c.name] = self.ms(lambda: self.run(self.off, c))
            db = self.off[c.target]
            enable(db)
            try:
                return self.ms(lambda: self.run(self.off, c)) / self._base_ms[c.name]
            finally:
                disable(db)

        return geomean(self.per_class(ratio))

    @yields("lint.lint_ms", "types.typecheck_ms")
    def checks(self) -> dict[str, float]:
        def typecheck(c: QueryClass) -> float:
            term = self.off[c.target].translate(c.oql)
            return self.ms(lambda: self.off[c.target].typecheck(term))

        lint = self.per_class(lambda c: self.ms(lambda: self.off[c.target].lint(c.oql)))
        return {"lint.lint_ms": geomean(lint),
                "types.typecheck_ms": geomean(self.per_class(typecheck))}

    @yields("algebra.qerror_mean", "algebra.qerror_max")
    def qerror(self) -> dict[str, float]:
        """Estimated against actual cardinality, from EXPLAIN ANALYZE."""
        summaries = self.per_class(
            lambda c: self.off[c.target].explain_data(c.oql, analyze=True).get("summary", {}))
        found = [s for s in summaries if s.get("nodes")]
        return {"algebra.qerror_mean": statistics.fmean(s["mean_q_error"] for s in found),
                "algebra.qerror_max": max(s["max_q_error"] for s in found)}

    @yields("jit.compile_ms", "jit.compiled_exprs", "jit.fallback_exprs",
            "jit.compiled_share", "jit.execute_ratio")
    def jit(self) -> dict[str, float]:
        from repro.algebra.physical import Executor
        from repro.jit import JITConfig
        from repro.jit.plan import precompile_plan

        compiled = fallback = 0
        compile_ms, ratios = [], []
        for c in self.queries:
            interpreted = self.fresh(self.off, c).plan
            if interpreted is None:
                continue
            times = []
            for _ in range(PROBE_REPS):  # precompile is idempotent: a fresh plan each time
                closures = self.fresh(self.off, c).plan
                seconds, report = self.clock.timed(lambda: precompile_plan(closures))
                times.append(seconds)
            compile_ms.append(statistics.median(times) * 1e3)
            compiled += report["compiled"]
            fallback += report["fallback"]
            db = self.off[c.target]
            indexes = db.catalog.index_mappings()
            slow = self.ms(lambda: Executor(db.evaluator(), indexes).execute(interpreted))
            fast = self.ms(
                lambda: Executor(db.evaluator(), indexes, jit=JITConfig()).execute(closures))
            ratios.append(slow / fast)
        return {"jit.compile_ms": geomean(compile_ms), "jit.compiled_exprs": compiled,
                "jit.fallback_exprs": fallback,
                "jit.compiled_share": compiled / max(1, compiled + fallback),
                "jit.execute_ratio": geomean(ratios)}

    @yields("eval.reference_ms", "eval.reference_over_algebra")
    def reference(self) -> dict[str, float]:
        """The reference evaluator against the algebra, at oracle scale."""
        from repro.algebra.physical import Executor

        w = self.w
        small_data = w.generate(w.oracle_scale)
        small = w.build_dbs(small_data, MODES_OFF)
        small_queries = {c.name: c for c in w.make_classes(small_data)}

        def one(c: QueryClass) -> tuple[float, Optional[float]]:
            c = QueryClass(c.name, c.target, literal_oql(small_queries[c.name]))
            db, compiled = small[c.target], self.fresh(small, c)
            slow = self.ms(lambda: db.evaluator().evaluate(compiled.normalized))
            if compiled.plan is None:
                return slow, None
            indexes = db.catalog.index_mappings()
            return slow, slow / self.ms(
                lambda: Executor(db.evaluator(), indexes).execute(compiled.plan))

        pairs = self.per_class(one)
        return {"eval.reference_ms": geomean([slow for slow, _ in pairs]),
                "eval.reference_over_algebra":
                    geomean([ratio for _, ratio in pairs if ratio is not None])}

    @yields("values.bag_iter_ms", "values.canonical_key_us", "values.record_build_us",
            "values.result_iter_ms")
    def values(self) -> dict[str, float]:
        from repro.values import Record, to_python
        from repro.values.compare import canonical_key

        catalogs = [db.catalog for db in self.off.values() if db.catalog.extents()]
        if not catalogs:  # object-mode only: the same rows as a set extent
            side = database(None, MODES_OFF)
            side.load_extent("Cities", frozenset(datagen.city_records(self.w.data["Cities"])))
            catalogs = [side.catalog]
        iter_ms, key_us, build_us = [], [], []
        for catalog, name in [(c, n) for c in catalogs for n in c.extents()]:
            records = list(catalog.iterate_extent(name))
            fields = [dict(r.items()) for r in records]
            # iterate_extent is the canonical re-sort every Scan of the extent pays
            iter_ms.append(self.ms(lambda: list(catalog.iterate_extent(name))))
            self.breakdown.setdefault("values.bag_iter_ms", {})[name] = iter_ms[-1]
            key_us.append(self.ms(lambda: [canonical_key(r) for r in records])
                          * 1e3 / len(records))
            build_us.append(self.ms(lambda: [hash(Record(f)) for f in fields])
                            * 1e3 / len(records))
        results = [self.run(self.off, c) for c in self.queries]
        return {"values.bag_iter_ms": geomean(iter_ms),
                "values.canonical_key_us": geomean(key_us),
                "values.record_build_us": geomean(build_us),
                "values.result_iter_ms": geomean(
                    [self.ms(lambda: to_python(v)) for v in results])}

    @yields("monoids.accumulate_ms", "monoids.merge_ms", "monoids.merge_over_accumulate")
    def monoids(self) -> dict[str, float]:
        """10k units folded in one go, and as 100 partial folds combined."""
        from repro.monoids import BAG, SET, SUM, SortedMonoid

        units = [i * 7919 % 10_007 for i in range(10_000)]
        chunks = [units[i:i + 100] for i in range(0, len(units), 100)]
        accumulate_ms, merge_ms = [], []
        for monoid in (BAG, SET, SUM, SortedMonoid(lambda x: x)):
            if monoid.is_collection:
                build = monoid.from_iterable
            else:
                def build(items, monoid=monoid):
                    total = monoid.zero()
                    for item in items:
                        total = monoid.merge(total, monoid.unit(item))
                    return total
            partials = [build(chunk) for chunk in chunks]
            accumulate_ms.append(self.ms(lambda: build(units)))
            merge_ms.append(self.ms(lambda: monoid.combine_partials(partials)))
        return {"monoids.accumulate_ms": geomean(accumulate_ms),
                "monoids.merge_ms": geomean(merge_ms),
                "monoids.merge_over_accumulate": geomean(merge_ms) / geomean(accumulate_ms)}

    @yields("cache.compile_hit_share", "cache.result_hit_share", "cache.invalidations",
            "cache.evictions", "cache.hit_run_ms", "cache.key_ms")
    def cache(self) -> dict[str, float]:
        from repro.cache.keys import canonical_term

        # counters over one cycle of the workload's own operation order
        caches = [db.cache for db in self.w.dbs.values() if db.cache is not None]
        for query_cache in caches:
            query_cache.stats.reset()
        for op in self.w.cycle(0):
            op.check(op.call())
        counters: dict[str, int] = {}
        for query_cache in caches:
            for key, count in query_cache.stats.as_dict().items():
                counters[key] = counters.get(key, 0) + count

        def share(kind: str) -> float:
            hits = counters.get(kind + "_hits", 0)
            return hits / max(1, hits + counters.get(kind + "_misses", 0))

        cached = self.w.build_dbs(self.w.data, CACHED)

        def hit(c: QueryClass) -> float:
            self.run(cached, c)
            return self.ms(lambda: self.run(cached, c))

        def key(c: QueryClass) -> float:
            term = self.off[c.target].translate(c.oql)
            return self.ms(lambda: canonical_term(term))

        return {"cache.compile_hit_share": share("compile"),
                "cache.result_hit_share": share("result"),
                "cache.invalidations": counters.get("invalidations", 0),
                "cache.evictions": counters.get("evictions", 0),
                "cache.hit_run_ms": geomean(self.per_class(hit)),
                "cache.key_ms": geomean(self.per_class(key))}

    @yields("objects.update_point_ms", "objects.update_bulk_ms", "objects.touched")
    def objects(self) -> dict[str, float]:
        """The workload's cities as objects: one point and one bulk update."""
        from repro.db import travel_schema
        from repro.objects import run_update

        cities = self.w.data["Cities"]
        db = database(travel_schema(), MODES_OFF)
        db.load_objects("Cities", "City", datagen.city_records(cities))
        (point,), bulk = UpdateMix.programs(cities[:1])
        touched = len(run_update(point, db.evaluator())) + len(run_update(bulk, db.evaluator()))
        return {"objects.update_point_ms": self.ms(lambda: run_update(point, db.evaluator())),
                "objects.update_bulk_ms": self.ms(lambda: run_update(bulk, db.evaluator())),
                "objects.touched": touched}

    @yields("parallel.run_ratio_2w", "parallel.partitions")
    def parallel(self) -> dict[str, float]:
        from repro.parallel import ParallelConfig

        def enable(db: Any) -> None:
            db.enable_parallel(ParallelConfig(max_workers=2))

        def partitions(c: QueryClass) -> int:
            db = self.off[c.target]
            enable(db)
            try:
                stats = db.run_detailed(c.oql, **c.opts).stats
            finally:
                db.disable_parallel()
            return stats.partitions if stats is not None else 0

        return {"parallel.run_ratio_2w": self.toggled(enable, lambda db: db.disable_parallel()),
                "parallel.partitions": sum(self.per_class(partitions))}

    @yields("obs.tracer_overhead_share")
    def tracer_overhead(self) -> dict[str, float]:
        def switch(on: bool) -> Callable[[Any], None]:
            return lambda db: setattr(db.tracer, "enabled", on)

        return {"obs.tracer_overhead_share": self.toggled(switch(True), switch(False)) - 1}

    @yields("obs.telemetry_overhead_share")
    def telemetry_overhead(self) -> dict[str, float]:
        from repro.obs.telemetry import MetricsRegistry

        return {"obs.telemetry_overhead_share": self.toggled(
            lambda db: db.enable_telemetry(MetricsRegistry()),
            lambda db: db.disable_telemetry()) - 1}

    @yields("vectors.fft256_ms")
    def vectors(self) -> dict[str, float]:
        from repro.vectors.linalg import fft_query

        rng = random.Random(self.w.seed)
        points = [complex(rng.random(), rng.random()) for _ in range(256)]
        return {"vectors.fft256_ms": self.ms(lambda: fft_query(points))}

    @yields("db.first_run_ms")
    def first_run(self) -> dict[str, float]:
        """The first run of each query on a fresh database in the workload's modes."""
        cold = self.w.build_dbs(self.w.data, self.w.modes)
        return {"db.first_run_ms": geomean(self.per_class(
            lambda c: self.clock.timed(lambda: self.run(cold, c))[0] * 1e3))}


def trace(workload: Any, seconds: float) -> Tracer:
    tracer = Tracer(workload, seconds)
    tracer.run_staged()
    tracer.run_probes()
    return tracer
