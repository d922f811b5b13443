"""The database facade: the whole paper as one object.

:class:`Database` wires every layer together, once::

    OQL text --parse--> OQL AST --translate--> calculus term
        --lint-------> (every static finding at once; ``strict=True``)
        --typecheck--> (C/I well-formedness)
        --normalize--> canonical comprehension
        --plan------> logical algebra --optimize--> physical plan
        --execute---> result (pipelined)

Everything up to the physical plan is :meth:`Database.compile`, a
function of the query text and the catalog alone; its product, a
:class:`~repro.cache.core.CompiledQuery`, is the only thing the back
half (``_execute``) accepts. Ad-hoc queries, prepared statements,
EXPLAIN and the lint advisors all go through that one pair, so they
cannot disagree about which plan a query gets. The opt-in modes (cache,
telemetry, verify — DESIGN.md has the table) are stages
of that pipeline, held to a contract that can be checked: *every mode
returns the same value and raises the same error as every other (the
test suite), and the default mode's end-to-end metrics stay within the
bounds of ``BENCHMARK.json`` (the harness)*.

``run`` returns just the value; ``run_detailed`` returns every
intermediate artifact (the translated term, the normalization trace,
the optimized plan, executor statistics), which the examples and the
benchmark harness print. An ``engine="interpret"`` escape hatch runs
the normalized term on the reference evaluator instead of the algebra
— the two paths are cross-checked in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import import_module
from typing import Any, Literal, Optional

from repro.algebra.groupby import plan_group_by
from repro.algebra.ops import Reduce
from repro.algebra.optimizer import Optimizer
from repro.algebra.physical import ExecutionStats, Executor
from repro.algebra.translate import build_plan, lifted_literals, plan_effects
from repro.analysis.verifier import verification, verification_enabled
from repro.cache.core import CompiledQuery, QueryCache
from repro.cache.invalidation import analyze_dependencies
from repro.cache.keys import CacheKey, canonical_term, param_names
from repro.calculus.ast import Comprehension, Term
from repro.calculus.traversal import free_vars, has_effects, substitute_many
from repro.db.catalog import Catalog
from repro.db.sample_data import (
    company_schema,
    make_company,
    make_travel_agency,
    travel_schema,
)
from repro.env import env_flag
from repro.errors import (
    DatabaseError,
    LintError,
    OQLSyntaxError,
    PlanError,
    ReproError,
    ResourceLimitError,
    TranslationError,
)
from repro.eval.evaluator import Evaluator
from repro.jit.plan import CODE_CACHE_SIZE, fused, jit_report, plan_key, precompile_plan
from repro.monoids import BAG, LIST
from repro.normalize.engine import normalize_with_trace
from repro.normalize.trace import NormalizationTrace
from repro.obs.explain import plan_to_dict, render_explain, summarize
from repro.obs.metrics import PlanMetrics
from repro.obs.querylog import QueryLog
from repro.obs.tracer import QueryRecord
from repro.oql.parser import parse
from repro.oql.translate import Translator
from repro.types.infer import TypeChecker
from repro.types.schema import Schema
from repro.types.types import ANY
from repro.values import Bag, Record
from repro.values.compare import StoredSet, stored

#: The opt-in modes: attribute name -> (environment flag, module holding
#: the resolver, resolver name). One row per mode; ``_resolve_mode`` is
#: the only code that reads it.
_MODES = {
    "cache": ("REPRO_CACHE", "repro.cache.core", "resolve_cache"),
    "telemetry": ("REPRO_TELEMETRY", "repro.obs.telemetry.registry", "resolve_telemetry"),
}


@dataclass
class QueryResult:
    """Everything produced while answering one query."""

    oql: str
    calculus: Term
    normalized: Term
    trace: NormalizationTrace
    plan: Optional[Reduce]
    value: Any
    engine: str = "algebra"
    #: the execution's per-operator record (None when no plan ran)
    metrics: Optional[PlanMetrics] = None
    #: cache outcome for this query, e.g. {"compile": "hit",
    #: "result": "miss"} (None unless the database had a cache)
    cache: Optional[dict[str, Any]] = None
    #: the compiled entry this result was executed from
    compiled: Optional[CompiledQuery] = field(default=None, repr=False)
    #: this query's record: phase times, total time, cache outcome
    record: Optional[QueryRecord] = field(default=None, repr=False)

    @property
    def jit(self) -> Optional[dict[str, Any]]:
        """What the jit phase compiled for the plan, e.g. {"compiled": 3,
        "fallback": 1, "constructs": {}} (None when no plan ran)."""
        return None if self.metrics is None else jit_report(self.plan)

    @cached_property
    def stats(self) -> Optional[ExecutionStats]:
        """The executor's whole-query counters: :attr:`metrics` summed
        by node class, computed on first read and kept, so the query log,
        telemetry and :meth:`pipeline_report` share one fold (None when
        no plan ran)."""
        return None if self.metrics is None else ExecutionStats.of(self.metrics)

    def pipeline_report(self) -> str:
        """A printable record of every pipeline stage."""
        lines = [
            f"OQL:        {self.oql.strip()}",
            f"calculus:   {self.calculus}",
            f"normalized: {self.normalized}",
            f"rules:      {', '.join(self.trace.rules_fired()) or '(already canonical)'}",
            f"engine:     {self.engine}",
        ]
        if self.cache is not None:
            lines.append(
                "cache:      "
                + "  ".join(f"{k}={v}" for k, v in sorted(self.cache.items()))
            )
        if self.jit is not None:
            line = (
                f"jit:        compiled={self.jit.get('compiled', 0)}"
                f"  fallback={self.jit.get('fallback', 0)}"
            )
            constructs = self.jit.get("constructs") or {}
            if constructs:
                line += "  (" + ", ".join(
                    f"{name} x{count}" for name, count in sorted(constructs.items())
                ) + ")"
            lines.append(line)
        if self.record is not None:
            phases = self.record.phases_ms()
            lines.append(
                "phases:     "
                + "  ".join(f"{name}={ms:.3f}ms" for name, ms in phases.items())
            )
        if self.plan is not None:
            lines.append("plan:")
            lines.extend("  " + l for l in self.plan.render().splitlines())
        if self.metrics is not None:
            lines.append(f"stats:      {self.stats.as_dict()}")
        lines.append(f"value:      {self.value!r}")
        return "\n".join(lines)


class Database:
    """An in-memory OQL database over the monoid calculus.

    >>> db = Database(travel_schema())
    >>> db.load_extents(make_travel_agency(num_cities=3, seed=1))
    >>> isinstance(db.run("count(select h.name from c in Cities, "
    ...                   "h in c.hotels)"), int)
    True
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        cache: Any = None,
        telemetry: Any = None,
        parallel: Any = None,
        jit: Any = None,
    ) -> None:
        self.schema = schema if schema is not None else Schema()
        #: every name a query can mean, the compile version, the object heap
        self.catalog = Catalog(self.schema)
        self.store = self.catalog.store
        self.registry = self.catalog.registry
        #: the session's one query history, recording while
        #: :meth:`profile` has it on
        self.query_log = QueryLog()
        # The opt-in modes, each None (off) unless its constructor
        # argument or ``REPRO_*`` flag says otherwise (DESIGN.md, "Modes"):
        #: query cache (compiled plans + results)
        self.cache: Optional[QueryCache] = _resolve_mode("cache", cache)
        #: metrics registry (fleet telemetry)
        self.telemetry: Optional[Any] = _resolve_mode("telemetry", telemetry)
        if parallel:
            raise DatabaseError("no parallel execution: every plan runs as one serial function")
        #: what ``jit=`` said, which changes nothing (docs/JIT.md)
        self.jit: Optional[Any] = jit or None
        # (catalog version, the Linter derived at it) — see _linter
        self._linter_at: Optional[tuple[int, Any]] = None
        # (text key, compile version, verifying) -> its plan's key
        self._plan_keys: dict[tuple, Optional[CacheKey]] = {}

    # -- loading ----------------------------------------------------------------

    def load_extent(
        self,
        name: str,
        rows: Any,
        monoid: str = "set",
        replace: bool = False,
    ) -> None:
        """Load an extent from an iterable of dicts/records.

        ``monoid`` chooses the carrier: ``set`` (default), ``bag`` or
        ``list``. Already-built collections (frozenset, Bag, tuple)
        pass through, each set in them made a
        :class:`~repro.values.compare.StoredSet`.
        """
        if isinstance(rows, (frozenset, Bag, tuple)):
            collection = stored(rows)
        else:
            converted = [_to_record(row) for row in _rows_of(name, rows)]
            if monoid == "set":
                collection = StoredSet(converted)
            elif monoid == "bag":
                collection = BAG.from_iterable(converted)
            elif monoid == "list":
                collection = LIST.from_iterable(converted)
            else:
                raise DatabaseError(f"extent monoid must be set/bag/list, got {monoid!r}")
        self.catalog.register_extent(name, collection, replace=replace)

    def load_extents(self, extents: dict[str, Any], replace: bool = False) -> None:
        """Load several extents (e.g. a sample-data dictionary)."""
        for name, collection in extents.items():
            self.load_extent(name, collection, replace=replace)

    def load_objects(self, extent: str, class_name: str, rows: Any) -> None:
        """Load an extent in *object mode*: rows become OIDs (section 4.2).

        Queries navigate the objects transparently (paths dereference);
        update programs may mutate them in place.
        """
        rows = list(_rows_of(extent, rows))
        for row in rows:
            if not isinstance(row, dict):
                raise DatabaseError(
                    f"object extent {extent!r} needs dict rows, got {type(row).__name__}"
                )
        self.catalog.register_objects(extent, class_name, [dict(_to_record(r)) for r in rows])

    def create_index(self, extent: str, attribute: str) -> None:
        """Build a hash index usable by the optimizer."""
        self.catalog.create_index(extent, attribute)

    def register_function(self, name: str, fn: Any) -> None:
        """Expose a Python function to OQL queries."""
        self.catalog.register_function(name, fn)

    # -- core pipeline -----------------------------------------------------------------

    def evaluator(self) -> Evaluator:
        """A fresh evaluator bound to the current extents and schema."""
        return Evaluator(
            self.catalog.bindings(),
            functions=self.catalog.functions,
            methods=self.schema.all_methods(),
            store=self.store,
        )

    def define(self, name: str, oql: str) -> Term:
        """Define a named query (an ODMG ``define name as query`` view).

        Views are pure macro expansion into the calculus: any later
        query mentioning ``name`` has the view's term substituted in,
        and normalization then fuses the view body into the query —
        views cost nothing at run time. Views may reference previously
        defined views. A name that is already another kind is refused.
        """
        term = self.translate(oql)
        self.catalog.define_view(name, term)
        return term

    def translate(self, oql: str) -> Term:
        """OQL text -> calculus term with views expanded."""
        return self._expand_views(Translator(self.schema).translate(parse(oql)))[0]

    def _expand_views(self, term: Term) -> tuple[Term, bool]:
        """``term`` with the views it names substituted in, and whether
        there were any (most queries name none, whatever is defined). The
        expansion is kept on ``term`` per catalog version, so a term run
        again reuses it and what is memoised on it (its effect stage)."""
        catalog = self.catalog
        views = catalog.views
        if views and not views.keys().isdisjoint(free_vars(term)):
            # ``views`` is this catalog's own dict: a term may also run on
            # another database, whose catalog can stand at the same version
            memo = term.__dict__.get("expanded")
            if memo is None or memo[0] is not views or memo[1] != catalog.version:
                expanded = substitute_many(term, dict(views))
                memo = term.__dict__["expanded"] = (views, catalog.version, expanded)
            return memo[2], True
        return term, False

    def typecheck(self, term: Term) -> None:
        """Run the static checker (C/I restriction and type errors)."""
        TypeChecker(self.schema).check(term)

    def lint(self, oql: str) -> list:
        """Statically analyze a query; returns all :class:`Diagnostic`\\ s.

        Unlike :meth:`typecheck` this never raises on a bad query —
        syntax errors, C/I violations, unbound names, and the
        semantic/performance lints all come back as one batch with
        stable ``QLxxx`` codes and source spans. See ``docs/LINT.md``.
        """
        return self._linter().lint_source(oql)

    def _linter(self) -> Any:
        """The linter for the catalog as it stands: the known names and
        their types are derived once per catalog version (typing an
        extent the schema does not declare reads every row of it)."""
        version = self.catalog.version
        at = self._linter_at
        if at is None or at[0] != version:
            from repro.lint.linter import Linter
            from repro.types.infer import type_of_value

            names = self.catalog.names()
            declared = self.schema.extents()  # the checker knows their types
            types = {}
            for extent, collection in self.catalog.extents().items():
                if extent not in declared:
                    try:
                        types[extent] = type_of_value(collection)
                    except ReproError:
                        pass
            at = self._linter_at = (version, Linter(self.schema, names, types))
        return at[1]

    def run(
        self,
        oql: str | Term,
        engine: Literal["auto", "interpret"] = "auto",
        typecheck: bool = False,
        strict: bool = False,
        verify: Optional[bool] = None,
    ) -> Any:
        """Answer an OQL query or a calculus term; returns just the value.

        With ``strict=True`` the query is linted first and a
        :class:`~repro.errors.LintError` carrying every error-severity
        diagnostic is raised before any evaluation happens.

        With ``verify=True`` every normalization-rule fire and optimizer
        rewrite is checked against the soundness invariants of
        :mod:`repro.analysis`, raising
        :class:`~repro.errors.VerificationError` on the first unsound
        step. ``None`` (the default) defers to the ``REPRO_VERIFY``
        environment flag; ``False`` forces verification off.
        """
        return self.run_detailed(
            oql, engine=engine, typecheck=typecheck, strict=strict, verify=verify
        ).value

    def run_detailed(
        self,
        oql: str | Term,
        engine: Literal["auto", "interpret"] = "auto",
        typecheck: bool = False,
        strict: bool = False,
        verify: Optional[bool] = None,
    ) -> QueryResult:
        """Answer an OQL query or a calculus term, keeping every artifact.

        The result always carries the query's record (``result.record``:
        phase times, total time, cache outcome) and the execution's
        per-operator record (``result.metrics``, which ``result.stats``
        folds once). ``verify`` is :meth:`run`'s
        rewrite-verification switch (it covers the whole pipeline,
        including the re-normalization inside plan building).
        """
        return self._run(oql, engine, typecheck, strict, verify, None, {})

    def _run(
        self,
        oql: str | Term,
        engine: str,
        typecheck: bool,
        strict: bool,
        verify: Optional[bool],
        prepared: Any,
        params: dict[str, Any],
        bypass: bool = False,
    ) -> QueryResult:
        """The shell every query runs in, ad-hoc or prepared: one
        :class:`~repro.obs.tracer.QueryRecord` (timed with
        ``time.perf_counter_ns``, never the wall clock), the
        ``verification`` extent, compile → execute under one
        ``RecursionError`` guard, and the one hand-off of the finished or
        failed record to its readers (:meth:`_report`).
        ``bypass`` executes even when the result cache holds the value
        (EXPLAIN ANALYZE reports a real execution)."""
        text = oql if isinstance(oql, str) else None
        record = QueryRecord(text or "")
        stage = "compile"
        try:
            try:
                with verification(verify):
                    if prepared is None:
                        entry = self._compile(oql, engine, typecheck, None, strict, record)
                    else:
                        entry = prepared._ensure(record)
                        record.oql = record.oql or entry.oql  # a pinned term's label
                        prepared._validate(params)
                        record.cache["compile"] = "prepared"
                    if text is None:  # a term: bind what its effect stage lifted
                        params = {**params, **lifted_literals(entry.calculus)}
                    stage = "execute"
                    result = self._execute(entry, params, bypass, record)
            except RecursionError:
                # a term too deep for one of the pipeline's recursive walks
                raise ResourceLimitError(f"query nested too deeply to {stage}") from None
        except Exception as err:
            record.finish(err)
            self._report(record, None, err)
            raise
        record.finish()
        self._report(record, result, None)
        return result

    def _report(
        self,
        record: QueryRecord,
        result: Optional[QueryResult],
        error: Optional[Exception],
    ) -> None:
        """Hand one finished query (its ``result``) or failed one (its
        ``error``) to every reader that is on: telemetry (one flush) and
        the query log (one entry)."""
        if self.telemetry is not None:
            from repro.obs.telemetry.instrument import (
                record_query_error,
                record_query_result,
            )

            seconds = record.total_ns / 1e9
            if result is None:
                record_query_error(self.telemetry, error, seconds)
            else:
                record_query_result(self.telemetry, self, result, seconds)
        if self.query_log.enabled:
            self.query_log.record(record, result)

    # -- compile: the front half ------------------------------------------------

    def compile(
        self,
        oql: str | Term,
        engine: Literal["auto", "interpret"] = "auto",
        typecheck: bool = False,
        param_types: Optional[dict[str, Any]] = None,
        *,
        strict: bool = False,
        record: Optional[QueryRecord] = None,
    ) -> CompiledQuery:
        """OQL text -> :class:`CompiledQuery`: parse → translate → [lint]
        → [typecheck] → normalize → plan → optimize → jit.

        The one place that sequence is written. A calculus term skips
        parse and translate; one that writes the heap passes the *effect
        stage* (:func:`~repro.algebra.translate.plan_effects`) in place of
        normalize → plan → optimize → jit, and is not cached. ``strict`` runs the lint
        stage on the term as written (views still names, so spans point
        into this text) and raises :class:`~repro.errors.LintError` on
        error findings, a parse or translate failure (``QL000``) included.
        It is per call and in no cache key; with a cache attached, a text
        that lints clean records this catalog version with its alias, and
        a strict text hit needs that version to be current: a cached plan
        must not smuggle past strict mode. With a cache attached
        the compiled entry is looked up first by exact text and then,
        after translation, by canonical alpha-form (docs/CACHE.md
        specifies keying and invalidation), and stored on a miss. Each
        stage is timed into ``record`` (a fresh one when not given); with
        a cache, its ``cache`` receives ``{"compile": "hit" | "miss"}``
        and its ``cached`` the phases a hit skipped. Under rewrite
        verification only entries that were themselves built under it
        count as hits.
        ``$name`` parameters type-check as ``ANY`` unless ``param_types``
        narrows them, whoever compiles — so a shared entry never depends
        on who built it first, and an unbound parameter surfaces at
        execution. A narrowing a typecheck reads is part of both keys.
        ``jit`` gives the plan its generated function, from the code cache
        when its shape was compiled before; a plan that gets none is
        dropped, and the query runs on the reference interpreter. A result
        cache's verdict, ``deps``, is derived before the entry is stored:
        the entry returned is final. ``engine="interpret"`` stops after
        normalize; any engine but it and ``"auto"`` is refused.
        """
        try:
            return self._compile(oql, engine, typecheck, param_types, strict, record)
        except RecursionError:
            raise ResourceLimitError("query nested too deeply to compile") from None

    def _compile(
        self, oql: str | Term, engine: str, typecheck: bool, param_types: Optional[dict[str, Any]],
        strict: bool, record: Optional[QueryRecord],
    ) -> CompiledQuery:
        """:meth:`compile` unguarded: :meth:`_run` guards it with execute."""
        if engine not in ("auto", "interpret"):
            raise DatabaseError(f"engine must be 'auto' or 'interpret', got {engine!r}")
        cache = self.cache
        if record is None:
            record = QueryRecord(oql)
        verifying = verification_enabled()
        version = self.catalog.version
        typed = tuple(sorted(param_types.items())) if typecheck and param_types else ()
        if isinstance(oql, str):
            text_key = (oql, engine, typecheck, typed)
            if cache is not None:
                with record.phase("cache"):
                    entry = cache.compiled_by_text(text_key, version, verifying, strict)
                if entry is not None:
                    record.cache["compile"] = "hit"
                    record.cached = entry.phases + (("lint",) if strict else ())
                    return entry
            try:
                with record.phase("parse"):
                    node = parse(oql)
                with record.phase("translate"):
                    written = Translator(self.schema).translate(node)
                    calculus, viewed = self._expand_views(written)
            except (OQLSyntaxError, TranslationError) as err:
                if not strict:
                    raise
                from repro.lint.linter import front_end_diagnostic

                raise LintError([front_end_diagnostic(err)]) from err
            phases = ["parse", "translate"]
            # ``$`` is not an identifier character, so text without one has
            # no parameters (a view body is the one other place to hide one).
            params = param_names(calculus) if "$" in oql or viewed else ()
            effects = False
        else:  # a calculus term: no text to parse or to key by
            written, oql = oql, str(oql)
            record.oql, text_key, phases = oql, None, []
            calculus, viewed = self._expand_views(written)
            effects = has_effects(calculus)
            params = param_names(calculus)
        # The normal form is computed once: by the lint stage when its
        # QL203 check asks (kept for the normalize stage; a failure is
        # not, so that stage raises it where it always did), else there.
        normal = None
        if strict:

            def normal_form() -> Term:
                nonlocal normal
                normal = normal or normalize_with_trace(calculus)
                return normal[0]

            with record.phase("lint"):
                found = self._linter().lint_term(written, None if viewed else normal_form)
                errors = [d for d in found if d.is_error]
            if errors:
                raise LintError(errors)
        # the version this text just linted clean at, kept with its alias
        clean_at = version if strict else None
        key = None
        if cache is not None and not effects:
            # Only a cache needs the canonical alpha-form; without one
            # it is never computed. Hashed here, once: every later lookup
            # of the entry or of its results reuses the stored hash.
            key = CacheKey((canonical_term(calculus), engine, typecheck, typed))
            entry = cache.compiled_by_canon(key, version, verifying)
            if entry is not None:
                # An alpha-variant of a cached query: alias the text
                # so the next repeat skips parse/translate too.
                if text_key is not None:
                    cache.alias(text_key, key, clean_at)
                record.cache["compile"] = "hit"
                record.cached = tuple(
                    p for p in entry.phases if p not in ("parse", "translate")
                )
                return entry
            record.cache["compile"] = "miss"
        if typecheck:
            with record.phase("typecheck"):
                env = {"$" + name: (param_types or {}).get(name, ANY) for name in params}
                TypeChecker(self.schema).check(calculus, env)
            phases.append("typecheck")
        plan: Optional[Reduce] = None
        if effects:  # rewrites may reorder what the heap threads through
            normalized, trace = calculus, NormalizationTrace(calculus)
            if engine == "auto":
                with record.phase("plan"):
                    plan = plan_effects(calculus, verifying)[1]
                phases.append("plan")
        else:
            with record.phase("normalize"):
                normalized, trace = normal or normalize_with_trace(calculus)
            phases.append("normalize")
        # Only comprehensions have plans; a normal form below that level
        # (``zero(M)``, a scalar call) is its own answer.
        if not effects and engine == "auto" and isinstance(normalized, Comprehension):
            try:
                # No second normalization: the planning rules are a subset
                # of the default ones the normal form is already normal under.
                with record.phase("plan"):
                    logical = plan_group_by(calculus) or build_plan(
                        normalized, pre_normalize=False
                    )
                with record.phase("optimize"):
                    optimized = self._optimize(logical)
                with record.phase("jit"):
                    # a term has no text to memoise its plan's key by
                    shape = text_key and self._plan_key(optimized, (text_key, version, verifying))
                    precompile_plan(optimized, shape)
                # Only the variant in use is checked: the checked function
                # holds the plain one's expressions, so it fuses too.
                if fused(optimized, verifying) is not None:
                    plan = optimized
                    phases += ("plan", "optimize", "jit")
            except PlanError:
                pass  # the reference interpreter answers it
        deps = None
        if cache is not None and cache.config.results:
            catalog = self.catalog
            deps = analyze_dependencies(plan, normalized, catalog.extent_names(), catalog.functions)
        entry = CompiledQuery(
            oql=oql,
            engine=engine,
            typecheck=typecheck,
            calculus=calculus,
            normalized=normalized,
            trace=trace,
            plan=plan,
            phases=tuple(phases),
            params=params,
            version=version,
            verified=verifying,
            key=key,
            deps=deps,
        )
        if key is not None:
            cache.remember(text_key, key, entry, clean_at)
        return entry

    def prepare(
        self,
        oql: str,
        engine: Literal["auto", "interpret"] = "auto",
        typecheck: bool = False,
        param_types: Optional[dict[str, Any]] = None,
    ):
        """Compile once, execute many: a prepared statement.

        ``oql`` may name parameters as ``$name``; the returned
        :class:`~repro.cache.prepared.Prepared` binds them per call::

            q = db.prepare("select distinct c.name from c in Cities "
                           "where c.state = $state")
            q.run(state="OR")

        Works with or without a cache attached; with one, the compiled
        entry is shared with equivalent ad-hoc queries.
        """
        from repro.cache.prepared import Prepared

        return Prepared(
            self, oql, engine=engine, typecheck=typecheck, param_types=param_types
        )

    def _plan_key(self, plan: Reduce, compiled_as: tuple) -> Optional[CacheKey]:
        """``plan_key`` of ``plan``, made once per text, catalog version
        and verify setting (``compiled_as``): they fix the plan's shape."""
        key = self._plan_keys.get(compiled_as)
        if key is None:
            if len(self._plan_keys) >= CODE_CACHE_SIZE:
                self._plan_keys.clear()
            key = self._plan_keys[compiled_as] = plan_key(plan, compiled_as[2])
        return key

    # -- execute: the back half ---------------------------------------------------

    def _execute(
        self,
        entry: CompiledQuery,
        params: dict[str, Any],
        bypass: bool,
        record: QueryRecord,
    ) -> QueryResult:
        """Result-cache lookup → the entry's plan on the executor, or its
        normal form on the reference interpreter → result.

        The entry is only read: ``compile`` chose the engine and the
        result-cache verdict, ``deps``; an entry without one (a cache
        attached while it compiled) is not result-cached.
        """
        cache, deps = self.cache, entry.deps
        result_key = versions = executor = None
        hit = False
        if cache is not None and cache.config.results and deps is not None and deps.cacheable:
            if bypass:
                # EXPLAIN ANALYZE needs real per-operator actuals;
                # serving a stored value would report an empty plan.
                record.cache["result"] = "bypass"
            else:
                try:
                    result_key = (entry.key, tuple(sorted(params.items())) if params else ())
                    hash(result_key)
                except TypeError:  # an unhashable binding: nothing to key on
                    result_key = None
                else:
                    # The current catalog version (any registration or index
                    # build moves it), whether the plan was verified, and
                    # the heap's guard over what it reads.
                    guard = self.store.guard(deps.reads)
                    versions = (self.catalog.version, entry.verified, guard)
                    with record.phase("cache"):
                        hit, value = cache.result_for(result_key, versions)
                    record.cache["result"] = "hit" if hit else "miss"
        if hit:
            record.cached += ("execute",)
        else:
            evaluator = self.evaluator()
            for name, bound in params.items():
                evaluator.bind_global("$" + name, stored(bound))
            if entry.plan is None:
                with record.phase("execute"):
                    value = evaluator.evaluate(entry.normalized)
            else:
                executor = Executor(evaluator, self.catalog.index_mappings())
                with record.phase("execute"):
                    value = executor.execute(entry.plan)
            if result_key is not None:
                cache.remember_result(result_key, versions, value)
        return QueryResult(
            record.oql,
            entry.calculus,
            entry.normalized,
            entry.trace,
            entry.plan,
            value,
            "interpret" if entry.plan is None else "algebra",
            metrics=executor.metrics if executor is not None else None,
            cache=record.cache or None,
            compiled=entry,
            record=record,
        )

    # -- modes --------------------------------------------------------------------

    def _set_mode(self, name: str, value: Any) -> Any:
        """Attach one opt-in mode (``False`` detaches it). Anything that
        resolves to "off" otherwise (``None`` with the flag unset) means
        the mode's defaults: the caller did ask to enable it."""
        resolved = _resolve_mode(name, value)
        if resolved is None and value is not False:
            resolved = _resolve_mode(name, True)
        setattr(self, name, resolved)
        return resolved

    def enable_cache(self, cache: Any = True) -> QueryCache:
        """Attach a fresh query cache (``True`` or a CacheConfig)."""
        return self._set_mode("cache", cache)

    def disable_cache(self) -> None:
        """Detach the cache; every query compiles afresh again."""
        self._set_mode("cache", False)

    def enable_telemetry(self, telemetry: Any = True):
        """Attach a metrics registry (``True`` = the shared process
        default, or an explicit :class:`MetricsRegistry` of your own).

        While attached, every :meth:`run`/:meth:`run_detailed` and
        prepared execution updates the registry's counters, latency
        histograms and hot-query table; export with
        :func:`repro.obs.telemetry.prometheus_text` or serve them with
        ``python -m repro metrics serve``.
        """
        return self._set_mode("telemetry", telemetry)

    def disable_telemetry(self) -> None:
        """Detach telemetry; queries are no longer recorded."""
        self._set_mode("telemetry", False)

    def enable_parallel(self, parallel: Any = None) -> None:
        """Accepted and ignored: every plan runs serially as one generated
        function. Kept for ``benchmarks/harness``'s ``parallel.*`` probe."""

    def disable_parallel(self) -> None:
        """Accepted and ignored, as :meth:`enable_parallel` is."""

    def run_calculus(self, term: Term) -> Any:
        """:meth:`run` of a calculus term, a §4.2 update program included."""
        return self.run(term)

    def profile(
        self,
        enabled: bool = True,
        slow_ms: Optional[float] = None,
        sink: Optional[Any] = None,
        path: Optional[str] = None,
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ) -> None:
        """Switch the session's query history, :attr:`query_log`.

        On starts a fresh history with these settings: every
        :meth:`run`/:meth:`run_detailed` then appends one JSON entry,
        failed runs included — streamed to ``sink`` (a ``str -> None``
        callable) when given, and/or appended to the file at ``path``
        with size-based rotation (``max_bytes`` per file, ``backups``
        old files kept; see :class:`~repro.obs.querylog.QueryLog`).
        ``slow_ms`` marks entries whose total time crossed the
        threshold. A ``path`` that cannot be written raises
        :class:`~repro.errors.ReproError` and leaves the log as it was.
        Off stops recording and leaves the entries readable.
        """
        if enabled:
            self.query_log.reset(sink, slow_ms, path, max_bytes, backups)
        self.query_log.enabled = enabled

    @property
    def tracer(self) -> QueryLog:
        """:attr:`query_log` under its old name, read-only: the
        benchmark harness's tracing-overhead probe switches
        ``db.tracer.enabled``."""
        return self.query_log

    def explain(self, oql: str | Term, analyze: bool = False) -> str:
        """:meth:`explain_data`'s document as text: the plan :meth:`run`
        would execute, with cardinality estimates.

        With ``analyze=True`` the query is *executed*, and every node is
        rendered with its estimated vs actual cardinality and q-error, the
        root with the execution's wall time — plus the pipeline's phase
        timings and a q-error summary.
        """
        return render_explain(self.explain_data(oql, analyze))

    def explain_data(self, oql: str | Term, analyze: bool = False) -> dict[str, Any]:
        """The EXPLAIN [ANALYZE] document as JSON-ready dicts.

        Shape (see ``docs/OBSERVABILITY.md``): ``oql``, ``engine``,
        ``analyzed``, a nested ``plan`` tree with per-node
        ``estimated_rows`` (and, when analyzed, ``actual_rows``,
        ``rows_in``, ``q_error``…), ``phases_ms`` and a ``summary``
        block with the estimates' mean/max q-error. With a result cache
        attached, ``result_cache`` holds the verdict: the fields a stored
        value is guarded by (``reads``, ``None`` for the whole heap) or
        why values are not stored (``off``). The plan is the
        one :meth:`compile` hands :meth:`run`, analyzed or not. Queries
        the algebra cannot plan, or whose plan gets no function, come
        back with ``plan: None`` and a ``note`` instead of raising —
        the reference interpreter answers them in :meth:`run` too.
        """
        doc: dict[str, Any] = {"oql": str(oql).strip(), "analyzed": analyze}
        if analyze:
            result = self._run(oql, "auto", False, False, None, None, {}, bypass=True)
            entry, metrics = result.compiled, result.metrics
            doc.update(result.record.as_dict())
            if "cache" in doc and self.cache is not None:
                doc["cache"]["stats"] = self.cache.stats.as_dict()
        else:
            entry, metrics = self.compile(oql), None
        plan, normalized, deps = entry.plan, entry.normalized, entry.deps
        if deps is not None:
            doc["result_cache"] = (
                {"reads": None if deps.reads is None else sorted(deps.reads)}
                if deps.cacheable
                else {"off": deps.reason}
            )
        doc["engine"] = "interpret" if plan is None else "algebra"
        if plan is None:
            doc["plan"] = None
            doc["note"] = _no_plan_note(normalized)
            return doc
        doc["plan"] = plan_to_dict(plan, self.catalog.extent_sizes(), metrics)
        if analyze:
            doc["summary"] = summarize(doc["plan"])
        return doc

    def _optimize(self, plan: Reduce) -> Reduce:
        return Optimizer(self.catalog.index_keys()).optimize(plan)


def _no_plan_note(normalized: Term) -> str:
    """Why EXPLAIN has no plan tree to show."""
    if not isinstance(normalized, Comprehension):
        return f"not a comprehension: {normalized}"
    return "query runs on the reference interpreter"


def _resolve_mode(name: str, value: Any) -> Any:
    """``Database(<name>=value)`` -> the mode's config object, or None
    for off, via the mode's own resolver (see :data:`_MODES`).

    The mode's package is imported only when something asks for the
    mode: an explicit value or a set ``REPRO_*`` flag. A default
    database therefore never pays for importing the telemetry package.
    """
    env, module, resolver = _MODES[name]
    if value is False or (value is None and not env_flag(env)):
        return None
    return getattr(import_module(module), resolver)(value)


def _rows_of(extent: str, rows: Any) -> Any:
    """An iterator over ``rows``, or a :class:`DatabaseError` naming
    ``extent`` when they are not iterable."""
    try:
        return iter(rows)
    except TypeError:
        raise DatabaseError(
            f"extent {extent!r} needs an iterable of rows, got {type(rows).__name__}"
        ) from None


def _to_record(row: Any) -> Any:
    """Deep-convert a dict row into an immutable Record value, each set
    in it a :class:`~repro.values.compare.StoredSet`."""
    if isinstance(row, Record):
        return stored(row)
    if isinstance(row, dict):
        return Record({k: _to_record(v) for k, v in row.items()})
    if isinstance(row, list):
        return tuple(_to_record(v) for v in row)
    if isinstance(row, set):
        return StoredSet(_to_record(v) for v in row)
    return stored(row) if isinstance(row, (frozenset, tuple, Bag)) else row


def demo_travel_database(
    num_cities: int = 8,
    hotels_per_city: int = 4,
    rooms_per_hotel: int = 6,
    seed: int = 0,
) -> Database:
    """A ready-to-query travel-agency database (the paper's examples)."""
    db = Database(travel_schema())
    db.load_extents(
        make_travel_agency(num_cities, hotels_per_city, rooms_per_hotel, seed)
    )
    return db


def demo_database(name: str = "travel") -> Database:
    """The demo database a command line names: ``"company"`` is
    :func:`demo_company_database`, anything else
    :func:`demo_travel_database`."""
    if name == "company":
        return demo_company_database()
    return demo_travel_database()


def demo_company_database(
    num_departments: int = 10,
    num_employees: int = 100,
    seed: int = 0,
) -> Database:
    """A ready-to-query company database (join benchmarks)."""
    db = Database(company_schema())
    db.load_extents(make_company(num_departments, num_employees, seed))
    return db
