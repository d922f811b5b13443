"""The jit phase: a ``Reduce`` plan as one generated Python function.

:func:`precompile_plan` (the pipeline's ``jit`` phase) emits the function
(:func:`fused`) and reports, per operator-position expression, whether it
compiled whole or some subterm fell back to the interpreter. Function and
report are kept on the plan root — in the frozen dataclass's instance
``__dict__``: derived data, not part of the node's value — so they ride
the compile cache; nothing else is stored on a plan. There is one template
per operator (:data:`_TEMPLATES`), composed produce/consume style: a
template emits its loop and calls ``consume(scope)`` where a row exists,
``scope`` mapping every plan variable in reach to the Python local that
holds it — a row is never a dict. Expressions are
:class:`~repro.jit.compiler.Emitter` source, and the checks are the
operator loops' own: ``Runtime.iterate`` once per source, the Select
test, ``_folder``'s steps, per-node counts stored into the execution's
blocks at the end. An execution the executor does not fuse — a timed one,
a :class:`~repro.parallel.ParallelExecutor`'s, a plan Python will not
compile — runs the operator loops over interpreter thunks, as with the
jit off.

Concurrency: emission is idempotent and every write is a single
GIL-atomic store, so racing executors (concurrent queries on one cached
plan) at worst emit twice. Generated code keeps its state in locals.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from collections import Counter
from typing import Any, Callable, Optional

from repro.algebra.ops import IndexScan, Join, Nest, PlanNode, Reduce, Scan, SelectOp, Unnest
from repro.errors import PlanError
from repro.jit.compiler import RUNTIME, TOO_DEEP, Emitter
from repro.values import canonical_key

#: What a plan without a generated function reports: nothing compiled.
_UNFUSED = {"compiled": 0, "fallback": 0, "constructs": {}}


def precompile_plan(plan: PlanNode) -> dict[str, Any]:
    """Emit ``plan``'s function; returns what the emission compiled
    (``compiled``/``fallback`` expression counts and the fallback
    ``constructs`` histogram — what ``QL501`` names) for telemetry and
    ``QueryResult.jit``. Done once per plan: every later call (each
    execution asks) reads the report kept on the root."""
    report = plan.__dict__.get("jit_report")
    if report is None:
        if isinstance(plan, Reduce):
            fused(plan)
        report = plan.__dict__.setdefault("jit_report", _UNFUSED)
    return {**report, "constructs": dict(report["constructs"])}


# ---------------------------------------------------------------------------
# The generated function
# ---------------------------------------------------------------------------

#: CPython compiles at most this many statically nested loops.
MAX_LOOPS = 20

Scope = dict[str, str]
Consume = Callable[[Scope], None]


class _Pipeline:
    """The source of one ``Reduce`` plan's function, emitted line by line."""

    def __init__(self, plan: Reduce, checked: bool) -> None:
        self.emitter = Emitter()
        self.checked = checked
        #: operator-position expressions emitted whole / with a subterm
        #: left to the interpreter
        self.compiled = self.fallback = 0
        self.lines: list[str] = []
        self.depth = 1
        #: id(node) -> its place in ``blocks`` (``plan.child.walk()`` order)
        self.position = {id(node): i for i, node in enumerate(plan.child.walk())}
        #: counter local -> the OperatorMetrics field it is stored into
        self.counters: dict[str, str] = {}
        self.emit("_start, _step, _finish = _folder(monoid)")
        self.emit("_state = _start()")
        self.emit("_add = _state.add if _step is _accumulate else None")
        self.produce(
            plan.child,
            lambda scope: self.fold("_step", "_state", "_add", self.expr(plan, "head_fn", scope)),
        )
        for counter, field in self.counters.items():
            self.emit(f"blocks[{counter[1:]}].{field} = {counter}")
        self.emit("return _finish(_state)")

    def source(self) -> str:
        body = "\n".join(self.lines)
        hoist = [f"    {name} = {path}" for name, path in RUNTIME.items() if name + "(" in body]
        zero = f"    {' = '.join(self.counters)} = 0"
        return "\n".join(["def pipeline(rt, indexes, blocks, monoid):", *hoist, zero, body, ""])

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def loop(self, header: str, body: Callable[[], None]) -> None:
        if self.depth > MAX_LOOPS:
            raise PlanError(f"more than {MAX_LOOPS} nested loops")
        self.emit(header)
        self.depth += 1
        body()
        self.depth -= 1

    def counter(self, kind: str, node: PlanNode, field: str) -> str:
        name = f"{kind}{self.position[id(node)]}"
        self.counters[name] = field
        return name

    def bind(self, node: PlanNode) -> list[str]:  # a fresh local per variable
        return [self.emitter.fresh("v") for _ in node.binds()]

    def expr(self, node: PlanNode, slot: str, scope: Scope, at: Optional[int] = None) -> str:
        """The source of the term ``node`` keeps in ``slot`` (the ``at``-th
        of a tuple of them), read over ``scope``."""
        term = node.expr(slot).terms
        emit = self.emitter.checked if self.checked else self.emitter.expr
        left = len(self.emitter.fallbacks)
        source = emit(term if at is None else term[at], scope)
        if len(self.emitter.fallbacks) > left:
            self.fallback += 1
        else:
            self.compiled += 1
        return source

    def key(self, node: PlanNode, slot: str, scope: Scope) -> str:
        """A hash key: the one key term's value, or the tuple of them."""
        parts = [self.expr(node, slot, scope, i) for i in range(len(node.expr(slot).terms))]
        return parts[0] if len(parts) == 1 else f"({', '.join(parts)})"

    def test(self, source: str) -> None:
        """The Select test: only True keeps the row, only False drops it."""
        self.emit(f"_p = {source}")
        self.emit("if _p is not True:")
        self.emit("    if _p is not False: _require_bool(_p, 'qualifier predicate')")
        self.emit("    continue")

    def fold(self, step: str, state: str, add: str, head: str) -> None:
        """One ``_folder`` step, a plain collection's written inline."""
        self.emit(f"_h = {head}")
        self.emit(f"if {step} is _accumulate: {add}(_h)")
        self.emit(f"else: {state} = {step}({state}, _h)")

    def produce(self, node: PlanNode, consume: Consume) -> None:
        template = _TEMPLATES.get(type(node))
        if template is None:
            raise PlanError(f"unknown plan node {type(node).__name__}")
        template(self, node, consume)


def _row(names: Any) -> str:
    """Locals as one stored value / one loop target."""
    names = list(names)
    return names[0] if len(names) == 1 else f"({', '.join(names)})"


def _generator(p: _Pipeline, node: Any, source: str, outer: Scope, consume: Consume) -> None:
    """``for`` over one Scan/Unnest source — ``Runtime.iterate`` makes the
    per-source checks — binding the element (and its position)."""
    own = p.bind(node)
    rows = p.counter("n", node, "rows_out")

    def body() -> None:
        p.emit(f"{rows} += 1")
        consume({**outer, **dict(zip(node.binds(), own))})

    indexed = node.index_var is not None  # then (position, element) pairs
    p.loop(f"for {', '.join(reversed(own))} in _iterate({source}, {indexed}):", body)


def _scan(p: _Pipeline, node: Scan, consume: Consume) -> None:
    _generator(p, node, f"_fallback({p.emitter.const(node.source)}, {{}})", {}, consume)


def _unnest(p: _Pipeline, node: Unnest, consume: Consume) -> None:
    p.produce(
        node.child,
        lambda scope: _generator(p, node, p.expr(node, "src_fn", scope), scope, consume),
    )


def _index_scan(p: _Pipeline, node: IndexScan, consume: Consume) -> None:
    missing = f"no index on {node.extent}.{node.attribute} for IndexScan"
    p.emit(f"_found = indexes.get(({node.extent!r}, {node.attribute!r}))")
    p.emit(f"if _found is None: raise _PlanError({missing!r})")
    p.emit(f"_found = _found.get(_fallback({p.emitter.const(node.key)}, {{}}), ())")
    p.emit(f"{p.counter('p', node, 'index_probes')} += 1")
    p.emit(f"{p.counter('n', node, 'rows_out')} += len(_found)")
    (local,) = p.bind(node)
    p.loop(f"for {local} in _found:", lambda: consume({node.var: local}))


def _select(p: _Pipeline, node: SelectOp, consume: Consume) -> None:
    def keep(scope: Scope) -> None:
        p.test(p.expr(node, "pred_fn", scope))
        p.emit(f"{p.counter('n', node, 'rows_out')} += 1")
        consume(scope)

    p.produce(node.child, keep)


def _join(p: _Pipeline, node: Join, consume: Consume) -> None:
    """Build (hash) or materialise (loop) the right input where the Join is
    opened — before the left input's first row — then probe per left row."""
    held = f"_j{p.position[id(node)]}"
    right: Scope = {}

    def build(scope: Scope) -> None:
        right.update(scope)
        row = _row(scope.values())
        if not node.left_keys:
            p.emit(f"{held}.append({row})")
            return
        p.emit(f"_key = {p.key(node, 'right_key_fns', scope)}")
        p.emit(f"_bucket = {held}.get(_key)")
        p.emit(f"if _bucket is None: {held}[_key] = [{row}]")
        p.emit(f"else: _bucket.append({row})")
        p.emit(f"{p.counter('h', node, 'hash_builds')} += 1")

    def probe(scope: Scope) -> None:
        merged = {**scope, **right}

        def match() -> None:
            if node.residual is not None:
                p.test(p.expr(node, "residual_fn", merged))
            p.emit(f"{p.counter('n', node, 'rows_out')} += 1")
            consume(merged)

        found = held
        if node.left_keys:
            found = f"{held}.get({p.key(node, 'left_key_fns', scope)}, ())"
        p.loop(f"for {_row(right.values())} in {found}:", match)

    p.emit(f"{held} = {'{}' if node.left_keys else '[]'}")
    p.produce(node.right, build)
    p.produce(node.left, probe)


def _nest(p: _Pipeline, node: Nest, consume: Consume) -> None:
    """Keyed ``_folder`` states as rows arrive, then one row per group in
    canonical key order."""
    at = p.position[id(node)]
    groups = f"_g{at}"
    folds = [(f"_s{at}_{i}", f"_m{at}_{i}", f"_f{at}_{i}") for i in range(len(node.folds))]
    for names, fold in zip(folds, node.folds):
        monoid = f"rt.ev.resolve_monoid({p.emitter.const(fold[1])}, rt.globals)"
        p.emit(f"{', '.join(names)} = _folder({monoid})")
    p.emit(f"{groups} = {{}}")

    def group(scope: Scope) -> None:
        keys = [p.expr(node, "key_fns", scope, i) for i in range(len(node.keys))]
        p.emit(f"_key = ({''.join(key + ', ' for key in keys)})")
        p.emit(f"_group = {groups}.get(_key)")
        starts = ", ".join(f"{start}()" for start, _, _ in folds)
        p.emit(f"if _group is None: _group = {groups}[_key] = [{starts}]")
        for i, (_, step, _) in enumerate(folds):
            state = f"_group[{i}]"
            guarded = node.folds[i][3] is not None
            if guarded:
                p.emit(f"_p = {p.expr(node, 'pred_fns', scope, i)}")
                p.emit("if _p is True:")
            p.depth += guarded
            p.fold(step, state, f"{state}.add", p.expr(node, "head_fns", scope, i))
            p.depth -= guarded
            if guarded:
                p.emit("elif _p is not False: _require_bool(_p, 'qualifier predicate')")

    p.produce(node.child, group)
    finished = ", ".join(f"{finish}(_group[{i}])" for i, (_, _, finish) in enumerate(folds))
    p.emit(f"for _group in {groups}.values(): _group[:] = [{finished}]")
    p.emit(f"{p.counter('n', node, 'rows_out')} = len({groups})")
    own = p.bind(node)  # one per label and fold, though a name may repeat

    def emit_group() -> None:
        p.emit(f"[{', '.join(own)}] = [*_key, *{groups}[_key]]")
        consume(dict(zip(node.binds(), own)))

    p.loop(f"for _key in sorted({groups}, key=_canonical_key):", emit_group)


#: One template per operator class — the generated-code twin of the
#: executor's one loop per operator.
_TEMPLATES: dict[type, Callable[[_Pipeline, Any, Consume], None]] = {
    Scan: _scan,
    IndexScan: _index_scan,
    SelectOp: _select,
    Join: _join,
    Unnest: _unnest,
    Nest: _nest,
}

#: numbers the pseudo-filenames generated sources are registered under
_serial = itertools.count(1)


def _fuse(plan: Reduce, checked: bool) -> Optional[Callable[..., Any]]:
    """``plan`` as one function ``(rt, indexes, blocks, monoid) -> value``
    (``blocks``: the execution's metrics blocks of ``plan.child.walk()``);
    None for an operator without a template or nesting Python won't compile.
    What the emission compiled goes on the plan root as ``jit_report``."""
    from repro.algebra.physical import _accumulate, _folder  # imports this package

    filename = f"<repro.jit pipeline {next(_serial)}>"
    try:
        pipeline = _Pipeline(plan, checked)
        source = pipeline.source()
        namespace = pipeline.emitter.names
        namespace.update(
            _folder=_folder,
            _accumulate=_accumulate,
            _canonical_key=canonical_key,
            _PlanError=PlanError,
        )
        exec(compile(source, filename, "exec"), namespace)
    except (PlanError, *TOO_DEEP):
        return None
    fn = namespace.pop("pipeline")
    plan.__dict__["jit_report"] = {
        "compiled": pipeline.compiled,
        "fallback": pipeline.fallback,
        "constructs": dict(Counter(pipeline.emitter.fallbacks)),
    }
    # So that a traceback through generated code shows the line.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn


def fused(plan: Reduce, checked: bool = False) -> Optional[Callable[..., Any]]:
    """``plan``'s generated function — with every operator-position
    expression inside verify mode's differential when ``checked`` —
    compiled when first asked for (the jit phase asks) and kept on the
    plan root. None: the plan cannot be fused."""
    slots = plan.__dict__.setdefault("jit_fused", {})
    if checked not in slots:
        slots[checked] = _fuse(plan, checked)
    return slots[checked]


def pipeline_source(plan: Reduce, checked: bool = False) -> str:
    """The source of ``plan``'s generated function as registered with
    :mod:`linecache`; empty for a plan that runs on the operator loops."""
    fn = fused(plan, checked)
    return "" if fn is None else "".join(linecache.getlines(fn.__code__.co_filename))
