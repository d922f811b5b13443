"""The jit phase: a ``Reduce`` plan as one generated Python function.

:func:`precompile_plan` (the pipeline's ``jit`` phase) gives a plan its
function (:func:`fused`) and reports, per operator-position expression,
whether it compiled whole or some subterm fell back to the interpreter.
Function and report are kept on the plan root — in the frozen
dataclass's instance ``__dict__``: derived data, not part of the node's
value — so they ride the compile cache; nothing else is stored on a plan.
There is one template per operator (:data:`_TEMPLATES`), composed
produce/consume style: a template emits its loop and calls
``consume(scope)`` where a row exists, ``scope`` mapping every plan
variable in reach to the Python local that holds it — a row is never a
dict. Expressions are :class:`~repro.jit.compiler.Emitter` source, and
the checks are the reference interpreter's: ``Runtime.iterate`` once per
source but a tuple or a memoised set, the Select test, ``_folder``'s steps,
per-node counts stored into the execution's blocks at the end. A Scan's
sub-plan (``Scan.sub``) is folded inline, to completion, before its loop.

**The code cache**, one process-wide LRU keyed by :func:`plan_key`, holds
the functions: one reads the world only through its arguments, so it
serves every plan of its key, in any database and thread. A plan gets its
code on its first run, from the cache when its shape was emitted before.
One lock, held while a function is emitted: racing queries of one shape
emit it once.
"""

from __future__ import annotations

import itertools
import linecache
import threading
from collections import Counter
from typing import Any, Callable, Optional

from repro.algebra.ops import IndexScan, Join, Nest, PlanNode, Reduce, Scan, SelectOp, Unnest
from repro.analysis.verifier import verification_enabled
from repro.cache.core import LRU
from repro.cache.keys import CacheKey, typed_literal
from repro.calculus.ast import Empty
from repro.calculus.traversal import relabel
from repro.errors import PlanError
from repro.jit.compiler import RUNTIME, TOO_DEEP, Emitter
from repro.monoids.base import fold_error
from repro.values import canonical_key
from repro.values.compare import StoredSet

#: A plan's generated function (None: it cannot be fused) and its report.
Code = tuple[Optional[Callable[..., Any]], dict[str, Any]]


def precompile_plan(plan: Reduce, key: Optional[CacheKey] = None) -> dict[str, Any]:
    """The jit phase: give ``plan`` its function; what the emission
    compiled (``compiled``/``fallback`` counts, the fallback ``constructs``
    QL501 names). ``key``: the plan's :func:`plan_key`, if the caller has it."""
    checked = verification_enabled()
    if checked not in plan.__dict__.get("jit_fused", ()):
        _attach(plan, checked, key)
    return jit_report(plan)


def jit_report(plan: Reduce) -> Optional[dict[str, Any]]:
    """A copy of what the jit phase compiled for ``plan`` (None: it was
    never compiled)."""
    report = plan.__dict__.get("jit_report")
    return report and {**report, "constructs": dict(report["constructs"])}


def fused(plan: Reduce, checked: bool = False) -> Optional[Callable[..., Any]]:
    """``plan``'s generated function (every operator-position expression
    inside verify mode's differential when ``checked``), kept on the plan
    root. None: the plan cannot be fused."""
    if checked not in plan.__dict__.get("jit_fused", ()):
        _attach(plan, checked)
    return plan.__dict__["jit_fused"][checked]


def pipeline_source(plan: Reduce, checked: bool = False) -> str:
    """The source of ``plan``'s generated function as registered with
    :mod:`linecache`; empty for a plan the emitter refuses."""
    fn = fused(plan, checked)
    return "" if fn is None else "".join(linecache.getlines(fn.__code__.co_filename))


def _attach(plan: Reduce, checked: bool, key: Optional[CacheKey] = None) -> None:
    """Keep ``plan``'s code on its root."""
    fn, report = _code_for(plan, checked, key)
    plan.__dict__.setdefault("jit_fused", {})[checked] = fn
    plan.__dict__["jit_report"] = report


# ---------------------------------------------------------------------------
# The code cache
# ---------------------------------------------------------------------------

#: How many plan keys the code cache holds.
CODE_CACHE_SIZE = 512

#: plan key -> its :data:`Code`, least recently used first
_CODE = LRU(CODE_CACHE_SIZE)
_LOCK = threading.Lock()


def plan_key(plan: Reduce, checked: bool) -> Optional[CacheKey]:
    """``plan`` up to the names of its variables (``canonical_term`` for
    plans): plan variables renumbered in binding order, then each term's
    binders; literals typed. A name an expression cannot see (a Scan
    source, an IndexScan key) stays a global; the Reduce's monoid, an
    argument of the function, is left out. None when a constant does not
    hash."""
    nodes = plan.preorder()
    counter = itertools.count()
    fresh = lambda _old: f"~{next(counter)}"  # noqa: E731
    names: dict[str, str] = {}
    for name in (name for node in nodes for name in node.binds()):
        names[name] = names.get(name) or fresh(name)

    def canonical(term: Any, env: dict[str, str]) -> Any:
        if type(term) is tuple:
            return tuple([canonical(t, env) for t in term])
        return None if term is None else relabel(term, fresh, typed_literal, env)

    parts: list[Any] = [checked]
    for node in nodes:
        parts += (type(node), tuple([names[name] for name in node.binds()]))
        for expr in node.exprs:
            env = {} if expr.slot is None else {name: names[name] for name in expr.scope}
            parts.append(canonical(expr.terms, env))
        if type(node) is Nest:  # fold monoids: their terms as the kids of a zero
            parts.append(tuple([canonical(Empty(fold[1]), {}) for fold in node.folds]))
        elif type(node) is IndexScan:
            parts.append(node.attribute)
    try:
        return CacheKey(tuple(parts))
    except TypeError:
        return None


def _code_for(plan: Reduce, checked: bool, key: Optional[CacheKey] = None) -> Code:
    """``plan``'s code: the cached function of its shape, else emitted."""
    key = key or plan_key(plan, checked)
    if key is None:  # a constant that does not hash: emitted uncached
        return _fuse(plan, checked)
    with _LOCK:
        code = _CODE.get(key)
        if code is None:
            code = _fuse(plan, checked)
            for evicted in _CODE.put(key, code):
                _forget(evicted)
    return code


def _forget(code: Code) -> None:
    """An evicted function's source leaves :mod:`linecache` with it."""
    if code[0] is not None:
        linecache.cache.pop(code[0].__code__.co_filename, None)


def clear_code_cache() -> None:
    """Empty the code cache (plans keep the functions they hold)."""
    with _LOCK:
        for code in _CODE.values():
            _forget(code)
        _CODE.clear()


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
        #: id(node) -> its block's place in ``blocks``: ``plan.preorder()``'s
        self.position = {id(node): i for i, node in enumerate(plan.preorder())}
        #: counter local -> the OperatorMetrics field it is stored into
        self.counters: dict[str, str] = {}
        value = self.reduce(plan, "monoid")
        for counter, field in self.counters.items():
            self.emit(f"blocks[{counter[1:]}].{field} = {counter}")
        self.emit(f"return {value}")

    def source(self) -> str:
        body = "\n".join(self.lines)
        hoist = [f"    {name} = {path}" for name, path in RUNTIME.items() if name + "(" in body]
        zero = [f"    {' = '.join(self.counters)} = 0"]
        if self.emitter.params:
            zero.append(f"    {' = '.join(self.emitter.params.values())} = _UNSET")
        return "\n".join(["def pipeline(rt, indexes, blocks, monoid):", *hoist, *zero, body, ""])

    def reduce(self, node: Reduce, monoid: str, at: str = "") -> str:
        """Fold ``node``'s head over its input into ``monoid`` (the local
        naming it); the source of the folded value. ``at`` tells a
        sub-plan's locals from the root's."""
        step, state, add = f"_step{at}", f"_state{at}", f"_add{at}"
        self.emit(f"_start{at}, {step}, _finish{at} = _folder({monoid})")
        self.emit(f"{state} = _start{at}()")
        self.emit(f"{add} = {state}.add if {step} is _accumulate else None")
        self.produce(
            node.child,
            lambda scope: self.fold(step, state, add, monoid, self.expr(node, "head_fn", scope)),
        )
        return f"_finish{at}({state})"

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

    def fold(self, step: str, state: str, add: str, monoid: str, head: str) -> None:
        """One ``_folder`` step: a plain collection's written inline as its
        accumulator's own ``add``, any other's ``TypeError`` a ``fold_error``."""
        self.emit(f"_h = {head}")
        self.emit(f"if {step} is _accumulate: {add}(_h)")
        self.emit("else:")
        self.emit(f"    try: {state} = {step}({state}, _h)")
        self.emit(f"    except TypeError as _x: raise _fold_error({monoid}, {state}, _h, _x) from None")

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
    """``for`` over one Scan/Unnest source, binding the element (and its
    position), its rows counted once. A tuple is walked as itself, a set as
    its memoised order if the table's entry is this set's; any other source
    goes to ``Runtime.iterate``, which makes the per-source checks."""
    own = p.bind(node)
    p.emit(f"_src = {source}")
    if node.index_var is not None:  # (position, element) pairs
        p.emit("_src = _iterate(_src, True)")
    else:
        p.emit("if type(_src) is not tuple:")
        p.emit("    _src = type(_src) is _StoredSet and _src.order or _iterate(_src, False)")
    p.emit(f"{p.counter('n', node, 'rows_out')} += len(_src)")
    scope = {**outer, **dict(zip(node.binds(), own))}
    p.loop(f"for {', '.join(reversed(own))} in _src:", lambda: consume(scope))


def _scan(p: _Pipeline, node: Scan, consume: Consume) -> None:
    """A Scan's source is evaluated once, before its loop: by its sub-plan,
    run to completion there, or else by the interpreter."""
    if node.sub is None:
        source = f"_fallback({p.emitter.const(node.source)}, {{}})"
    else:  # a Scan's source is closed: no row is in reach
        at = p.position[id(node.sub)]
        source = monoid = f"_o{at}"
        p.emit(f"{monoid} = rt.ev.resolve_monoid({p.emitter.const(node.sub.monoid)}, rt.globals)")
        p.emit(f"{source} = {p.reduce(node.sub, monoid, str(at))}")
        p.emit(f"{p.counter('n', node.sub, 'rows_out')} = _cardinality({source})")
    _generator(p, node, source, {}, consume)


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
    for i, (names, fold) in enumerate(zip(folds, node.folds)):
        p.emit(f"_o{at}_{i} = rt.ev.resolve_monoid({p.emitter.const(fold[1])}, rt.globals)")
        p.emit(f"{', '.join(names)} = _folder(_o{at}_{i})")
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
            p.fold(step, state, f"{state}.add", f"_o{at}_{i}", p.expr(node, "head_fns", scope, i))
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


#: One template per operator class.
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


def _fuse(plan: Reduce, checked: bool) -> Code:
    """``plan`` as one function ``(rt, indexes, blocks, monoid) -> value``
    (``blocks``: the execution's :class:`~repro.obs.metrics.PlanMetrics`)
    and what its emission compiled; no function for an operator without a
    template or nesting Python won't compile."""
    # repro.algebra.physical imports this package
    from repro.algebra.physical import _accumulate, _folder, result_cardinality

    filename = f"<repro.jit pipeline {next(_serial)}>"
    try:
        pipeline = _Pipeline(plan, checked)
        source = pipeline.source()
        namespace = pipeline.emitter.names
        namespace.update(
            _folder=_folder,
            _accumulate=_accumulate,
            _fold_error=fold_error,
            _StoredSet=StoredSet,
            _canonical_key=canonical_key,
            _cardinality=result_cardinality,
            _PlanError=PlanError,
        )
        exec(compile(source, filename, "exec"), namespace)
    except (PlanError, *TOO_DEEP):
        return None, {"compiled": 0, "fallback": 0, "constructs": {}}
    report = {
        "compiled": pipeline.compiled,
        "fallback": pipeline.fallback,
        "constructs": dict(Counter(pipeline.emitter.fallbacks)),
    }
    # So that a traceback through generated code shows the line.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace.pop("pipeline"), report
