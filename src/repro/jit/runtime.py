"""The per-execution runtime compiled code runs against.

Compiled code — a plan's generated function — is stateless: it names
only immutable compile-time data (constants, field names, fallback
terms), which is what makes it safe to keep on a shared plan root, reuse
across executions from the compiled-query cache, and call from
concurrent queries. All per-execution state — the evaluator, the object
store, the global environment snapshot — lives in the :class:`Runtime`
it is handed instead.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.errors import EvaluationError, VerificationError
from repro.eval.builtins import runtime_monoid_of
from repro.eval.env import Env
from repro.eval.evaluator import INDEXED_SOURCE_ERROR
from repro.monoids import VectorMonoid
from repro.objects.store import Obj
from repro.values import Bag, OrderedSet, Record, canonical_order
from repro.values.compare import _SET_ORDERS


def _agree(value: Any, expected: Any) -> bool:
    """One type and equal — two NaNs too, which ``==`` never says, alone
    or in the records and tuples compiled code builds."""
    if type(value) is not type(expected):
        return False
    if value == expected:
        return True
    if type(value) is float:
        return value != value and expected != expected
    if type(value) is Record:
        return value.keys() == expected.keys() and all(
            _agree(value[name], expected[name]) for name in value
        )
    if type(value) is tuple:
        return len(value) == len(expected) and all(map(_agree, value, expected))
    return False


class Runtime:
    """Execution context handed to all compiled code.

    ``globals`` snapshots the evaluator's global environment at
    construction time; the executor builds its runtime after prepared-
    statement parameters are bound, so ``$name`` globals resolve. The
    ``callable_for`` memo is idempotent (a name always resolves to the
    same object for one runtime), so racing writers under the GIL are
    harmless.
    """

    __slots__ = ("ev", "store", "globals", "_callables")

    def __init__(self, evaluator: Any) -> None:
        self.ev = evaluator
        self.store = evaluator.store
        self.globals: Env = evaluator.global_env
        self._callables: dict[str, Any] = {}

    def eval_fallback(self, term: Any, binding: dict[str, Any]) -> Any:
        """Interpret ``term`` with ``binding`` layered over the globals.

        The semantics-preserving escape hatch for constructs the
        compiler does not cover. Uses the no-copy :meth:`Env.wrapping`
        fast path: the executor's binding dicts are fresh per row, so
        aliasing them is safe.
        """
        env = self.globals
        if binding:
            env = Env.wrapping(binding, env)
        return self.ev.evaluate(term, env)

    def check(self, value: Any, term: Any, binding: dict[str, Any]) -> Any:
        """``value`` — what compiled code made of ``term`` under ``binding``
        — once the interpreter has made the same (verify mode's differential)."""
        expected = self.eval_fallback(term, binding)
        if not _agree(value, expected):
            raise VerificationError(
                "jit-compile",
                term,
                violations=[f"compiled {value!r} != interpreted {expected!r}"],
            )
        return value

    def iterate(self, source: Any, indexed: bool) -> tuple:
        """What a Scan or Unnest binds over ``source``, checked once per
        source: a tuple of its elements in the collection's own order, or of
        ``(position, element)`` pairs for the indexed generator form. The
        exact carriers are answered by type, with the tuple their monoid's
        ``iterate`` would wrap, a memo read without ``canonical_order``'s
        frame; anything else takes the path below."""
        if isinstance(source, Obj):
            source = self.store.deref(source)
        if not indexed:
            kind = type(source)
            if kind is tuple:
                return source
            if kind is frozenset:
                entry = _SET_ORDERS.get(id(source))
                if entry is not None and entry() is source:
                    return entry.order
                return canonical_order(source)
            if kind is Bag:
                return source._order or canonical_order(source)
        monoid = runtime_monoid_of(source)
        if isinstance(monoid, VectorMonoid):
            pairs = monoid.iterate(source)
            return tuple(pairs if indexed else map(itemgetter(1), pairs))
        if not indexed:
            return tuple(monoid.iterate(source))
        if isinstance(source, (tuple, list, str, OrderedSet)):
            return tuple(enumerate(monoid.iterate(source)))
        raise EvaluationError(INDEXED_SOURCE_ERROR.format(type(source).__name__))

    def callable_for(self, name: str) -> Any:
        """Resolve a ``Call`` target with the interpreter's precedence
        (globals shadow registered functions/builtins), memoized."""
        try:
            return self._callables[name]
        except KeyError:
            pass
        if self.globals.has(name):
            fn = self.globals.lookup(name)
        elif name in self.ev.functions:
            fn = self.ev.functions[name]
        else:
            raise EvaluationError(f"unknown function {name!r}")
        self._callables[name] = fn
        return fn

