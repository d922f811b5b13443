"""The per-execution runtime compiled closures run against.

A compiled expression is a plain Python function ``fn(binding, rt)``
where ``binding`` is the executor's binding dict for one row and
``rt`` is a :class:`Runtime`. The closures themselves are stateless
(they capture only immutable compile-time data: constants, field
names, child closures), which is what makes them safe to store on
shared plan nodes, reuse across executions from the compiled-query
cache, and call concurrently from :mod:`repro.parallel` workers. All
per-execution state — the evaluator, the object store, the global
environment snapshot — lives here instead.
"""

from __future__ import annotations

from typing import Any

from repro.errors import EvaluationError
from repro.eval.env import Env


class Runtime:
    """Execution context handed to every compiled closure.

    ``globals`` snapshots the evaluator's global environment at
    construction time; the executor builds its runtime after prepared-
    statement parameters are bound, so ``$name`` globals resolve. The
    ``callable_for`` memo is idempotent (a name always resolves to the
    same object for one runtime), so racing writers under the GIL are
    harmless and one runtime may serve several worker threads.
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
