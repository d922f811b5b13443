"""Prepared statements: compile once, bind ``$params`` per execution.

``db.prepare("select distinct c.name from c in Cities where c.state =
$state")`` parses, translates, (optionally) type-checks and plans the
query a single time and returns a :class:`Prepared` handle. Each
``run(state="OR")`` call binds the named parameters into a fresh
evaluator environment and executes the stored plan — no recompilation,
no string formatting, and (unlike interpolating literals) every
execution shares one compilation-cache entry, which is exactly what
lint ``QL401`` nudges literal-variant query families toward.

Parameters are ordinary free variables spelled ``$name`` in OQL; the
translator maps them to calculus variables named ``$name``, a spelling
no user identifier can collide with (``$`` is not an identifier
character). Type checking, when requested, treats every parameter as
``ANY`` unless ``param_types`` narrows it.

A ``Prepared`` is valid across catalog changes: it re-checks the
database's compile version on every run and transparently recompiles
when extents were reloaded or indexes added — the handle never serves
a stale plan. It works with or without a :class:`~repro.cache.core.
QueryCache` on the database; with one, its entry lives in (and counts
toward) the shared compilation cache, and parameterized executions
participate in the result cache keyed by their bindings.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.verifier import verification_enabled
from repro.cache.core import CompiledQuery
from repro.errors import DatabaseError
from repro.obs.tracer import QueryRecord


class Prepared:
    """A compiled, parameterized query bound to one database.

    >>> from repro.db.database import demo_travel_database
    >>> db = demo_travel_database(num_cities=3, seed=1)
    >>> q = db.prepare(
    ...     "select distinct c.name from c in Cities where c.population > $min")
    >>> q.params
    ('min',)
    >>> isinstance(q.run(min=0), frozenset)
    True
    """

    def __init__(
        self,
        db: Any,
        oql: str,
        engine: str = "auto",
        typecheck: bool = False,
        param_types: Optional[dict[str, Any]] = None,
    ) -> None:
        self._db = db
        self.oql = oql
        self.engine = engine
        self.typecheck = typecheck
        self.param_types = dict(param_types or {})
        self._entry: Optional[CompiledQuery] = None
        self._ensure()  # compile eagerly so errors surface at prepare time

    @property
    def params(self) -> tuple[str, ...]:
        """The ``$`` parameter names this statement expects, sorted."""
        return self._ensure().params

    def _ensure(self, record: Optional[QueryRecord] = None) -> CompiledQuery:
        """The current entry: the shared cache's when the database has
        one, else the pinned one — recompiled (timed into ``record``) if
        the catalog moved on, or if verification is now on and the pin
        was built without it."""
        db = self._db
        entry = self._entry
        if (
            db.cache is not None
            or entry is None
            or entry.version != db._compile_version()
            or (verification_enabled() and not entry.verified)
        ):
            entry = self._entry = db.compile(
                self.oql, self.engine, self.typecheck, self.param_types, record=record
            )
        return entry

    def _validate(self, bindings: dict[str, Any]) -> None:
        declared = set(self._entry.params if self._entry else ())
        missing = declared - set(bindings)
        extra = set(bindings) - declared
        problems = []
        if missing:
            problems.append(f"missing parameters: {', '.join(sorted(missing))}")
        if extra:
            problems.append(f"unexpected parameters: {', '.join(sorted(extra))}")
        if problems:
            raise DatabaseError(
                f"prepared statement expects ({', '.join(sorted(declared)) or 'none'}): "
                + "; ".join(problems)
            )

    def run_detailed(self, metrics: bool = False, **params: Any):
        """Execute with the given bindings; full :class:`QueryResult`."""
        return self._db._run(
            self.oql, self.engine, self.typecheck, False, metrics, None, self, params
        )

    def run(self, **params: Any) -> Any:
        """Execute with the given bindings; just the value."""
        return self.run_detailed(**params).value

    __call__ = run

    def __repr__(self) -> str:
        names = ", ".join(f"${p}" for p in self.params)
        return f"<Prepared [{names or 'no params'}] {self.oql.strip()!r}>"
