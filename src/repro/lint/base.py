"""Shared infrastructure for lint passes.

A :class:`LintContext` carries everything a pass may consult. What the
linter knows for every query — the schema and the catalog, which holds
the names that are legitimately free in one (extents, views) and types
them — is shared and never written by a lint; what
belongs to one query — the single collecting type inference of its
term and its normal form — lives on a context built per ``lint_term``
call, so concurrent lints never see each other's facts. Passes are
stateless callables from ``(term, context)`` to a list of diagnostics,
so the linter can run them independently and merge the results."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.cache.keys import param_names
from repro.calculus.ast import Term
from repro.db.catalog import Catalog
from repro.errors import ReproError
from repro.types.infer import TypeChecker
from repro.types.types import Type


@dataclass
class LintContext:
    """Everything the passes may look at besides the term itself."""

    #: The namespace (and schema) the term's names resolve in.
    catalog: Catalog
    #: The term this context was built for.
    term: Term
    #: The term's normal form, computed when first asked for (QL203).
    normal_form: Callable[[], Term]

    @cached_property
    def names(self) -> frozenset[str]:
        """Names a query may use free: extents and views (a function is called)."""
        return frozenset(self.catalog.types()).union(self.catalog.views)

    @cached_property
    def inference(self) -> tuple[list[tuple[ReproError, Term]], dict[int, Type]]:
        """The one collecting type inference of :attr:`term`, typed as
        compile types it: every static error with the node it was
        reported at, in order (the first is the one a fail-fast check
        raises), and the type given to each generator's source (by ``id``
        of the ``Generator``). Run on first use, so a pass still works alone."""
        errors: list[tuple[ReproError, Term]] = []
        checker = TypeChecker(
            self.catalog.registry.schema, on_error=lambda err, node: errors.append((err, node))
        )
        checker.infer(self.term, self.catalog.typing_env(param_names(self.term)))
        return errors, checker.source_types


def is_fresh_name(name: str) -> bool:
    """True for translator-invented variables (``w~3``), which the
    scope lints skip — the user never wrote them."""
    return "~" in name
