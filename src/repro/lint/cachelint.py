"""Batch pass — QL401: literal-only query variants.

The compiled-query cache (:mod:`repro.cache`) keys entries by the
alpha-renamed calculus term, so two queries that differ **only in their
literals** — ``... where c.name = 'Portland'`` vs ``... where c.name =
'Salem'`` — each compile separately and each occupy a cache entry,
even though one prepared statement (``... where c.name = $city`` via
:meth:`Database.prepare <repro.db.database.Database.prepare>`) would
compile once and bind per execution.

Detecting this needs *several* queries to compare, so unlike the
``QL0xx``–``QL3xx`` passes this one runs over a whole file's queries at
once — it is wired into ``python -m repro lint`` (:mod:`repro.lint.cli`)
rather than into :data:`~repro.lint.linter.DEFAULT_PASSES`. Queries are
grouped by their literal *skeleton* (the canonical term with every
constant replaced by a hole); a group with at least two members, at
least two distinct literal vectors and at least one literal gets one
info diagnostic per member.
"""

from __future__ import annotations

from typing import Iterable

from repro.cache.keys import literal_skeleton, literal_vector
from repro.calculus.ast import Term
from repro.lint.diagnostics import Diagnostic, make
from repro.span import span_of

name = "cachelint"

_HINT = (
    "parameterize the differing literals with $name and compile once "
    "via db.prepare(...), binding values per execution"
)


def find_literal_variants(
    queries: Iterable[tuple[int, int, Term]],
) -> list[Diagnostic]:
    """QL401 findings for one file's queries, spans in file coordinates.

    ``queries`` are ``(line0, col0, term)`` triples: where each query's
    text starts in the file (:func:`repro.lint.cli.split_queries`) and
    the term the per-query lint already translated it to. Queries that
    failed to parse or translate have no term and are not handed in —
    the per-query passes report them as ``QL000``.
    """
    groups: dict = {}
    for line0, col0, term in queries:
        groups.setdefault(literal_skeleton(term), []).append(
            (line0, col0, term, literal_vector(term))
        )

    diagnostics: list[Diagnostic] = []
    for members in groups.values():
        if len(members) < 2:
            continue
        distinct = {literals for *_, literals in members}
        if len(distinct) < 2 or not any(literals for *_, literals in members):
            continue
        for line0, col0, term, _ in members:
            span = span_of(term)
            if span is not None and (line0 or col0):
                span = span.shifted(line0, col0)
            diagnostics.append(
                make(
                    "QL401",
                    f"{len(members)} queries in this file differ only in "
                    "their literals; each compiles and caches separately",
                    span,
                    hint=_HINT,
                )
            )
    return diagnostics


def run_batch(queries: Iterable[tuple[int, int, Term]]) -> list[Diagnostic]:
    """All batch findings for one file (currently just QL401)."""
    return find_literal_variants(queries)
