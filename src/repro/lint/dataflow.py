"""Pass 5 — dataflow lints: findings powered by :mod:`repro.analysis`.

- ``QL301`` (warning) — duplicate generator: two generators range over
  the *same* (pure) source and no predicate ever relates their
  variables, so the second iteration is either redundant or an
  unconstrained self-join.
- ``QL302`` (warning) — cross product without an equi-join: two
  independent generators are related only by non-equality predicates
  (``<``, ``!=``, arithmetic on both sides, ...). The optimizer's
  hash-join matcher needs a pure equality with one side per generator;
  anything else degrades to a filtered nested loop.
- ``QL303`` (info) — index-probe candidate: an equality selection
  ``v.attr = key`` where ``v`` ranges directly over a named extent and
  ``key`` is invariant in the comprehension. A hash index created with
  ``Database.create_index(extent, attr)`` turns the scan into a probe.

All three skip translator-invented (``w~3``) and ``_``-prefixed
variables, and decompose ``and``-conjunctions before classifying
predicates, so ``where p and q`` and ``where p where q`` lint alike.
"""

from __future__ import annotations

from typing import Iterator

from repro.calculus.ast import (
    BinOp,
    Comprehension,
    Filter,
    Generator,
    Proj,
    Term,
    Var,
)
from repro.calculus.traversal import free_vars, has_effects, subterms
from repro.lint.base import LintContext, is_fresh_name
from repro.lint.diagnostics import Diagnostic, make
from repro.span import span_of

name = "dataflow"


def run(term: Term, ctx: LintContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for sub in subterms(term):
        if isinstance(sub, Comprehension):
            _check_duplicate_generators(sub, diagnostics)
            _check_non_equi_products(sub, diagnostics)
            _check_index_probes(sub, ctx, diagnostics)
    return diagnostics


def _display(var_name: str) -> str:
    return var_name.split("~")[0]


def _skippable(var_name: str) -> bool:
    return is_fresh_name(var_name) or var_name.startswith("_")


def _conjuncts(pred: Term) -> Iterator[Term]:
    """The ``and``-free leaves of a predicate, left to right."""
    if isinstance(pred, BinOp) and pred.op == "and":
        yield from _conjuncts(pred.left)
        yield from _conjuncts(pred.right)
    else:
        yield pred


def _predicates(comp: Comprehension) -> list[Term]:
    return [
        leaf
        for qual in comp.qualifiers
        if isinstance(qual, Filter)
        for leaf in _conjuncts(qual.pred)
    ]


# -- QL301: duplicate generator -----------------------------------------------


def _check_duplicate_generators(
    comp: Comprehension, diagnostics: list[Diagnostic]
) -> None:
    gens = [q for q in comp.qualifiers if isinstance(q, Generator)]
    if len(gens) < 2:
        return
    preds = _predicates(comp)
    for j in range(1, len(gens)):
        for i in range(j):
            first, second = gens[i], gens[j]
            if _skippable(first.var) or _skippable(second.var):
                continue
            if first.source != second.source or has_effects(first.source):
                continue
            pair = {first.var, second.var}
            if any(pair <= free_vars(p) for p in preds):
                continue
            diagnostics.append(
                make(
                    "QL301",
                    f"generator {_display(second.var)!r} ranges over the same "
                    f"source as {_display(first.var)!r} but no predicate "
                    "relates the two variables; the self-join is "
                    "unconstrained (drop one generator or add a predicate)",
                    span_of(second) or span_of(comp),
                )
            )
            break  # one report per duplicate generator is enough


# -- QL302: correlated but not hash-joinable ----------------------------------


def _is_equi_join(pred: Term, left_var: str, right_var: str) -> bool:
    """Is ``pred`` an equality with one side per generator variable?"""
    if not (isinstance(pred, BinOp) and pred.op == "="):
        return False
    pair = {left_var, right_var}
    lhs = free_vars(pred.left) & pair
    rhs = free_vars(pred.right) & pair
    return (lhs == {left_var} and rhs == {right_var}) or (
        lhs == {right_var} and rhs == {left_var}
    )


def _check_non_equi_products(
    comp: Comprehension, diagnostics: list[Diagnostic]
) -> None:
    gens = [q for q in comp.qualifiers if isinstance(q, Generator)]
    if len(gens) < 2:
        return
    gen_vars = {g.var for g in gens}
    independent = [g for g in gens if not (free_vars(g.source) & gen_vars)]
    preds = _predicates(comp)
    for j in range(1, len(independent)):
        for i in range(j):
            first, second = independent[i], independent[j]
            if _skippable(first.var) or _skippable(second.var):
                continue
            relating = [
                p
                for p in preds
                if first.var in free_vars(p) and second.var in free_vars(p)
            ]
            if not relating:
                continue  # fully uncorrelated: QL201's territory
            if any(_is_equi_join(p, first.var, second.var) for p in relating):
                continue
            diagnostics.append(
                make(
                    "QL302",
                    f"generators {_display(first.var)!r} and "
                    f"{_display(second.var)!r} are related only by "
                    "non-equality predicates; without an equi-join "
                    "conjunct the optimizer cannot hash-join them",
                    span_of(second) or span_of(comp),
                )
            )


# -- QL303: index-probe candidate ---------------------------------------------


def _bound_names(comp: Comprehension) -> frozenset[str]:
    names: set[str] = set()
    for qual in comp.qualifiers:
        if isinstance(qual, Generator):
            names.add(qual.var)
            if qual.index_var is not None:
                names.add(qual.index_var)
        elif isinstance(qual, Filter):
            pass
        else:  # Bind
            names.add(qual.var)
    return frozenset(names)


def _probe_candidate(
    pred: Term,
    extent_of: dict[str, str],
    bound: frozenset[str],
) -> tuple[str, str] | None:
    """``(extent, attr)`` when ``pred`` is ``v.attr = invariant-key``."""
    if not (isinstance(pred, BinOp) and pred.op == "="):
        return None
    for side, other in ((pred.left, pred.right), (pred.right, pred.left)):
        if not (isinstance(side, Proj) and isinstance(side.base, Var)):
            continue
        extent = extent_of.get(side.base.name)
        if extent is None:
            continue
        if free_vars(other) & bound:
            continue  # the key varies inside the comprehension
        return (extent, side.name)
    return None


def comp_probe_candidates(
    comp: Comprehension, known_names: frozenset[str]
) -> Iterator[tuple[str, str, Term]]:
    """Every ``(extent, attr, predicate)`` triple of ``comp`` where an
    equality selection on a named extent could become an index probe —
    QL303's detection, shared with the telemetry QL402 advisor."""
    extent_of = {
        q.var: q.source.name
        for q in comp.qualifiers
        if isinstance(q, Generator)
        and isinstance(q.source, Var)
        and q.source.name in known_names
        and not _skippable(q.var)
    }
    if not extent_of:
        return
    bound = _bound_names(comp)
    reported: set[tuple[str, str]] = set()
    for qual in comp.qualifiers:
        if not isinstance(qual, Filter) or getattr(qual, "group_key", False):
            continue  # a group-by's key = label filter selects nothing
        for leaf in _conjuncts(qual.pred):
            probe = _probe_candidate(leaf, extent_of, bound)
            if probe is None or probe in reported:
                continue
            reported.add(probe)
            extent, attr = probe
            yield extent, attr, leaf


def index_probe_candidates(
    term: Term, known_names: frozenset[str]
) -> list[tuple[str, str]]:
    """All distinct ``(extent, attr)`` probe candidates anywhere in
    ``term`` (the whole-query view the QL402 advisor consumes)."""
    out: list[tuple[str, str]] = []
    for sub in subterms(term):
        if isinstance(sub, Comprehension):
            for extent, attr, _leaf in comp_probe_candidates(sub, known_names):
                if (extent, attr) not in out:
                    out.append((extent, attr))
    return out


def _check_index_probes(
    comp: Comprehension, ctx: LintContext, diagnostics: list[Diagnostic]
) -> None:
    for extent, attr, leaf in comp_probe_candidates(comp, ctx.names):
        diagnostics.append(
            make(
                "QL303",
                f"equality on {attr!r} selects from extent {extent!r}; "
                "a hash index would turn the scan into a probe",
                span_of(leaf) or span_of(comp),
                hint=f"Database.create_index({extent!r}, {attr!r})",
            )
        )
