"""Pass 4 — performance lints: queries the engine will run badly.

- ``QL201`` — an uncorrelated cartesian product: a generator that no
  other generator's source and no predicate ever ties to the rest of
  the comprehension. Cost is the full cross product.
- ``QL202`` — a filter that only depends on generators bound *before*
  an independent (extent-scanning) generator, yet is written after it.
  Normalization/optimization can push it down, but the query as
  written hides that, and the interpreter path pays for it.
- ``QL203`` (info) — pipelining blocked: after running the Table 3
  rules to a fixpoint (the context's normal form — the pipeline's own
  when ``compile`` is linting), some generator still ranges over a
  non-path source (typically a nested query that cannot be unnested, e.g. a
  ``set`` subquery ranged over by a ``bag`` select, or a sort). The
  executor must materialize that inner collection instead of
  pipelining it. An aggregate over a group-by ``partition`` is not
  such a case: the Nest operator folds it as the rows arrive.
"""

from __future__ import annotations

from repro.calculus.ast import Bind, Comprehension, Filter, Generator, Term
from repro.calculus.traversal import free_vars, subterms
from repro.errors import ReproError
from repro.lint.base import LintContext, is_fresh_name
from repro.lint.diagnostics import Diagnostic, make
from repro.lint.semantics import constant_truth
from repro.normalize.engine import is_simple_path
from repro.span import span_of

name = "performance"


def run(term: Term, ctx: LintContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for sub in subterms(term):
        if isinstance(sub, Comprehension):
            _check_cartesian(sub, diagnostics)
            _check_filter_placement(sub, diagnostics)
    _check_pipelining(term, ctx, diagnostics)
    return diagnostics


def _display(var_name: str) -> str:
    return var_name.split("~")[0]


def _check_cartesian(comp: Comprehension, diagnostics: list[Diagnostic]) -> None:
    gens = [q for q in comp.qualifiers if isinstance(q, Generator)]
    if len(gens) < 2:
        return
    gen_vars = {g.var for g in gens}
    # Correlation edges: a generator's source mentioning another
    # generator's variable, or a predicate mentioning two of them.
    correlated: set[str] = set()
    for gen in gens:
        deps = free_vars(gen.source) & gen_vars
        if deps:
            correlated.add(gen.var)
            correlated.update(deps)
    for qual in comp.qualifiers:
        if isinstance(qual, Filter):
            mentioned = free_vars(qual.pred) & gen_vars
            if len(mentioned) >= 2:
                correlated.update(mentioned)
    for gen in gens:
        if gen.var in correlated or is_fresh_name(gen.var):
            continue
        others = ", ".join(
            repr(_display(g.var)) for g in gens if g.var != gen.var
        )
        diagnostics.append(
            make(
                "QL201",
                f"generator {gen.var!r} is never correlated with {others}: "
                "this is a cartesian product; add a join predicate or make "
                "the nesting explicit",
                span_of(gen) or span_of(comp),
            )
        )


def _check_filter_placement(comp: Comprehension, diagnostics: list[Diagnostic]) -> None:
    quals = comp.qualifiers
    binder_pos: dict[str, int] = {}
    for i, qual in enumerate(quals):
        if isinstance(qual, (Generator, Bind)):
            binder_pos[qual.var] = i
            if isinstance(qual, Generator) and qual.index_var is not None:
                binder_pos[qual.index_var] = i
    bound_here = frozenset(binder_pos)
    for i, qual in enumerate(quals):
        if not isinstance(qual, Filter):
            continue
        if constant_truth(qual.pred) is not None:
            continue  # QL102/QL103 own constant predicates
        deps = free_vars(qual.pred) & bound_here
        last_needed = max((binder_pos[v] for v in deps), default=-1)
        skipped = [
            q
            for q in quals[last_needed + 1 : i]
            if isinstance(q, Generator)
            and not (free_vars(q.source) & bound_here)
            and not is_fresh_name(q.var)
        ]
        if skipped:
            over = ", ".join(repr(_display(g.var)) for g in skipped)
            if deps:
                needs = ", ".join(sorted(repr(_display(v)) for v in deps))
                what = f"predicate only depends on {needs}"
            else:
                what = "predicate depends on no generator variable"
            diagnostics.append(
                make(
                    "QL202",
                    f"{what} but runs after the "
                    f"independent generator(s) {over}; it could filter before "
                    "that scan",
                    span_of(qual.pred) or span_of(qual),
                )
            )


def _check_pipelining(
    term: Term, ctx: LintContext, diagnostics: list[Diagnostic]
) -> None:
    try:
        normal = ctx.normal_form()
    except ReproError:
        return
    seen: set[int] = set()
    for sub in subterms(normal):
        if not isinstance(sub, Comprehension) or id(sub) in seen:
            continue
        seen.add(id(sub))
        for qual in sub.qualifiers:
            if isinstance(qual, Generator) and not is_simple_path(qual.source):
                diagnostics.append(
                    make(
                        "QL203",
                        f"generator {_display(qual.var)!r} still ranges over a "
                        "computed collection after normalization; the Table 3 "
                        "rules cannot flatten it, so the executor materializes "
                        "it instead of pipelining",
                        span_of(qual) or span_of(qual.source) or span_of(term),
                    )
                )
