"""Pass 1 — well-formedness: the paper's C/I restriction, batched.

Reads the errors of the context's collecting type inference, so *every*
violation in the term is reported instead of just the first:

- ``QL001`` — a comprehension generator ranges over a collection whose
  properties exceed the output monoid's (``props(N) ⊄ props(M)``);
- ``QL002`` — an explicit ``hom[N -> M]`` with the same defect (the
  classic idempotent-set into non-idempotent-sum inconsistency);
- ``QL006`` — any other static type error.

Unbound variables also surface as typing errors here, but the scope
pass (QL003) owns them, so they are filtered out, as are errors in a
translator-made collection (a group-by partition) the user never wrote.
"""

from __future__ import annotations

from repro.calculus.ast import Hom, Term, Var
from repro.errors import WellFormednessError
from repro.lint.base import LintContext
from repro.lint.diagnostics import Diagnostic, make
from repro.span import span_of

name = "wellformed"


def run(term: Term, ctx: LintContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    errors, _ = ctx.inference
    for err, node in errors:
        if isinstance(node, Var) or getattr(node, "implicit_collection", False):
            # The scope pass reports unbound variables as QL003.
            continue
        if isinstance(err, WellFormednessError):
            code = "QL002" if isinstance(node, Hom) else "QL001"
        else:
            code = "QL006"
        diagnostics.append(make(code, str(err), span_of(node) or span_of(term)))
    return diagnostics
