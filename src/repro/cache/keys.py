"""Cache keys: canonical alpha-forms and literal skeletons of terms.

The compilation cache must give alpha-equivalent queries (``for x in
Cities`` vs ``for y in Cities``) one shared entry.  Structural equality
of terms is too strict — binder spellings differ — so the key is the
term with its binders renamed, in one pass, onto the alphabet ``~0,
~1, ...`` in binding order
(:func:`~repro.calculus.traversal.numbered`). Neither the OQL lexer nor
the calculus parser can produce such a name, so a free variable is
never captured by a canonical binder, however the user spells it.

The result (:func:`canonical_term`) is a plain calculus term whose
structural equality/hash coincides with alpha-equivalence of the
input, so it can be used directly as a dictionary key.  Free variables
(extents, ``$`` parameters) are untouched: queries over different
extents or with different parameter names never collide. Literals carry
their type in the key, because Python's ``1 == True == 1.0`` would
otherwise let one query answer for another with a value of the wrong
type.

:func:`literal_skeleton` instead blanks every constant, giving the
key the ``QL401`` lint uses to spot literal-only query variants that
defeat the compilation cache.
"""

from __future__ import annotations

from repro.calculus.ast import Const, Term, Var
from repro.calculus.traversal import numbered, subterms

#: The placeholder every constant collapses to in a literal skeleton.
LITERAL_HOLE = "‹lit›"  # ‹lit›

_HOLE = Const(LITERAL_HOLE)


def _typed(literal: Const) -> Const:
    return Const((type(literal.value).__name__, literal.value))


def _blank(_literal: Const) -> Const:
    return _HOLE


def canonical_term(term: Term) -> Term:
    """The canonical alpha-variant of ``term``.

    Structural equality of canonical terms is alpha-equivalence of the
    originals (with literals compared by type as well as value), so the
    result works as a hashable cache key.

    >>> from repro.oql import translate_oql
    >>> a = canonical_term(translate_oql("select distinct x.name from x in Cities"))
    >>> b = canonical_term(translate_oql("select distinct y.name from y in Cities"))
    >>> a == b
    True
    """
    return numbered(term, _typed)


def literal_skeleton(term: Term) -> Term:
    """The canonical term with every constant blanked to one hole.

    Two queries have equal skeletons exactly when they differ only in
    literal values (up to alpha-renaming) — the shape ``QL401`` flags.
    """
    return numbered(term, _blank)


def literal_vector(term: Term) -> tuple:
    """Every constant of ``term`` in deterministic pre-order."""
    return tuple(
        sub.value for sub in subterms(term) if isinstance(sub, Const)
    )


def param_names(term: Term) -> tuple[str, ...]:
    """Sorted ``$``-parameter names occurring (free) in ``term``."""
    names = {
        sub.name[1:]
        for sub in subterms(term)
        if isinstance(sub, Var) and sub.name.startswith("$")
    }
    return tuple(sorted(names))
