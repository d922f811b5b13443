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
their type in the key, all the way down (:func:`typed_value`), because
Python's ``1 == True == 1.0`` would otherwise let one query answer for
another with a value of the wrong type.

:func:`literal_skeleton` instead blanks every constant, giving the
key the ``QL401`` lint uses to spot literal-only query variants that
defeat the compilation cache, and :func:`fingerprint_term` digests
the canonical term into the short name a hot-query table groups by.

:class:`CacheKey` is the one key class both caches store under: the
query cache's entries (a canonical term with the engine, the typecheck
flag and the parameter types) and the code cache's functions
(:func:`repro.jit.plan.plan_key`). A term is a tree of frozen
dataclasses whose generated ``__hash__`` walks all of it, so a key is
hashed once, when it is made, and every later lookup costs its stored
hash and an identity test.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.calculus.ast import Const, Term, Var
from repro.calculus.traversal import numbered, subterms
from repro.values import Record
from repro.values.compare import StoredSet

#: The placeholder every constant collapses to in a literal skeleton.
LITERAL_HOLE = "‹lit›"  # ‹lit›

_HOLE = Const(LITERAL_HOLE)


class CacheKey:
    """A key hashed once: ``parts`` (a tuple) and its stored hash.

    >>> a, b = CacheKey((1, "x")), CacheKey((1, "x"))
    >>> a == b and hash(a) == hash(b) == hash((1, "x"))
    True
    """

    __slots__ = ("parts", "hash")

    def __init__(self, parts: tuple) -> None:
        self.parts, self.hash = parts, hash(parts)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, CacheKey) and self.hash == other.hash and self.parts == other.parts
        )


def typed_value(value: object) -> object:
    """``value`` with its type beside it, inside tuples, sets and records
    too: ``1``, ``1.0`` and ``True`` differ, and so do ``0.0`` and ``-0.0``."""
    kind = type(value)
    if kind is tuple or kind is frozenset or kind is StoredSet:
        return (kind.__name__, kind(map(typed_value, value)))
    if kind is Record:
        return ("Record", tuple((name, typed_value(v)) for name, v in value.items()))
    return (kind.__name__, repr(value) if kind is float else value)


def typed_literal(literal: Const) -> Const:
    return Const(typed_value(literal.value))


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
    return numbered(term, typed_literal)


def fingerprint_term(term: Term, key: Optional[CacheKey] = None) -> str:
    """A short stable identifier of ``term``'s alpha-equivalence class:
    12 hex digits of a SHA-256 over its canonical term's repr, read off
    ``key`` when ``term`` was keyed by it.

    >>> from repro.oql import translate_oql
    >>> a = fingerprint_term(translate_oql("select distinct x.name from x in Cities"))
    >>> a == fingerprint_term(translate_oql("select distinct y.name from y in Cities"))
    True
    """
    canonical = key.parts[0] if key is not None else canonical_term(term)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:12]


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
