"""The rewrite invariant catalog.

Each checker compares a term before and after a rewrite and returns the
:class:`Violation`\\ s it finds (empty list = invariant holds). The
catalog encodes what "sound" means for a Table 3 rule fire:

``scope``
    No free variable appears in the result that was not free in the
    input — a rewrite may *drop* free occurrences (dead code) but never
    invent one, which is what a bound variable escaping its binder
    looks like.
``effects``
    The number of effectful operations (``new``, ``:=``, ``+=``) does
    not grow: duplicating an effect changes observable behavior.
``coherence``
    The §3 restriction ``props(N) ⊆ props(M)`` on every generator and
    homomorphism whose source monoid is syntactically known. Compared
    as *non-introduction*: the result may carry over a latent violation
    already present in the input (inner qualifiers migrate outward
    under N9), but a rewrite must never create a violation over a
    source monoid that was clean before.
``type``
    When both sides are inferable under a permissive environment (all
    free variables typed ``any``), the inferred types must stay
    compatible. Inference is gradual, so this is best-effort — but it
    pins the collection monoid of the result, which is exactly what a
    set-vs-bag bug changes.

The fifth invariant — alpha-invariance — needs to *re-apply* the rule
and so lives in :class:`repro.analysis.verifier.RewriteVerifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calculus.ast import (
    Comprehension,
    Empty,
    Generator,
    Hom,
    Merge,
    MonoidRef,
    Singleton,
    Term,
)
from repro.calculus.ast import EFFECTFUL_NODES
from repro.calculus.traversal import free_vars
from repro.errors import ReproError
from repro.monoids import Monoid, is_hom_well_formed, static_monoid
from repro.types.infer import TypeChecker, compatible
from repro.types.types import ANY, Type

from repro.analysis.dataflow import scoped_subterms


@dataclass(frozen=True)
class Violation:
    """One violated invariant, named and explained."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


# ---------------------------------------------------------------------------
# Scope
# ---------------------------------------------------------------------------


def check_scope(before: Term, after: Term) -> list[Violation]:
    """No free variable may escape into existence."""
    escaped = free_vars(after) - free_vars(before)
    if escaped:
        return [
            Violation(
                "scope",
                f"free variable(s) {sorted(escaped)} appear in the result "
                "but were bound (or absent) in the input",
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


def effect_count(term: Term) -> int:
    """Number of effectful nodes (``new``/``:=``/``+=``) in ``term``."""
    return sum(
        1 for sub, _ in scoped_subterms(term) if isinstance(sub, EFFECTFUL_NODES)
    )


def check_effects(before: Term, after: Term) -> list[Violation]:
    """A rewrite must not duplicate heap effects."""
    b, a = effect_count(before), effect_count(after)
    if a > b:
        return [
            Violation(
                "effects",
                f"effectful operations duplicated: {b} before, {a} after",
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Monoid coherence (§3)
# ---------------------------------------------------------------------------


def _collection(ref: MonoidRef) -> Optional[Monoid]:
    """The registered collection monoid ``ref`` names, if it is one (and
    not a vector)."""
    monoid = None if ref.is_vector else static_monoid(ref)
    return monoid if monoid is not None and monoid.is_collection else None


def coherence_violations(term: Term) -> frozenset[str]:
    """Source-monoid names over which ``term`` breaks the §3 restriction.

    Keyed by source monoid name rather than position: rules like N9
    shuffle qualifier positions while preserving which monoids flow
    into which, so positional keys would misreport a migrated latent
    violation as a fresh one. A generator source counts when it is a
    literal monoid construction (zero/unit/merge/comprehension); an
    output monoid that is not registered is not statically known.
    """
    bad: set[str] = set()
    for sub, _ in scoped_subterms(term):
        if isinstance(sub, Comprehension) and not sub.monoid.is_vector:
            homs = [
                (qual.source.monoid, sub.monoid)
                for qual in sub.qualifiers
                if isinstance(qual, Generator)
                and isinstance(qual.source, (Empty, Singleton, Merge, Comprehension))
            ]
        elif isinstance(sub, Hom) and not sub.target.is_vector:
            homs = [(sub.source, sub.target)]
        else:
            continue
        for source_ref, target_ref in homs:
            source, target = _collection(source_ref), static_monoid(target_ref)
            if source is not None and target is not None and not is_hom_well_formed(source, target):
                bad.add(source_ref.name)
    return frozenset(bad)


def check_coherence(before: Term, after: Term) -> list[Violation]:
    """A rewrite must not introduce a §3 coherence violation."""
    introduced = coherence_violations(after) - coherence_violations(before)
    if introduced:
        return [
            Violation(
                "coherence",
                "props(N) ⊆ props(M) newly violated for generator source "
                f"monoid(s) {sorted(introduced)}",
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Type preservation
# ---------------------------------------------------------------------------


def check_types(
    before: Term, after: Term, type_env: Optional[dict[str, Type]] = None
) -> list[Violation]:
    """Inferred types must stay compatible when both sides are inferable.

    Free variables default to ``any``. When either side fails to infer
    the check is skipped: under gradual typing a sound rewrite can
    surface a latent type error (beta reduction exposing ``'s' + 1``),
    and punishing that would make the verifier unusable on unchecked
    terms.
    """
    names = free_vars(before) | free_vars(after)
    env: dict[str, Type] = {name: ANY for name in names}
    if type_env:
        env.update({k: v for k, v in type_env.items() if k in names})
    try:
        before_ty = TypeChecker().infer(before, env)
        after_ty = TypeChecker().infer(after, env)
    except ReproError:
        return []
    except (KeyError, IndexError, RecursionError):  # defensive: checker bugs
        return []
    if not compatible(before_ty, after_ty):
        return [
            Violation(
                "type",
                f"inferred type changed: {before_ty} before, {after_ty} after",
            )
        ]
    return []
