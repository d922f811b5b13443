"""The paper's primitive monoids: sum, prod, max, min, some, all.

Primitive monoids aggregate scalars; their unit function is the
identity. Their property sets (Table 1's C/I column):

========  ===========  ==========
monoid    commutative  idempotent
========  ===========  ==========
sum       yes          no
prod      yes          no
max       yes          yes
min       yes          yes
some      yes          yes
all       yes          yes
========  ===========  ==========

``max``/``min`` use ``None`` as the zero (identity), so they are defined
over any totally ordered carrier without inventing infinities; an empty
``max{...}`` comprehension therefore yields ``None``, which the OQL
layer surfaces as SQL-style NULL behaviour for empty aggregates. Sets,
which ``>=`` orders by inclusion, are refused like bags and records.
"""

from __future__ import annotations

import operator
from typing import Any

from repro.monoids.base import PrimitiveMonoid


def _max_merge(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    if isinstance(left, frozenset):  # ``>=`` is the subset order
        raise TypeError("sets are not totally ordered")
    return left if left >= right else right


def _min_merge(left: Any, right: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    if isinstance(left, frozenset):
        raise TypeError("sets are not totally ordered")
    return left if left <= right else right


SUM = PrimitiveMonoid(
    "sum",
    zero_value=0,
    merge_fn=operator.add,
    commutative=True,
    idempotent=False,
    doc="Numeric addition; zero 0. The carrier of count/sum aggregates.",
)

PROD = PrimitiveMonoid(
    "prod",
    zero_value=1,
    merge_fn=operator.mul,
    commutative=True,
    idempotent=False,
    doc="Numeric multiplication; zero 1.",
)

MAX = PrimitiveMonoid(
    "max",
    zero_value=None,
    merge_fn=_max_merge,
    commutative=True,
    idempotent=True,
    doc="Maximum under the carrier's order; zero None (identity).",
)

MIN = PrimitiveMonoid(
    "min",
    zero_value=None,
    merge_fn=_min_merge,
    commutative=True,
    idempotent=True,
    doc="Minimum under the carrier's order; zero None (identity).",
)

SOME = PrimitiveMonoid(
    "some",
    zero_value=False,
    merge_fn=operator.or_,
    commutative=True,
    idempotent=True,
    doc="Boolean disjunction; existential quantification (OQL exists).",
)

ALL = PrimitiveMonoid(
    "all",
    zero_value=True,
    merge_fn=operator.and_,
    commutative=True,
    idempotent=True,
    doc="Boolean conjunction; universal quantification (OQL for all).",
)

PRIMITIVE_MONOIDS = (SUM, PROD, MAX, MIN, SOME, ALL)
