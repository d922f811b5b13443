"""Runtime value model: immutable, hashable carriers for every monoid.

The calculus allows arbitrary nesting of collections (a set of bags of
records of lists, ...), so every carrier here is immutable and hashable:

- ``tuple`` — the ``list`` monoid carrier (and the calculus' tuple type)
- ``frozenset`` — the ``set`` monoid carrier
- :class:`Bag` — the ``bag`` monoid carrier (multiset)
- :class:`OrderedSet` — the ``oset`` monoid carrier
- :class:`Record` — product values ``<a=..., b=...>``
- :class:`Vector` — the ``M[n]`` vector monoid carrier (section 4.1)

:func:`canonical_key` supplies the total deterministic order the
evaluator uses when iterating sets and bags; :func:`canonical_order`
puts a set or bag into it, at most once per value.
"""

from repro.values.bag import Bag
from repro.values.compare import canonical_key, canonical_order, canonical_sorted, to_python
from repro.values.oset import OrderedSet
from repro.values.record import Record
from repro.values.vector import Vector

__all__ = [
    "Bag",
    "OrderedSet",
    "Record",
    "Vector",
    "canonical_key",
    "canonical_order",
    "canonical_sorted",
    "to_python",
]
