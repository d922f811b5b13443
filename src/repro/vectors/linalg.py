"""Section 4.1's vector/array examples as monoid comprehensions.

Each function here *builds a calculus term* — a vector comprehension —
and evaluates it with the reference evaluator, so the examples are real
queries, not Python reimplementations:

- :func:`reverse_query` — ``vec[n]{ a @ (n-1-i) | a[i] <- x }`` (the
  paper's reversal example);
- :func:`subsequence_query`, :func:`permute_query`;
- :func:`inner_product_query` — an aggregation over two vectors;
- :func:`matmul_query`, :func:`transpose_query` — nested vector
  comprehensions over vector-of-vector matrices;
- :func:`histogram_query` — slot collisions merged by ``sum`` (the
  reason ``M[n]`` is deliberately *not* freely generated);
- :func:`fft_query` — Buneman's "FFT as a database query" [7]: a
  bit-reversal permutation comprehension followed by ``log2 n``
  butterfly-stage comprehensions over the complex-sum monoid.

Two auxiliary monoids are registered on import:

- ``csum`` — complex numbers as ``(re, im)`` pairs under addition
  (commutative, not idempotent), the element monoid of FFT stages;
- ``cell`` — the write-once cell (zero ``None``; merging two different
  non-None values is an error, a value merged with itself stays), giving *free* vectors for permutations and row
  assembly, where each slot must be written exactly once.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.calculus.builders import call, comp, const, ge, gen, index, lt, mul, sub, var
from repro.errors import MonoidError
from repro.eval.evaluator import Evaluator
from repro.monoids import PrimitiveMonoid, default_registry
from repro.values import Vector
from repro.vectors.comprehension import vcomp


def _complex_add(left: tuple, right: tuple) -> tuple:
    return (left[0] + right[0], left[1] + right[1])


def _cell_merge(left: Any, right: Any) -> Any:
    """Write-once: ``None`` is the free slot, and a slot written twice
    with the same value keeps it (the monoid is idempotent)."""
    if left is None or left == right:
        return right
    if right is None:
        return left
    raise MonoidError(
        "cell monoid collision: a free vector slot was written twice"
    )


def _register_aux_monoids() -> None:
    registry = default_registry()
    if "csum" not in registry:
        registry.register(
            PrimitiveMonoid(
                "csum",
                zero_value=(0.0, 0.0),
                merge_fn=_complex_add,
                commutative=True,
                idempotent=False,
                doc="Complex addition over (re, im) pairs.",
            )
        )
    if "cell" not in registry:
        registry.register(
            PrimitiveMonoid(
                "cell",
                zero_value=None,
                merge_fn=_cell_merge,
                commutative=True,
                idempotent=True,
                doc="Write-once cell: merging two different set slots is an error.",
            )
        )


_register_aux_monoids()


# ---------------------------------------------------------------------------
# FFT butterflies (builtins keeping the comprehension structure visible)
# ---------------------------------------------------------------------------


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def _butterfly_target(i: int, t: int, half: int) -> int:
    """Output slot ``t`` of input slot ``i``'s butterfly pair."""
    return (i & ~half) if t == 0 else (i | half)


def _butterfly_coef(a: tuple, i: int, t: int, half: int, n: int) -> tuple:
    """The coefficient-scaled contribution of input ``a`` at slot ``i``.

    For the pair (lo, hi) with ``hi = lo + half`` and twiddle
    ``w = e^(-2 pi i k / n)``::

        out[lo] = in[lo] + w * in[hi]
        out[hi] = in[lo] - w * in[hi]
    """
    k = (i % half) * (n // (2 * half)) if half else 0
    if i & half == 0:
        coef = (1.0, 0.0)
    else:
        angle = -2.0 * math.pi * k / n
        coef = (math.cos(angle), math.sin(angle))
        if t == 1:
            coef = (-coef[0], -coef[1])
    re = coef[0] * a[0] - coef[1] * a[1]
    im = coef[0] * a[1] + coef[1] * a[0]
    return (re, im)


VECTOR_BUILTINS = {
    "bitrev": _bit_reverse,
    "bf_target": _butterfly_target,
    "bf_coef": _butterfly_coef,
}


def _evaluator(bindings: dict[str, Any]) -> Evaluator:
    return Evaluator(bindings, functions=VECTOR_BUILTINS)


def _as_vector(values: Sequence[Any], default: Any = 0) -> Vector:
    if isinstance(values, Vector):
        return values
    return Vector.from_dense(list(values), default=default)


# ---------------------------------------------------------------------------
# The example queries
# ---------------------------------------------------------------------------


def reverse_query(values: Sequence[float]) -> list:
    """``vec[n]{ a @ (n-1-i) | a[i] <- x }`` — the paper's reversal.

    >>> reverse_query([1, 2, 3, 4])
    [4, 3, 2, 1]
    """
    n = len(values)
    term = vcomp("sum", n, var("a"), sub(const(n - 1), var("i")), [gen("a", var("x"), at="i")])
    result = _evaluator({"x": _as_vector(values)}).evaluate(term)
    return result.to_list()


def subsequence_query(values: Sequence[float], lo: int, hi: int) -> list:
    """``vec[hi-lo]{ a @ (i-lo) | a[i] <- x, lo <= i, i < hi }``.

    >>> subsequence_query([10, 20, 30, 40, 50], 1, 4)
    [20, 30, 40]
    """
    term = vcomp(
        "sum",
        hi - lo,
        var("a"),
        sub(var("i"), const(lo)),
        [
            gen("a", var("x"), at="i"),
            ge(var("i"), const(lo)),
            lt(var("i"), const(hi)),
        ],
    )
    result = _evaluator({"x": _as_vector(values)}).evaluate(term)
    return result.to_list()


def permute_query(values: Sequence[Any], permutation: Sequence[int]) -> list:
    """``vec[n]{ a @ p[i] | a[i] <- x }`` over the write-once cell monoid.

    >>> permute_query(["a", "b", "c"], [2, 0, 1])
    ['b', 'c', 'a']
    """
    n = len(values)
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must be a bijection on 0..n-1")
    term = vcomp(
        "cell", n, var("a"), index(var("p"), var("i")), [gen("a", var("x"), at="i")]
    )
    bindings = {
        "x": _as_vector(values, default=None),
        "p": _as_vector(permutation, default=-1),
    }
    result = _evaluator(bindings).evaluate(term)
    return result.to_list()


def inner_product_query(xs: Sequence[float], ys: Sequence[float]) -> float:
    """``sum{ a * y[i] | a[i] <- x }`` — aggregation over vectors.

    >>> inner_product_query([1, 2, 3], [4, 5, 6])
    32
    """
    if len(xs) != len(ys):
        raise ValueError("inner product requires equal-length vectors")
    term = comp(
        "sum",
        mul(var("a"), index(var("y"), var("i"))),
        [gen("a", var("x"), at="i")],
    )
    return _evaluator({"x": _as_vector(xs), "y": _as_vector(ys)}).evaluate(term)


def transpose_query(matrix: Sequence[Sequence[float]]) -> list[list]:
    """Nested vector comprehensions computing the transpose.

    >>> transpose_query([[1, 2, 3], [4, 5, 6]])
    [[1, 4], [2, 5], [3, 6]]
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    inner = vcomp(
        "cell",
        rows,
        index(index(var("A"), var("i")), var("j")),
        var("i"),
        [gen("i", call("range", const(rows)))],
    )
    term = vcomp("cell", cols, inner, var("j"), [gen("j", call("range", const(cols)))])
    value = _evaluator({"A": _matrix_value(matrix)}).evaluate(term)
    return [row.to_list() for row in value]


def matmul_query(
    a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]
) -> list[list]:
    """``C[i][j] = sum{ arow[k] * B[k][j] }`` as nested comprehensions.

    >>> matmul_query([[1, 2], [3, 4]], [[5, 6], [7, 8]])
    [[19, 22], [43, 50]]
    """
    n = len(a)
    inner_dim = len(b)
    m = len(b[0]) if inner_dim else 0
    if any(len(row) != inner_dim for row in a):
        raise ValueError("inner dimensions do not match")
    row_term = vcomp(
        "sum",
        m,
        mul(var("av"), var("bv")),
        var("j"),
        [
            gen("av", var("arow"), at="k"),
            gen("bv", index(var("B"), var("k")), at="j"),
        ],
    )
    term = vcomp("cell", n, row_term, var("i"), [gen("arow", var("A"), at="i")])
    value = _evaluator({"A": _matrix_value(a), "B": _matrix_value(b)}).evaluate(term)
    return [row.to_list() for row in value]


def histogram_query(values: Sequence[float], buckets: int, width: float) -> list:
    """``vec[sum, buckets]{ 1 @ (v div width) | v <- data }``.

    Several inputs land on the same slot; the ``sum`` element monoid
    merges them — the collision behaviour the paper highlights.

    >>> histogram_query([0, 1, 1, 2, 5], buckets=3, width=2)
    [3, 1, 1]
    """
    from repro.calculus.builders import binop

    term = vcomp(
        "sum",
        buckets,
        const(1),
        binop("div", var("v"), const(width)),
        [gen("v", const(tuple(values))), lt(binop("div", var("v"), const(width)), const(buckets))],
    )
    return _evaluator({}).evaluate(term).to_list()


# ---------------------------------------------------------------------------
# FFT as a database query
# ---------------------------------------------------------------------------


def fft_query(values: Sequence[complex]) -> list[complex]:
    """Radix-2 FFT where every stage is a vector comprehension.

    Stage 0 is the bit-reversal permutation
    ``cell[n]{ a @ bitrev(i, bits) | a[i] <- x }``; each of the
    ``log2 n`` butterfly stages is
    ``csum[n]{ bf_coef(a,i,t,half,n) @ bf_target(i,t,half)
    | a[i] <- x, t <- [0, 1] }`` — two contributions per input element,
    merged into the output slots by complex addition. This is the
    computation reference [7] (Buneman) expresses as a query.

    >>> [round(abs(v), 6) for v in fft_query([1, 1, 1, 1])]
    [4.0, 0.0, 0.0, 0.0]
    """
    n = len(values)
    if n == 0:
        return []
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError(f"FFT size must be a power of two, got {n}")
    pairs = [(complex(v).real, complex(v).imag) for v in values]
    current = Vector.from_dense(pairs, default=(0.0, 0.0))

    if n > 1:
        permute = vcomp(
            "cell",
            n,
            var("a"),
            call("bitrev", var("i"), const(bits)),
            [gen("a", var("x"), at="i")],
        )
        shuffled = _evaluator({"x": Vector.from_dense(pairs, default=None)}).evaluate(permute)
        current = Vector.from_dense(shuffled.to_list(), default=(0.0, 0.0))

    stage = vcomp(
        "csum",
        n,
        call("bf_coef", var("a"), var("i"), var("t"), var("half"), const(n)),
        call("bf_target", var("i"), var("t"), var("half")),
        [gen("a", var("x"), at="i"), gen("t", const((0, 1)))],
    )
    half = 1
    while half < n:
        ev = _evaluator({"x": current, "half": half})
        current = ev.evaluate(stage)
        half *= 2
    return [complex(re, im) for re, im in current.to_list()]


def _matrix_value(matrix: Sequence[Sequence[float]]) -> Vector:
    rows = [Vector.from_dense(list(row)) for row in matrix]
    return Vector.from_dense(rows, default=None)
