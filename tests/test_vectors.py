"""Section 4.1: vector comprehensions and the example library."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculus import comp, const, gen, sub, var
from repro.errors import MonoidError
from repro.eval import Evaluator, evaluate
from repro.values import Vector
from repro.vectors import (
    at,
    fft_query,
    histogram_query,
    inner_product_query,
    matmul_query,
    permute_query,
    reverse_query,
    subsequence_query,
    transpose_query,
    vcomp,
)


class TestVectorComprehensionCore:
    def test_reverse_comprehension_term(self):
        """The paper's vec[n]{ a @ (n-1-i) | a[i] <- x }."""
        n = 4
        term = vcomp(
            "sum", n, var("a"), sub(const(n - 1), var("i")), [gen("a", var("x"), at="i")]
        )
        out = evaluate(term, {"x": Vector.from_dense([1, 2, 3, 4])})
        assert out.to_list() == [4, 3, 2, 1]

    def test_head_must_be_pair(self):
        term = comp("sum", var("a"), [gen("a", var("x"), at="i")])
        # plain sum head is fine; but a vec monoid demands (value, index)
        bad = vcomp("sum", 2, var("a"), var("i"), [gen("a", var("x"), at="i")])
        from repro.calculus.ast import Comprehension

        broken = Comprehension(bad.monoid, var("a"), bad.qualifiers)
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate(broken, {"x": Vector.from_dense([1, 2])})

    def test_collisions_merge_with_element_monoid(self):
        term = vcomp("sum", 1, var("a"), const(0), [gen("a", var("x"), at="i")])
        out = evaluate(term, {"x": Vector.from_dense([1, 2, 3])})
        assert out.to_list() == [6]

    def test_vector_size_may_be_expression(self):
        term = vcomp("sum", var("n"), var("a"), var("i"), [gen("a", var("x"), at="i")])
        out = evaluate(term, {"n": 2, "x": Vector.from_dense([5, 6])})
        assert out.to_list() == [5, 6]

    def test_bad_vector_size(self):
        from repro.errors import EvaluationError

        term = vcomp("sum", const(-1), const(1), const(0), [])
        with pytest.raises(EvaluationError):
            evaluate(term)


class TestExampleLibrary:
    def test_reverse(self):
        assert reverse_query([1, 2, 3, 4]) == [4, 3, 2, 1]
        assert reverse_query([]) == []

    def test_subsequence(self):
        assert subsequence_query([10, 20, 30, 40, 50], 1, 4) == [20, 30, 40]
        assert subsequence_query([1, 2], 0, 0) == []

    def test_permute(self):
        assert permute_query(["a", "b", "c"], [2, 0, 1]) == ["b", "c", "a"]

    def test_permute_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_query([1, 2], [0, 0])

    def test_cell_monoid_collision_is_error(self):
        from repro.monoids import get_monoid

        cell = get_monoid("cell")
        with pytest.raises(MonoidError):
            cell.merge(1, 2)
        assert cell.merge(None, 5) == 5

    def test_inner_product(self):
        assert inner_product_query([1, 2, 3], [4, 5, 6]) == 32
        assert inner_product_query([], []) == 0

    def test_inner_product_length_mismatch(self):
        with pytest.raises(ValueError):
            inner_product_query([1], [1, 2])

    def test_transpose(self):
        assert transpose_query([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]

    def test_matmul(self):
        assert matmul_query([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [[19, 22], [43, 50]]

    def test_matmul_dimension_check(self):
        with pytest.raises(ValueError):
            matmul_query([[1, 2, 3]], [[1], [2]])

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 9, (3, 4)).tolist()
        b = rng.integers(0, 9, (4, 2)).tolist()
        assert matmul_query(a, b) == (np.array(a) @ np.array(b)).tolist()

    def test_histogram(self):
        assert histogram_query([0, 1, 1, 2, 5], buckets=3, width=2) == [3, 1, 1]

    @pytest.mark.parametrize("n", [64, 512])
    def test_reverse_at_size(self, n):
        xs = list(range(n))
        assert reverse_query(xs) == xs[::-1]

    @pytest.mark.parametrize("n", [64, 512])
    def test_reverse_twice_is_the_identity_at_size(self, n):
        xs = [(i * 37) % n for i in range(n)]
        assert reverse_query(reverse_query(xs)) == xs

    def test_subsequence_of_512(self):
        xs = list(range(512))
        assert subsequence_query(xs, 100, 400) == xs[100:400]

    def test_permute_by_a_coprime_stride(self):
        n = 256
        perm = [(i * 97) % n for i in range(n)]  # 97 is coprime with 256
        expected = [0] * n
        for i, target in enumerate(perm):
            expected[target] = i
        assert permute_query(list(range(n)), perm) == expected

    def test_inner_product_of_512(self):
        xs, ys = list(range(512)), list(range(512, 0, -1))
        assert inner_product_query(xs, ys) == sum(a * b for a, b in zip(xs, ys))

    def test_histogram_of_2000(self):
        data = [(i * 37) % 100 for i in range(2000)]
        assert histogram_query(data, buckets=10, width=10) == [200] * 10

    @pytest.mark.parametrize("n", [4, 8])
    def test_square_matmul_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        a, b = (rng.integers(0, 9, (n, n)).tolist() for _ in range(2))
        assert matmul_query(a, b) == (np.array(a) @ np.array(b)).tolist()

    def test_transpose_matches_numpy(self):
        a = np.random.default_rng(1).integers(0, 9, (12, 8)).tolist()
        assert transpose_query(a) == np.array(a).T.tolist()



class TestFFT:
    def test_impulse(self):
        out = fft_query([1, 0, 0, 0])
        assert all(abs(v - 1) < 1e-12 for v in out)

    def test_constant_signal(self):
        out = fft_query([1, 1, 1, 1])
        assert abs(out[0] - 4) < 1e-12
        assert all(abs(v) < 1e-12 for v in out[1:])

    def test_matches_numpy_various_sizes(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 4, 8, 16, 32):
            xs = rng.normal(size=n).tolist()
            mine = fft_query(xs)
            ref = np.fft.fft(xs)
            assert max(abs(m - r) for m, r in zip(mine, ref)) < 1e-9

    def test_complex_input(self):
        xs = [1 + 2j, -1j, 0.5, 2]
        mine = fft_query(xs)
        ref = np.fft.fft(xs)
        assert max(abs(m - r) for m, r in zip(mine, ref)) < 1e-9

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fft_query([1, 2, 3])

    def test_empty(self):
        assert fft_query([]) == []

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_fft_as_query(self, n):
        xs = np.random.default_rng(n).normal(size=n).tolist()
        mine, ref = fft_query(xs), np.fft.fft(xs)
        assert max(abs(m - r) for m, r in zip(mine, ref)) < 1e-8

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_one_comprehension_per_stage(self, n, monkeypatch):
        """The bit-reversal permutation, then one butterfly comprehension for
        each of the log2(n) stages."""
        evaluated = []
        evaluate_term = Evaluator.evaluate

        def counting(self, term, *args, **kwargs):
            evaluated.append(term)
            return evaluate_term(self, term, *args, **kwargs)

        monkeypatch.setattr(Evaluator, "evaluate", counting)
        fft_query(np.random.default_rng(n).normal(size=n).tolist())
        assert len(evaluated) == n.bit_length()

    def test_evaluations_grow_as_n_log_n(self, monkeypatch):
        """Experiment V1, counted: 4x the input multiplies the evaluator's
        term evaluations by about 5 (n log n: 512 * 10 / (128 * 8)), where
        quadratic work would multiply them by 16."""
        evaluations = []
        evaluate_term = Evaluator._eval

        def counting(self, term, env):
            evaluations.append(None)
            return evaluate_term(self, term, env)

        monkeypatch.setattr(Evaluator, "_eval", counting)
        counts = []
        for n in (128, 512):
            evaluations.clear()
            fft_query(np.random.default_rng(n).normal(size=n).tolist())
            counts.append(len(evaluations))
        assert 4 < counts[1] / counts[0] < 6, counts


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.integers(-10, 10), min_size=1, max_size=12))
def test_reverse_is_involution(xs):
    assert reverse_query(reverse_query(xs)) == xs


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.integers(-5, 5), min_size=1, max_size=8))
def test_inner_product_with_self_is_nonnegative(xs):
    assert inner_product_query(xs, xs) == sum(x * x for x in xs)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.permutations(list(range(n))).map(lambda p: (n, p))
    )
)
def test_permutation_is_invertible(case):
    n, p = case
    values = [f"v{i}" for i in range(n)]
    permuted = permute_query(values, p)
    inverse = [0] * n
    for i, target in enumerate(p):
        inverse[target] = i
    assert permute_query(permuted, inverse) == values
