import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sentenc.numeric import NumericError, SeededRng, cosine_similarity, logsumexp

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vectors(min_size=1, max_size=16):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([3, 4], [3, 4]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_45_degrees(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(NumericError):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_norm_is_error(self):
        with pytest.raises(NumericError):
            cosine_similarity([0, 0], [1, 0])

    @given(vectors(2, 8), vectors(2, 8))
    def test_symmetry(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if np.linalg.norm(x) == 0 or np.linalg.norm(y) == 0:
            return
        assert cosine_similarity(x, y) == pytest.approx(
            cosine_similarity(y, x), abs=1e-12
        )

    @given(vectors(2, 8), st.floats(min_value=1e-3, max_value=1e3))
    @example(x=[0, 1.6726e-157], alpha=0.125)  # norm of alpha * x is subnormal
    def test_scale_invariance(self, x, alpha):
        if np.linalg.norm(x) == 0:
            return
        y = [v + 1.0 for v in x]
        if np.linalg.norm(y) == 0:
            return
        scaled = [alpha * v for v in x]
        if np.linalg.norm(scaled) == 0:
            return
        assert cosine_similarity(scaled, y) == pytest.approx(
            cosine_similarity(x, y), abs=1e-9
        )

    @given(vectors(2, 8), vectors(2, 8))
    @example(x=[1, 0], y=[1.0569e-157, 0])  # norm of y is subnormal
    def test_bounded(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if np.linalg.norm(x) == 0 or np.linalg.norm(y) == 0:
            return
        assert abs(cosine_similarity(x, y)) <= 1.0 + 1e-12


class TestLogSumExp:
    def test_single_zero(self):
        assert logsumexp([0.0]) == 0.0

    def test_two_equal(self):
        assert logsumexp([3.5, 3.5]) == pytest.approx(3.5 + math.log(2), abs=1e-12)

    def test_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2), abs=1e-9
        )

    def test_empty_is_error(self):
        with pytest.raises(NumericError):
            logsumexp([])

    @given(vectors(1, 12), st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, v, c):
        shifted = [x + c for x in v]
        assert logsumexp(shifted) == pytest.approx(logsumexp(v) + c, abs=1e-9)


class TestSeededRng:
    def test_shuffle_deterministic(self):
        items = list(range(50))
        assert SeededRng(7).shuffle(items) == SeededRng(7).shuffle(items)

    def test_shuffle_empty(self):
        assert SeededRng(0).shuffle([]) == []

    @given(st.lists(st.integers(), max_size=50), st.integers(0, 2**32))
    def test_shuffle_is_permutation(self, items, seed):
        assert sorted(SeededRng(seed).shuffle(items)) == sorted(items)

    def test_shuffle_does_not_mutate_input(self):
        items = [3, 1, 2]
        SeededRng(1).shuffle(items)
        assert items == [3, 1, 2]

    def test_substreams_independent_of_consumption(self):
        a = SeededRng(42)
        a.shuffle(range(100))
        b = SeededRng(42)
        assert a.substream("x").shuffle(range(10)) == b.substream("x").shuffle(range(10))

    def test_distinct_substreams_differ(self):
        r = SeededRng(42)
        assert r.substream("mining").seed != r.substream("training").seed
