import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from sentenc.numeric import NumericError, SeededRng, cosine_similarity, logsumexp, unit_rows

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


def reference_cosine(x, y) -> float:
    """cosine_similarity's former one-pair body: `u[0] @ u[1]` of the unit rows."""
    u, _ = unit_rows(np.array([x, y], dtype=np.float64))
    cos = float(u[0] @ u[1])
    return math.copysign(1.0, cos) if abs(cos) > 1.0 else cos


# row scales that send a row of finite_floats down unit_rows' scaled path:
# a subnormal square norm, an underflowing one, an overflowing one
ROW_SCALES = [1.0, 1.0, 1e-160, 1e-310, 1e200]


@st.composite
def row_blocks(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    block = st.lists(st.lists(finite_floats, min_size=d, max_size=d), min_size=n, max_size=n)
    scales = st.lists(st.sampled_from(ROW_SCALES), min_size=n, max_size=n)
    x, y = draw(block), draw(block)
    with np.errstate(under="ignore"):
        x = np.array(x) * np.array(draw(scales))[:, None]
        y = np.array(y) * np.array(draw(scales))[:, None]
    assume(x.any(axis=1).all() and y.any(axis=1).all())
    return x, y


class TestCosineRowBlocks:
    @given(row_blocks())
    @example(blocks=(np.array([[3e-160, 4e-160], [1.0, 2.0]]), np.array([[1.0, 1.0], [3e200, -4e200]])))
    def test_rows_bit_equal_one_pair_calls(self, blocks):
        x, y = blocks
        with np.errstate(over="ignore"):
            cos = cosine_similarity(x, y)
            for i in range(len(x)):
                one = cosine_similarity(x[i], y[i])
                assert isinstance(one, float)
                assert np.array_equal(cos[i], one)
                assert np.array_equal(one, reference_cosine(x[i], y[i]))
        assert cos.shape == (len(x),)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[1.0, 2.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [0.0, -0.0]]),
            ([[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]),
            ([[1.0, 2.0]], [[1.0, 2.0, 3.0]]),
            ([[1.0, 2.0]], [1.0, 2.0]),
            ([[[1.0, 2.0]]], [[[1.0, 2.0]]]),
            (1.0, 1.0),
        ],
    )
    def test_zero_row_or_shape_mismatch_is_error(self, x, y):
        with pytest.raises(NumericError):
            cosine_similarity(np.array(x), np.array(y))


# rows of 1-8 finite entries whose square norm is a normal float
ordinary_rows = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.lists(finite_floats, min_size=d, max_size=d), min_size=1, max_size=6)
).filter(lambda rows: all(np.linalg.norm(r) >= 1.5e-154 for r in rows))


class TestUnitRows:
    @given(ordinary_rows)
    def test_ordinary_rows_match_plain_division(self, rows):
        x = np.array(rows)
        unit, norms = unit_rows(x)
        reference = np.linalg.norm(x, axis=1)
        assert np.array_equal(norms, reference)
        assert np.array_equal(unit, x / reference[:, None])

    @pytest.mark.parametrize(
        "row, norm",
        [
            ([3e-160, 4e-160], 5e-160),  # square norm subnormal
            ([5e-324, 0.0], 5e-324),  # square norm underflows to 0
            ([3e200, -4e200], 5e200),  # square norm overflows
            ([1.5e308, 1.5e308], math.inf),  # so does the norm itself
        ],
    )
    def test_odd_rows_come_out_unit_with_true_norm(self, row, norm):
        x = np.array([[1.0, 2.0], row])
        unit, norms = unit_rows(x)
        assert np.array_equal(unit[0], x[0] / np.linalg.norm(x[0]))
        assert norms[1] == pytest.approx(norm, rel=1e-15)
        if math.isfinite(norm):
            assert unit[1] == pytest.approx(np.array(row) / norm, rel=1e-15)
        assert np.linalg.norm(unit, axis=1) == pytest.approx([1.0, 1.0], rel=1e-15)

    @pytest.mark.parametrize("x", [[[0.0, 0.0]], [[1.0, 2.0], [0.0, -0.0]], [[1e-170, 0.0], [0.0, 0.0]]])
    def test_zero_row_is_error(self, x):
        with pytest.raises(NumericError):
            unit_rows(np.array(x))

    @pytest.mark.parametrize("x", [[[3.0, 4.0], [1.0, 1.0]], [[3.0, 4.0], [1e-170, 2e-170]]])
    def test_input_is_not_written(self, x):
        x = np.array(x)
        before = x.copy()
        unit, _ = unit_rows(x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(unit, x)


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
