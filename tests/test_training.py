import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentenc.corpus import ParaphrasePair
from sentenc.encoder import EncoderConfig, build_vocabulary, init_model
from sentenc.numeric import SeededRng
from sentenc.training import (
    DivergenceError,
    OptimizerState,
    TrainConfig,
    adamw_step,
    lr_schedule,
    make_batches,
    mnr_loss,
    mnr_loss_grad,
    similarity_matrix,
    train,
)


def random_matrix(k, seed):
    return SeededRng(seed).uniform(-3, 3, (k, k))


class TestSimilarityMatrix:
    def test_k1(self):
        s, _ = similarity_matrix(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(1 / math.sqrt(2))

    def test_identical_sides_give_unit_diagonal(self):
        a = SeededRng(1).uniform(-1, 1, (4, 8))
        s, _ = similarity_matrix(a, a.copy())
        assert np.allclose(np.diag(s), 1.0, atol=1e-12)

    def test_entrywise_against_cosine_oracle(self):
        from sentenc.numeric import cosine_similarity

        a = SeededRng(2).uniform(-1, 1, (3, 5))
        b = SeededRng(3).uniform(-1, 1, (3, 5))
        s, _ = similarity_matrix(a, b, temperature=0.5)
        for i in range(3):
            for j in range(3):
                assert s[i, j] == pytest.approx(
                    cosine_similarity(a[i], b[j]) / 0.5, abs=1e-12
                )

    def test_zero_norm_embedding(self):
        with pytest.raises(DivergenceError):
            similarity_matrix(np.zeros((1, 3)), np.ones((1, 3)))


class TestMnrLoss:
    def test_k1_is_exactly_zero(self):
        assert mnr_loss(np.array([[0.37]])) == 0.0

    @pytest.mark.parametrize("k", [2, 4, 8, 64])
    def test_constant_matrix_gives_ln_k(self, k):
        s = np.full((k, k), 0.83)
        assert mnr_loss(s) == pytest.approx(math.log(k), abs=1e-12)

    def test_identity_2x2(self):
        # direct evaluation: ln(1 + e^{-1})
        assert mnr_loss(np.eye(2)) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_nonnegative(self, k, seed):
        assert mnr_loss(random_matrix(k, seed)) >= 0.0

    def test_joint_permutation_invariance(self):
        s = random_matrix(5, 11)
        perm = SeededRng(12).shuffle(range(5))
        sp = s[np.ix_(perm, perm)]
        assert mnr_loss(sp) == pytest.approx(mnr_loss(s), abs=1e-12)


class TestMnrLossGrad:
    def test_k1_is_zero(self):
        assert mnr_loss_grad(np.array([[2.3]])).tolist() == [[0.0]]

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_rows_sum_to_zero(self, k, seed):
        g = mnr_loss_grad(random_matrix(k, seed))
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        s = random_matrix(4, 21)
        analytic = mnr_loss_grad(s)
        eps = 1e-6
        for i in range(4):
            for j in range(4):
                up, down = s.copy(), s.copy()
                up[i, j] += eps
                down[i, j] -= eps
                numeric = (mnr_loss(up) - mnr_loss(down)) / (2 * eps)
                assert analytic[i, j] == pytest.approx(numeric, abs=1e-6)


class TestAdamW:
    @staticmethod
    def _setup(value=1.0):
        params = {"w": np.full(4, value)}
        state = OptimizerState(
            m={"w": np.zeros(4)}, v={"w": np.zeros(4)}
        )
        return params, state

    def test_zero_grad_zero_decay_leaves_params(self):
        params, state = self._setup()
        adamw_step(params, {"w": np.zeros(4)}, state, 0.1, weight_decay=0.0)
        assert params["w"].tolist() == [1.0] * 4

    def test_first_step_is_signed_lr(self):
        params, state = self._setup()
        g = np.array([0.5, -2.0, 1e-3, 3.0])
        adamw_step(params, {"w": g}, state, 0.01, weight_decay=0.0)
        expected = 1.0 - 0.01 * np.sign(g)
        assert np.allclose(params["w"], expected, atol=1e-4)

    def test_pure_decay(self):
        params, state = self._setup()
        adamw_step(params, {"w": np.zeros(4)}, state, 0.1, weight_decay=0.5)
        assert np.allclose(params["w"], 1.0 - 0.1 * 0.5, atol=1e-15)

    def test_nonfinite_gradient_aborts(self):
        params, state = self._setup()
        with pytest.raises(DivergenceError):
            adamw_step(
                params, {"w": np.array([1.0, np.nan, 0, 0])}, state, 0.1, weight_decay=0.01
            )


class TestLrSchedule:
    def test_peak_at_warmup_end(self):
        total, ratio = 100, 0.10
        warmup = math.ceil(ratio * total)
        assert lr_schedule(warmup, total, 2e-6, ratio) == 2e-6

    def test_zero_at_start(self):
        assert lr_schedule(0, 100, 1.0, 0.1) == 0.0

    def test_zero_at_end(self):
        assert lr_schedule(100, 100, 1.0, 0.1) == 0.0

    def test_piecewise_linear_and_peak_is_max(self):
        total, peak, ratio = 57, 0.3, 0.1
        values = [lr_schedule(s, total, peak, ratio) for s in range(total + 1)]
        assert max(values) == peak
        warmup = math.ceil(ratio * total)
        for s in range(1, warmup):
            assert values[s] - values[s - 1] == pytest.approx(peak / warmup)
        for s in range(warmup + 1, total + 1):
            assert values[s] - values[s - 1] == pytest.approx(-peak / (total - warmup))

    def test_no_warmup(self):
        assert lr_schedule(0, 10, 1.0, 0.0) == 1.0
        assert lr_schedule(10, 10, 1.0, 0.0) == 0.0


class TestMakeBatches:
    @staticmethod
    def _pairs(n):
        return [ParaphrasePair(f"anchor {i}", f"positive {i}") for i in range(n)]

    def test_chunking_130_by_64(self):
        batches = make_batches(self._pairs(130), 64, SeededRng(1))
        assert [len(b) for b in batches] == [64, 64, 2]

    def test_single_pair_retained(self):
        batches = make_batches(self._pairs(1), 64, SeededRng(1))
        assert [len(b) for b in batches] == [1]

    def test_drops_trailing_singleton(self):
        batches = make_batches(self._pairs(65), 64, SeededRng(1))
        assert [len(b) for b in batches] == [64]

    def test_deterministic(self):
        pairs = self._pairs(100)
        assert make_batches(pairs, 16, SeededRng(5)) == make_batches(
            pairs, 16, SeededRng(5)
        )

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            make_batches([], 4, SeededRng(0))

    def test_duplicate_positives_resampled(self):
        pairs = [ParaphrasePair(f"a{i}", "same positive") for i in range(4)]
        pairs += [ParaphrasePair(f"b{i}", f"distinct {i}") for i in range(4)]
        batches = make_batches(pairs, 4, SeededRng(3))
        for batch in batches:
            positives = [p.b for p in batch]
            # 4 copies of one text over 2 batches: best effort leaves <= 2 per batch
            assert positives.count("same positive") <= 2


class TestTrain:
    @staticmethod
    def _setup(n_pairs=12):
        texts_a = [f"left sentence {i} alpha" for i in range(n_pairs)]
        texts_b = [f"right sentence {i} beta" for i in range(n_pairs)]
        pairs = [ParaphrasePair(a, b) for a, b in zip(texts_a, texts_b)]
        vocab = build_vocabulary(texts_a + texts_b)
        cfg = EncoderConfig(
            embed_dim=8, num_blocks=1, ffn_dim=16, pooling="lstm", lstm_hidden=16, max_len=16
        )
        model = init_model(cfg, vocab, SeededRng(7).substream("init"))
        return pairs, model

    def test_zero_epochs_is_noop(self):
        pairs, model = self._setup()
        before = {k: v.copy() for k, v in model.params.items()}
        history = train(pairs, model, TrainConfig(epochs=0, batch_size=4), seed=0)
        assert history == []
        for name in before:
            assert np.array_equal(model.params[name], before[name])

    def test_history_length_and_determinism(self):
        pairs, model_a = self._setup()
        _, model_b = self._setup()
        cfg = TrainConfig(epochs=2, batch_size=4)
        hist_a = train(pairs, model_a, cfg, seed=13)
        hist_b = train(pairs, model_b, cfg, seed=13)
        assert len(hist_a) == 2 * len(make_batches(pairs, 4, SeededRng(0)))
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name])

    def test_loss_decreases_on_separable_data(self):
        pairs, model = self._setup()
        history = train(pairs, model, TrainConfig(epochs=4, batch_size=4), seed=1)
        first = np.mean([h.loss for h in history if h.epoch == 0])
        last = np.mean([h.loss for h in history if h.epoch == 3])
        assert last < first
