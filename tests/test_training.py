import logging
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentenc.corpus import ParaphrasePair
from sentenc import training
from sentenc.encoder import EncoderConfig, ParamSet, build_vocabulary, init_model
from sentenc.errors import ConfigError
from sentenc.numeric import SeededRng
from sentenc.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAMW_BLOCK,
    DivergenceError,
    OptimizerState,
    TrainConfig,
    _dedupe_positives,
    adamw_step,
    batch_loss_and_grads,
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
        params = ParamSet({"w": (4,)})
        params["w"][...] = value
        return params, OptimizerState(params)

    @staticmethod
    def _grads(values):
        grads = ParamSet({"w": (4,)})
        grads["w"][...] = values
        return grads

    def test_zero_grad_zero_decay_leaves_params(self):
        params, state = self._setup()
        adamw_step(params, self._grads(0.0), state, 0.1, weight_decay=0.0)
        assert params["w"].tolist() == [1.0] * 4

    def test_first_step_is_signed_lr(self):
        params, state = self._setup()
        g = np.array([0.5, -2.0, 1e-3, 3.0])
        adamw_step(params, self._grads(g), state, 0.01, weight_decay=0.0)
        expected = 1.0 - 0.01 * np.sign(g)
        assert np.allclose(params["w"], expected, atol=1e-4)

    def test_pure_decay(self):
        params, state = self._setup()
        adamw_step(params, self._grads(0.0), state, 0.1, weight_decay=0.5)
        assert np.allclose(params["w"], 1.0 - 0.1 * 0.5, atol=1e-15)

    def test_nonfinite_gradient_aborts(self):
        params, state = self._setup()
        with pytest.raises(DivergenceError):
            adamw_step(
                params, self._grads([1.0, np.nan, 0, 0]), state, 0.1, weight_decay=0.01
            )


def reference_adamw_step(params, grads, m, v, t, lr, weight_decay):
    """The allocating per-tensor AdamW formula that adamw_step computes in
    place over the flat vectors."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1**t)
        v_hat = v[name] / (1.0 - b2**t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)


class TestAdamWInPlace:
    SHAPES = {"embed": (30, 8), "w": (8, 5), "b": (5,), "scalar": (1,)}

    @classmethod
    def _params(cls):
        rng = SeededRng(4)
        params = ParamSet(cls.SHAPES)
        for view in params.values():
            view[...] = rng.uniform(-1, 1, view.shape)
        return params

    def _run_against_reference(self):
        params = self._params()
        ref = {k: p.copy() for k, p in params.items()}
        state = OptimizerState(params)
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        rng = SeededRng(5)
        grads = params.zeros_like()
        for t in range(1, 21):
            for view in grads.values():
                view[...] = rng.uniform(-2, 2, view.shape)
            grads["b"][t % 5] = 0.0
            lr = 1e-2 * t / 20
            adamw_step(params, grads, state, lr, weight_decay=0.05)
            reference_adamw_step(ref, grads, m, v, t, lr, 0.05)
        for name in params:
            assert np.array_equal(params[name], ref[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])
        return state

    def test_bit_identical_to_allocating_formula(self):
        self._run_against_reference()

    def test_blocks_that_cut_through_tensors_stay_bit_identical(self, monkeypatch):
        # 7 divides none of the tensor boundaries (240, 280, 285, 286)
        monkeypatch.setattr(training, "ADAMW_BLOCK", 7)
        state = self._run_against_reference()
        assert state.scratch[0].size == state.scratch[1].size == 7

    def test_scratch_is_reused(self):
        params = self._params()
        state = OptimizerState(params)
        s1, s2 = state.scratch
        assert s1.size == s2.size == min(params.flat.size, ADAMW_BLOCK)
        grads = params.zeros_like()
        grads.flat[:] = 1.0
        adamw_step(params, grads, state, 0.1, weight_decay=0.01)
        adamw_step(params, grads, state, 0.1, weight_decay=0.01)
        assert state.scratch[0] is s1 and state.scratch[1] is s2


def reference_dedupe_positives(batches):
    """The earlier candidate-by-candidate search that _dedupe_positives
    replaces. Returns the number of duplicates it kept."""
    kept = 0
    for bi, batch in enumerate(batches):
        seen = set()
        for pi, pair in enumerate(batch):
            if pair.b not in seen:
                seen.add(pair.b)
                continue
            swapped = False
            for bj in [*range(bi + 1, len(batches)), *range(bi)]:
                other = batches[bj]
                other_texts = {p.b for p in other}
                for pj, cand in enumerate(other):
                    if cand.b in seen:
                        continue
                    if pair.b in other_texts - {cand.b}:
                        continue
                    batch[pi], other[pj] = cand, pair
                    seen.add(cand.b)
                    swapped = True
                    break
                if swapped:
                    break
            if not swapped:
                kept += 1
    return kept


class TestDedupePositives:
    def test_matches_reference_search(self, caplog):
        P = ParaphrasePair
        total_kept = total_moved = 0
        for seed in range(300):
            rng = SeededRng(seed)
            # few distinct positives, so some duplicates have nowhere to go
            n_texts, n_pairs, k = rng.integers(1, 8), rng.integers(2, 40), rng.integers(2, 9)
            pairs = [P(f"a{i}", f"b{rng.integers(0, n_texts)}") for i in range(n_pairs)]
            batches = [pairs[i : i + k] for i in range(0, n_pairs, k)]
            expected = [list(batch) for batch in batches]
            kept = reference_dedupe_positives(expected)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sentenc.training"):
                _dedupe_positives(batches)
            assert batches == expected, seed
            warnings = [r for r in caplog.records if "duplicate positive" in r.getMessage()]
            assert len(warnings) == kept, seed
            total_kept += kept
            total_moved += sum(p != q for p, q in zip(sum(batches, []), pairs))
        assert total_kept > 0 and total_moved > 0  # both branches were taken

    def test_swaps_duplicate_into_later_batch(self):
        P = ParaphrasePair
        batches = [[P("a0", "x"), P("a1", "x")], [P("a2", "y"), P("a3", "z")]]
        before = Counter(p for batch in batches for p in batch)
        _dedupe_positives(batches)
        assert batches == [[P("a0", "x"), P("a2", "y")], [P("a1", "x"), P("a3", "z")]]
        assert Counter(p for batch in batches for p in batch) == before

    def test_unswappable_duplicate_stays_with_one_warning(self, caplog):
        P = ParaphrasePair
        # the only candidate, "y", would bring back a second "x" into batch 1
        batches = [[P("a0", "x"), P("a1", "x")], [P("a2", "x"), P("a3", "y")]]
        expected = [list(batch) for batch in batches]
        with caplog.at_level(logging.WARNING, logger="sentenc.training"):
            _dedupe_positives(batches)
        assert batches == expected
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "duplicate positive" in warnings[0].getMessage()


    def test_last_batch_duplicate_moves_to_earlier_batch(self):
        P = ParaphrasePair
        batches = [[P("a0", "y"), P("a1", "z")], [P("a2", "x"), P("a3", "x")]]
        before = Counter(p for batch in batches for p in batch)
        _dedupe_positives(batches)
        assert batches == [[P("a3", "x"), P("a1", "z")], [P("a2", "x"), P("a0", "y")]]
        assert Counter(p for batch in batches for p in batch) == before


def reference_lr_schedule(step, total_steps, peak, warmup_ratio):
    """lr_schedule as it was with its `total_steps == warmup` branch, which
    the warmup branch always returns before."""
    warmup = math.ceil(warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    if total_steps == warmup:
        return peak if step == warmup else 0.0
    return peak * (total_steps - step) / (total_steps - warmup)


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

    def test_equals_reference_with_full_warmup_branch(self):
        full_warmup = 0
        for total in range(1, 41):
            for ratio in (0.0, 0.05, 0.1, 0.5, 0.99, 1.0):
                full_warmup += math.ceil(ratio * total) == total
                for step in range(total + 1):
                    assert lr_schedule(step, total, 0.3, ratio) == reference_lr_schedule(
                        step, total, 0.3, ratio
                    )
        assert full_warmup > 0  # the removed branch's condition does occur


class TestMakeBatches:
    @staticmethod
    def _pairs(n):
        return [ParaphrasePair(f"anchor {i}", f"positive {i}") for i in range(n)]

    def test_chunking_130_by_64(self):
        batches = make_batches(self._pairs(130), 64, SeededRng(1))
        assert [len(b) for b in batches] == [64, 64, 2]

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError, match="1 training pairs"):
            make_batches(self._pairs(1), 64, SeededRng(1))

    def test_trailing_singleton_dropped_at_any_size(self):
        for n, k in ((3, 2), (5, 4), (9, 8)):
            batches = make_batches(self._pairs(n), k, SeededRng(1))
            assert [len(b) for b in batches] == [k] * (n // k)

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

    def test_each_epoch_builds_its_batches_when_it_starts(self, monkeypatch):
        pairs, model = self._setup()
        events = []

        def spy_batches(pairs, k, rng):
            batches = make_batches(pairs, k, rng)
            events.append(("batches", len(batches)))
            return batches

        def spy_step(batch, model, temperature):
            events.append("step")
            return batch_loss_and_grads(batch, model, temperature)

        monkeypatch.setattr(training, "make_batches", spy_batches)
        monkeypatch.setattr(training, "batch_loss_and_grads", spy_step)
        cfg = TrainConfig(epochs=3, batch_size=5, warmup_ratio=0.3)
        history = train(pairs, model, cfg, seed=5)
        # 12 pairs in batches of 5: the 2-pair tail is kept, so 3 per epoch
        n = 3
        assert events == [("batches", n), *["step"] * n] * 3
        assert [(h.step, h.epoch) for h in history] == [(s, (s - 1) // n) for s in range(1, 10)]
        # the schedule still spans every epoch's steps
        assert [h.lr for h in history] == [
            lr_schedule(s, 3 * n, cfg.peak_lr, cfg.warmup_ratio) for s in range(1, 10)
        ]

    @pytest.mark.parametrize("n_pairs, batch_size, per_epoch", [(12, 5, 3), (11, 5, 2), (10, 5, 2)])
    def test_step_ceiling_counts_the_batches_make_batches_cuts(
        self, monkeypatch, n_pairs, batch_size, per_epoch
    ):
        pairs, model = self._setup(n_pairs)
        cfg = TrainConfig(epochs=3, batch_size=batch_size)
        assert len(make_batches(pairs, batch_size, SeededRng(0))) == per_epoch
        monkeypatch.setattr(training, "STEP_CEILING", 3 * per_epoch)
        assert len(train(pairs, model, cfg, seed=2)) == 3 * per_epoch
        monkeypatch.setattr(training, "STEP_CEILING", 3 * per_epoch - 1)
        monkeypatch.setattr(training, "make_batches", None)  # refused before any batch
        with pytest.raises(ConfigError, match=f"training.epochs 3 of {per_epoch} batches make "
                                              f"{3 * per_epoch} steps, over the ceiling"):
            train(pairs, model, cfg, seed=2)

    def test_loss_decreases_on_separable_data(self):
        pairs, model = self._setup()
        history = train(pairs, model, TrainConfig(epochs=4, batch_size=4), seed=1)
        first = np.mean([h.loss for h in history if h.epoch == 0])
        last = np.mean([h.loss for h in history if h.epoch == 3])
        assert last < first


def _tape_peak(num_blocks: int) -> int:
    """Traced peak of a second batch_loss_and_grads call on 16 pairs of 3-60
    words through lstm pooling (d=64, h=128, ffn=128)."""
    rng = SeededRng(0)
    lengths = [rng.integers(3, 61) for _ in range(32)]
    texts = [" ".join(f"word{(7 * i + j) % 500}" for j in range(n)) + "."
             for i, n in enumerate(lengths)]
    pairs = [ParaphrasePair(texts[2 * i], texts[2 * i + 1]) for i in range(16)]
    cfg = EncoderConfig(
        embed_dim=64, num_blocks=num_blocks, ffn_dim=128, pooling="lstm", lstm_hidden=128,
        max_len=64,
    )
    model = init_model(cfg, build_vocabulary(texts), SeededRng(7).substream("init"))
    batch_loss_and_grads(pairs, model, 0.05)  # the first call imports and warms up
    tracemalloc.start()
    try:
        batch_loss_and_grads(pairs, model, 0.05)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchTape:
    def test_one_batch_peak_holds_no_rebuildable_activation(self):
        """The attention caches keep x, the attention weights and the layer
        norms' caches, and the LSTM cache keeps no incoming h, since backward
        rebuilds the rest bit-exactly; lstm_backward makes no weight-sized
        array beside the recurrent weights' spent copy. At one block the call
        peaks at 10.7 MB; keeping q, k, v and the ReLU output, with the
        weight-sized temporaries, took it to 14.1 MB."""
        assert _tape_peak(1) < 12e6

    def test_two_block_peak(self):
        """Each block adds 2.4 MB to the peak: 13.1 MB at two blocks, against
        19.4 MB when each block's cache also held q, k, v and the ReLU output."""
        assert _tape_peak(2) < 14.5e6
