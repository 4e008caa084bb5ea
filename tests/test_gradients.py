"""Finite-difference verification of the analytic backward passes."""

import numpy as np
import pytest

from fd_oracle import finite_difference_grad

from sentenc import encoder
from sentenc.corpus import ParaphrasePair
from sentenc.encoder import (
    EncoderConfig,
    _backward,
    _forward,
    build_vocabulary,
    encode,
    init_model,
    tokenize,
)
from sentenc.numeric import SeededRng
from sentenc.training import batch_loss_and_grads, mnr_loss, similarity_matrix

TEXTS = ["the cat sat", "a dog ran fast", "birds fly high", "fish swim deep"]


def token_ids(texts, model):
    return [tokenize(t, model.vocab, model.config.max_len) for t in texts]


def tiny_model(pooling, seed=3):
    vocab = build_vocabulary(TEXTS)
    cfg = EncoderConfig(
        embed_dim=8, num_blocks=1, ffn_dim=16, pooling=pooling, lstm_hidden=16, max_len=16
    )
    return init_model(cfg, vocab, SeededRng(seed).substream("init"))


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        mask = (np.abs(a) + np.abs(n)) >= floor
        if mask.any():
            rel = np.abs(a - n)[mask] / (np.abs(a) + np.abs(n))[mask]
            worst = max(worst, float(rel.max()))
    return worst


class TestFiniteDifferenceOracle:
    def test_quadratic_loss_gradient_is_identity(self):
        model = tiny_model("mean")

        def loss_fn(m):
            return 0.5 * sum(float((t**2).sum()) for t in m.params.values())

        fd = finite_difference_grad(loss_fn, model, 1e-5)
        for name, tensor in model.params.items():
            assert np.allclose(fd[name], tensor, atol=1e-8)

    def test_halving_eps_shrinks_error_quadratically(self):
        model = tiny_model("mean")

        def loss_fn(m):
            # cubic term so central differences have a nonzero O(eps^2) error
            return float(np.sum(m.params["embed"] ** 3))

        exact = 3.0 * model.params["embed"] ** 2
        err = []
        for eps in (1e-2, 5e-3):
            fd = finite_difference_grad(loss_fn, model, eps)
            err.append(float(np.abs(fd["embed"] - exact).max()))
        ratio = err[0] / err[1]
        assert 3.0 < ratio < 5.0  # ~4 for a second-order method


class TestModelBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model("lstm")
        grads = model.params.zeros_like()
        _, cache = _forward(token_ids(TEXTS[:2], model), model)
        _backward(np.zeros((2, 16)), cache, model, grads)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_dimension_mismatch(self):
        model = tiny_model("mean")
        from sentenc.encoder import EncoderError

        _, cache = _forward(token_ids([TEXTS[0]], model), model)
        with pytest.raises(EncoderError):
            _backward(np.zeros((1, 5)), cache, model, model.params.zeros_like())

    def test_embedding_gradient_matches_finite_differences(self):
        model = tiny_model("mean", seed=9)
        upstream = SeededRng(1).uniform(-1, 1, 8)
        grads = model.params.zeros_like()
        _, cache = _forward(token_ids([TEXTS[0]], model), model)
        _backward(upstream[None], cache, model, grads)

        def loss_fn(m):
            return float(np.dot(upstream, encode([TEXTS[0]], m)[0]))

        fd = finite_difference_grad(loss_fn, model, 1e-5)
        assert max_relative_error(grads, fd) < 1e-4

    def test_unused_pooling_parameters_get_exact_zero(self):
        model = tiny_model("mean")
        _, grads = batch_loss_and_grads(
            [ParaphrasePair(TEXTS[0], TEXTS[1])], model, 1.0
        )
        # mean pooling makes no LSTM tensors, so no gradient is spent on them
        assert set(grads) == set(model.params)
        assert not any(name.startswith("lstm.") for name in grads)


class TestFullLossGradient:
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_tied_weight_batch_gradient(self, pooling):
        model = tiny_model(pooling)
        pairs = [ParaphrasePair(TEXTS[i], TEXTS[(i + 1) % 4]) for i in range(2)]
        _, analytic = batch_loss_and_grads(pairs, model, 1.0)

        def loss_fn(m):
            a, b = encode([p.a for p in pairs], m), encode([p.b for p in pairs], m)
            return mnr_loss(similarity_matrix(a, b, 1.0)[0])

        fd = finite_difference_grad(loss_fn, model, 1e-5)
        assert max_relative_error(analytic, fd) < 1e-3

    # "" is <cls> alone and the other three texts are 4 tokens long: at the
    # default CHUNK_TOKENS they make one chunk whose 4-token run attends as
    # one (3, 4, d) view; at 1 every sentence is a chunk, so "" runs as two
    # copies of its row (the 2-row floor)
    @pytest.mark.parametrize("chunk_tokens", [encoder.CHUNK_TOKENS, 1])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_lone_token_and_equal_length_run(self, pooling, chunk_tokens, monkeypatch):
        monkeypatch.setattr(encoder, "CHUNK_TOKENS", chunk_tokens)
        model = tiny_model(pooling)
        pairs = [ParaphrasePair("", TEXTS[0]), ParaphrasePair(TEXTS[2], TEXTS[3])]
        texts = [p.a for p in pairs] + [p.b for p in pairs]
        tape = []
        encode(texts, model, tape)
        [(_, (chunks, _))] = tape
        runs = [[(bsz, n) for _, bsz, n in runs] for _, runs, _ in chunks]
        if chunk_tokens == 1:
            assert runs == [[(1, 1)], [(1, 4)], [(1, 4)], [(1, 4)]]
            assert len(chunks[0][0]) == 2
        else:
            assert runs == [[(1, 1), (3, 4)]]
        _, analytic = batch_loss_and_grads(pairs, model, 1.0)

        def loss_fn(m):
            emb = encode(texts, m)
            return mnr_loss(similarity_matrix(emb[:2], emb[2:], 1.0)[0])

        fd = finite_difference_grad(loss_fn, model, 1e-5)
        assert max_relative_error(analytic, fd) < 1e-3
