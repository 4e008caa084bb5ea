"""Finite-difference verification of the analytic backward passes."""

import ctypes
import glob
import hashlib
import os

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

    # 1, 2, 4 and 7 words: the LSTM's row count shrinks at several steps, so
    # lstm_backward rebuilds each step's incoming h from rows of every size,
    # and both blocks rebuild their first norm's output and their heads
    def test_lstm_two_blocks_ragged_batch(self):
        texts = ["fish", "the cat", "a dog ran fast", "birds fly high over the deep sea"]
        vocab = build_vocabulary(texts)
        cfg = EncoderConfig(
            embed_dim=6, num_blocks=2, ffn_dim=8, pooling="lstm", lstm_hidden=5, max_len=16
        )
        model = init_model(cfg, vocab, SeededRng(4).substream("init"))
        # off the init, where every layer-norm bias is 0 and each gain 1
        model.params.flat += SeededRng(5).uniform(-0.2, 0.2, model.params.flat.size)
        pairs = [ParaphrasePair(texts[0], texts[3]), ParaphrasePair(texts[2], texts[1])]
        _, analytic = batch_loss_and_grads(pairs, model, 0.5)

        def loss_fn(m):
            a, b = encode([p.a for p in pairs], m), encode([p.b for p in pairs], m)
            return mnr_loss(similarity_matrix(a, b, 0.5)[0])

        fd = finite_difference_grad(loss_fn, model, 1e-5)
        assert all(np.any(g != 0.0) for g in analytic.values())
        assert max_relative_error(analytic, fd) < 1e-3


# 24 texts of 3-60 words plus "." (801 token rows, so two chunks), built
# from fixed word ids; the parameters are moved off the init so every
# layer-norm bias and gain is away from 0 and 1
PIN_LENGTHS = [10, 10, 49, 31, 37, 37, 44, 4, 31, 11, 26, 56, 34, 7, 34, 10,
               46, 58, 59, 39, 53, 24, 11, 32]


def _openblas_core():
    """The name of the OpenBLAS core type whose kernels numpy's BLAS runs
    (SkylakeX, Sandybridge, Haswell, ...), read from the library as
    perfbench/worker.py reads its thread count; None if none is found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in glob.glob(f"{site}/numpy.libs/*openblas*") + glob.glob(
        f"{site}/scipy_openblas*/lib/*openblas*.so*"
    ):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_char_p, []
                return fn().decode()
    return None


# sha256 of the loss and gradient bits per (pooling, num_blocks), one set per
# OpenBLAS core type: the kernels of each add in their own order. CI pins
# OPENBLAS_CORETYPE=Sandybridge, which every x86-64 runner can run.
PIN_DIGESTS = {
    "SkylakeX": {
        ("cls", 1): "1bca9b323bbf4d8efdbaa283b5ca51dc03a527f8e1a6813858af4253afbfe983",
        ("cls", 2): "40f60ab152e9e4d4eff24e149ad0f64b7096da8b6deb6d207ee2bc5faa654675",
        ("mean", 0): "15efbc58827e419d502993b9b68e7efa54353e7ca10adbefbdc55e738a327f05",
        ("mean", 1): "9a66ebc2ad05e2a778fe8f7dc5a6b6598612928a0abaf5f2f4955ee344b6c886",
        ("mean", 2): "d557a2da9fd2477d71533833a8ff02700f02af3526a2d073bdbe722bc1058dcc",
        ("max", 0): "40cb4729d046241e7694519d239b5b220272c5848007ea64aae05911786e5417",
        ("max", 1): "710df16d1181bb3a0dfc2326d5407a5ff30f5eb3657f008039c4243e5283e66e",
        ("max", 2): "48f1873ca70e43c096b4e5b7b984c8d9e5413eeea7181eb80d4296f2d1be836f",
        ("lstm", 0): "8fe492d73b1383e0a56fec7e0ba20051dbd5ccd31f58b04ec98bd025fae2b05b",
        ("lstm", 1): "f7f9713389f86c234f43639faefbf77b827511930ea9f6d563f596cbeee4adff",
        ("lstm", 2): "71debae39a1dd5d3f0a36af4075e921ac393564489c9f36ecb12714c3772e211",
    },
    "Sandybridge": {
        ("cls", 1): "bcc430847f0f57db75a362b8399164b6d320f0a4b2000e61723ae9fd6d4722f7",
        ("cls", 2): "e4fec1ff0a3ab7a47955e8168397e7b5b3d758268950201e0dce48c3ea2d6dc1",
        ("mean", 0): "0bdddf887b1e6ca71f8944806444b92c425176a3d456114762dd0190006d8ed8",
        ("mean", 1): "b231de4a6444e024e7d9b50daed444a38ed2af34e91823032660b63fa3e0a204",
        ("mean", 2): "e2877d2cf5d75b1033eb0df958c0df01366d759d6a138257dee1be92e73f8847",
        ("max", 0): "9f898aa8ef3578856969f22a176d409581bafabe146b5aeb99b85b2c546b78f7",
        ("max", 1): "e6a6d75af0d9b13cbbbc11b2261954160da24947f10d9a408ad144b968989abd",
        ("max", 2): "b1bd3c7de0cde80f1770c3d61d09b9d669eee434a65620d81c5759e1b4363524",
        ("lstm", 0): "607fd96fb429870387be223aef618ff9a4fafc3bc0506388a4bb4e5098ff0a21",
        ("lstm", 1): "606c601be7e8114015369926d6bba1ff8025bb5ad962168a92e196adc49a5917",
        ("lstm", 2): "5beb636fc9a81a764ef7fa0dabbf6d0c38335b537e4057606582d3cfcfaa8930",
    },
}


class TestGradientPins:
    """The loss and gradient bits of one batch_loss_and_grads call, pinned by
    sha256 so a change to what the tape keeps or backward rebuilds cannot move
    a bit unnoticed. The bits depend on the BLAS: the digests were taken with
    numpy 2.4.6's OpenBLAS 0.3.31 at one thread, as CI runs it, under each
    core type of PIN_DIGESTS. On any other core type the test fails."""

    # each id names the case and its SkylakeX digest
    @pytest.mark.parametrize("pooling, num_blocks", list(PIN_DIGESTS["SkylakeX"]),
                             ids=[f"{p}-{b}-{d}" for (p, b), d in PIN_DIGESTS["SkylakeX"].items()])
    def test_loss_and_gradient_bits(self, pooling, num_blocks):
        core = _openblas_core()
        assert core in PIN_DIGESTS, f"no gradient pins for the OpenBLAS core type {core!r}"
        texts = [" ".join(f"w{(5 * i + 3 * j) % 90}" for j in range(n)) + "."
                 for i, n in enumerate(PIN_LENGTHS)]
        pairs = [ParaphrasePair(texts[2 * i], texts[2 * i + 1]) for i in range(12)]
        cfg = EncoderConfig(embed_dim=16, num_blocks=num_blocks, ffn_dim=24, pooling=pooling,
                            lstm_hidden=12, max_len=64)
        model = init_model(cfg, build_vocabulary(texts), SeededRng(3).substream("init"))
        model.params.flat += SeededRng(4).uniform(-0.1, 0.1, model.params.flat.size)
        loss, grads = batch_loss_and_grads(pairs, model, 0.5)
        bits = np.float64(loss).tobytes() + grads.flat.tobytes()
        assert hashlib.sha256(bits).hexdigest() == PIN_DIGESTS[core][pooling, num_blocks]
