import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentenc.encoder import (
    CHUNK_SIZE,
    CLS_ID,
    EncoderConfig,
    EncoderError,
    LAYER_NORM_EPS,
    Vocabulary,
    _backward,
    _forward,
    _glorot,
    attention_block_forward,
    build_vocabulary,
    encode,
    init_model,
    layer_norm_forward,
    load_model,
    lstm_backward,
    lstm_forward,
    pool,
    save_model,
    tokenize,
)
from sentenc.numeric import SeededRng


@pytest.fixture
def small_vocab():
    return build_vocabulary(["the cat sat", "a dog ran", "birds fly high now"])


def tiny_model(pooling="mean", vocab=None, seed=3, **kwargs):
    vocab = vocab or build_vocabulary(["the cat sat", "a dog ran", "birds fly high now"])
    defaults = dict(embed_dim=8, num_blocks=1, ffn_dim=16, lstm_hidden=16, max_len=16)
    defaults.update(kwargs)
    cfg = EncoderConfig(pooling=pooling, **defaults)
    return init_model(cfg, vocab, SeededRng(seed).substream("init"))


class TestVocabulary:
    def test_min_count_one(self):
        v = build_vocabulary(["a b a"], min_count=1)
        assert set(v.tokens[3:]) == {"a", "b"}
        assert v.tokens[3] == "a"  # higher frequency first

    def test_min_count_two(self):
        v = build_vocabulary(["a b a"], min_count=2)
        assert v.tokens[3:] == ["a"]

    def test_deterministic(self):
        sents = ["z y x", "x y", "y"]
        assert build_vocabulary(sents).tokens == build_vocabulary(sents).tokens

    def test_rejects_misplaced_specials(self):
        with pytest.raises(EncoderError):
            Vocabulary.from_tokens(["a", "<pad>", "<unk>", "<cls>"])


class TestTokenize:
    def test_empty_text(self, small_vocab):
        assert tokenize("", small_vocab, 16) == [CLS_ID]

    def test_lowercasing(self, small_vocab):
        ids = tokenize("The CAT", small_vocab, 16)
        assert ids == [CLS_ID, small_vocab.index["the"], small_vocab.index["cat"]]

    def test_unknown_maps_to_unk(self, small_vocab):
        ids = tokenize("xylophone", small_vocab, 16)
        assert ids == [CLS_ID, 1]

    def test_truncation(self, small_vocab):
        long_text = " ".join(["cat"] * 200)
        assert len(tokenize(long_text, small_vocab, 64)) == 64


class TestEmbedTokens:
    def test_verbatim_row_lookup(self):
        from sentenc.encoder import embed_tokens

        e = SeededRng(1).uniform(-1, 1, (5, 3))
        out = embed_tokens([2, 0, 2], e)
        assert np.array_equal(out[0], e[2])
        assert np.array_equal(out[1], e[0])
        assert out.shape == (3, 3)

    def test_out_of_range_id(self):
        from sentenc.encoder import embed_tokens

        with pytest.raises(EncoderError):
            embed_tokens([7], np.ones((5, 3)))


class TestAttentionBlock:
    def test_singleton_attention_weight(self):
        model = tiny_model()
        x = SeededRng(1).uniform(-1, 1, (1, 1, 8))
        _, cache = attention_block_forward(x, np.ones((1, 1), bool), model.params, "block0")
        attn = cache[4]
        assert attn.shape == (1, 1, 1)
        assert attn[0, 0, 0] == 1.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_output_length_preserved(self, n):
        model = tiny_model()
        x = SeededRng(n).uniform(-1, 1, (1, n, 8))
        out, _ = attention_block_forward(x, np.ones((1, n), bool), model.params, "block0")
        assert out.shape == (1, n, 8)


class TestLayerNorm:
    @given(st.integers(1, 8), st.integers(2, 16), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_normalized_before_gain_bias(self, n, d, seed):
        x = SeededRng(seed).uniform(-5, 5, (n, d))
        out, (xhat, invstd, gain) = layer_norm_forward(x, np.ones(d), np.zeros(d))
        assert np.allclose(xhat.mean(axis=1), 0.0, atol=1e-9)
        # the stabilizing epsilon biases the variance down by eps / row_var
        row_var = x.var(axis=1)
        bound = LAYER_NORM_EPS / np.maximum(row_var, LAYER_NORM_EPS) + 1e-9
        assert np.all(np.abs(xhat.var(axis=1) - 1.0) <= bound)


class TestLstm:
    def test_zero_params_give_zero_hidden(self):
        model = tiny_model(pooling="lstm")
        for name in list(model.params):
            if name.startswith("lstm."):
                model.params[name][:] = 0.0
        y = SeededRng(2).uniform(-1, 1, (1, 5, 8))
        hs, cs, _ = lstm_forward(y, model.params)
        assert np.all(hs == 0.0)
        assert np.all(cs == 0.0)

    def test_single_step_against_hand_rolled_equations(self):
        model = tiny_model(pooling="lstm")
        y = SeededRng(4).uniform(-1, 1, (1, 1, 8))
        hs, cs, _ = lstm_forward(y, model.params)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        p = model.params
        wi, wf, wo, wg = np.split(p["lstm.w"], 4)
        bi, bf, bo, bg = np.split(p["lstm.b"], 4)
        z = np.concatenate([y[0, 0], np.zeros(16)])
        i = sig(wi @ z + bi)
        f = sig(wf @ z + bf)
        o = sig(wo @ z + bo)
        g = np.tanh(wg @ z + bg)
        c = i * g  # c_0 = 0 so the forget term vanishes
        h = o * np.tanh(c)
        assert np.allclose(hs[0, 0], h, atol=1e-12)
        assert np.allclose(cs[0, 0], c, atol=1e-12)

    def test_hidden_dimension_independent_of_input(self):
        model = tiny_model(pooling="lstm", lstm_hidden=24)
        y = SeededRng(5).uniform(-1, 1, (1, 4, 8))
        hs, _, _ = lstm_forward(y, model.params)
        assert hs.shape == (1, 4, 24)


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_lstm(y, p):
    """Per-sentence, per-gate LSTM loop over y (n, d); the fused layer must
    reproduce it. Returns the hidden states and the per-step cache."""
    wi, wf, wo, wg = np.split(p["lstm.w"], 4)
    bi, bf, bo, bg = np.split(p["lstm.b"], 4)
    h_dim = wi.shape[0]
    hs, steps = [], []
    h_prev, c_prev = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(y.shape[0]):
        z = np.concatenate([y[t], h_prev])
        i, f, o = _sig(wi @ z + bi), _sig(wf @ z + bf), _sig(wo @ z + bo)
        g = np.tanh(wg @ z + bg)
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        hs.append(h)
        steps.append((z, i, f, o, g, c_prev, tanh_c))
        h_prev, c_prev = h, c
    return np.array(hs), steps


def reference_lstm_backward(dh_last, steps, p, input_dim):
    """Backprop through time of reference_lstm, one np.outer per gate and step.
    Returns (dy, dW, db) with dW, db in the fused i, f, o, g layout."""
    ws = np.split(p["lstm.w"], 4)
    dws = [np.zeros_like(w) for w in ws]
    dbs = [np.zeros(w.shape[0]) for w in ws]
    dy = np.zeros((len(steps), input_dim))
    dh, dc = dh_last.copy(), np.zeros_like(dh_last)
    for t in range(len(steps) - 1, -1, -1):
        z, i, f, o, g, c_prev, tanh_c = steps[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        das = [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
               do * o * (1.0 - o), dc * i * (1.0 - g**2)]
        dc = dc * f
        dz = np.zeros_like(z)
        for w, dw, db, da in zip(ws, dws, dbs, das):
            dw += np.outer(da, z)
            db += da
            dz += w.T @ da
        dy[t] = dz[:input_dim]
        dh = dz[input_dim:]
    return dy, np.concatenate(dws), np.concatenate(dbs)


class TestFusedLstm:
    def test_init_blocks_are_per_gate_draws(self):
        model = tiny_model(pooling="lstm")
        d, h = 8, 16
        r = SeededRng(3).substream("init").substream("lstm")
        blocks = np.split(model.params["lstm.w"], 4)
        for block, gate in zip(blocks, "ifog"):
            assert np.array_equal(block, _glorot(r.substream(gate), d + h, h, (h, d + h)))
        bias = np.split(model.params["lstm.b"], 4)
        assert [b.tolist() for b in bias] == [[0.0] * h, [1.0] * h, [0.0] * h, [0.0] * h]

    def test_ragged_batch_matches_reference_loop(self):
        model = tiny_model(pooling="lstm")
        lengths = np.array([5, 1, 3, 7])
        y = SeededRng(6).uniform(-1, 1, (4, 7, 8))
        mask = np.arange(7) < lengths[:, None]
        last, cache = pool(y, mask, "lstm", model.params)
        dh_last = SeededRng(7).uniform(-1, 1, (4, 16))
        grads = model.zero_grads()
        dy = lstm_backward(dh_last, lengths, cache, model.params, grads)
        dw_ref, db_ref = np.zeros_like(grads["lstm.w"]), np.zeros_like(grads["lstm.b"])
        for b, n in enumerate(lengths):
            hs, steps = reference_lstm(y[b, :n], model.params)
            assert np.abs(last[b] - hs[-1]).max() <= 1e-12
            dy_ref, dw, db = reference_lstm_backward(dh_last[b], steps, model.params, 8)
            assert np.abs(dy[b, :n] - dy_ref).max() <= 1e-12
            assert np.all(dy[b, n:] == 0.0)
            dw_ref += dw
            db_ref += db
        assert np.abs(grads["lstm.w"] - dw_ref).max() <= 1e-12
        assert np.abs(grads["lstm.b"] - db_ref).max() <= 1e-12


MIXED = [
    "the cat sat",
    "a dog ran",
    "birds fly high now and the cat sat with a dog",
    "now",
    "the dog",
    "a cat ran high fly birds now the sat",
    "birds birds birds",
    "unknown words here",
    "the",
    "dog ran now",
    "fly high birds fly high",
]


class TestBatchedEncoder:
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_embedding_independent_of_batch_mates(self, pooling, blocks):
        assert len(MIXED) > CHUNK_SIZE
        model = tiny_model(pooling=pooling, num_blocks=blocks)
        together = encode(MIXED, model)
        assert np.array_equal(together, encode(MIXED, model))
        for text, row in zip(MIXED, together):
            assert np.abs(encode([text], model)[0] - row).max() <= 1e-12

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_padded_batch_gradient_is_sum_of_single_gradients(self, pooling):
        model = tiny_model(pooling=pooling, num_blocks=2)
        texts = MIXED[:4]  # 4, 4, 12 and 2 tokens: three of them padded
        upstream = SeededRng(8).uniform(-1, 1, (4, model.config.output_dim))
        batched = model.zero_grads()
        _backward(upstream, _forward(texts, model)[1], model, batched)
        single = model.zero_grads()
        for text, demb in zip(texts, upstream):
            _backward(demb[None], _forward([text], model)[1], model, single)
        for name, g in batched.items():
            assert np.abs(g - single[name]).max() <= 1e-12, name

    def test_empty_list(self):
        assert encode([], tiny_model(pooling="lstm")).shape == (0, 16)

    def test_bare_string_is_rejected(self):
        with pytest.raises(EncoderError):
            encode("the cat sat", tiny_model())


class TestPooling:
    def test_single_token_all_simple_pools_agree(self):
        y = np.array([[[1.0, -2.0, 3.0]]])
        for strategy in ("cls", "mean", "max"):
            vec, _ = pool(y, np.ones((1, 1), bool), strategy)
            assert np.array_equal(vec, y[0])

    def test_mean(self):
        y = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        vec, _ = pool(y, np.ones((1, 2), bool), "mean")
        assert vec.tolist() == [[2.0, 2.0]]

    def test_max(self):
        y = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        vec, _ = pool(y, np.ones((1, 2), bool), "max")
        assert vec.tolist() == [[3.0, 3.0]]

    def test_unknown_strategy(self):
        with pytest.raises(EncoderError):
            pool(np.ones((1, 2, 2)), np.ones((1, 2), bool), "median")


class TestEncode:
    def test_deterministic(self):
        model = tiny_model(pooling="lstm")
        a = encode(["the cat sat"], model)
        b = encode(["the cat sat"], model)
        assert np.array_equal(a, b)

    def test_lstm_pooling_output_dimension(self):
        model = tiny_model(pooling="lstm", embed_dim=32, lstm_hidden=128, ffn_dim=32)
        assert encode(["a dog ran"], model).shape == (1, 128)

    def test_mean_pooling_output_dimension(self):
        model = tiny_model(pooling="mean")
        assert encode(["a dog ran"], model).shape == (1, 8)

    @given(st.sampled_from(["cls", "mean", "max", "lstm"]), st.integers(4, 48), st.integers(4, 48))
    @settings(max_examples=20, deadline=None)
    def test_shape_contract_property(self, pooling, embed_dim, lstm_hidden):
        model = tiny_model(
            pooling=pooling, embed_dim=embed_dim, lstm_hidden=lstm_hidden, ffn_dim=8
        )
        out = encode(["birds fly high now"], model)
        expected = lstm_hidden if pooling == "lstm" else embed_dim
        assert out.shape == (1, expected)

    def test_mean_pooling_permutation_invariant(self):
        model = tiny_model(pooling="mean", num_blocks=0)
        a = encode(["cat dog birds"], model)
        b = encode(["birds cat dog"], model)
        assert np.allclose(a, b, atol=1e-15)

    def test_lstm_pooling_permutation_sensitive(self):
        model = tiny_model(pooling="lstm", num_blocks=0)
        a = encode(["cat dog birds"], model)
        b = encode(["birds cat dog"], model)
        assert not np.allclose(a, b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(pooling="lstm")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        for name, tensor in model.params.items():
            assert np.array_equal(loaded.params[name], tensor)

    def test_resave_identical_bytes(self, tmp_path):
        model = tiny_model()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
