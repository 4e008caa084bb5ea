import base64
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sentenc.encoder
from sentenc.encoder import (
    CHECKPOINT_FORMAT,
    CHUNK_TOKENS,
    CLS_ID,
    PACK_SIZE,
    PARAM_CEILING,
    POOLING_STRATEGIES,
    SPECIAL_TOKENS,
    UNK_ID,
    EncoderConfig,
    EncoderError,
    LAYER_NORM_EPS,
    ParamSet,
    Vocabulary,
    _backward,
    _forward,
    _glorot,
    attention_block_forward,
    build_vocabulary,
    embed_tokens,
    encode,
    init_model,
    layer_norm_forward,
    load_model,
    lstm_backward,
    lstm_forward,
    param_count,
    param_shapes,
    pool,
    pool_backward,
    save_model,
    tokenize,
)
from sentenc.config import read_fields
from sentenc.errors import ConfigError
from sentenc.numeric import SeededRng


@pytest.fixture
def small_vocab():
    return build_vocabulary(["the cat sat", "a dog ran", "birds fly high now"])


def token_ids(texts, model):
    return [tokenize(t, model.vocab, model.config.max_len) for t in texts]


def tiny_model(pooling="mean", vocab=None, seed=3, **kwargs):
    vocab = vocab or build_vocabulary(["the cat sat", "a dog ran", "birds fly high now"])
    defaults = dict(embed_dim=8, num_blocks=1, ffn_dim=16, lstm_hidden=16, max_len=16)
    defaults.update(kwargs)
    cfg = EncoderConfig(pooling=pooling, **defaults)
    return init_model(cfg, vocab, SeededRng(seed).substream("init"))


class TestVocabulary:
    def test_min_count_one(self):
        v = build_vocabulary(["a b a"], min_count=1)
        n = len(SPECIAL_TOKENS)
        assert set(v.tokens[n:]) == {"a", "b"}
        assert v.tokens[n] == "a"  # higher frequency first

    def test_min_count_two(self):
        v = build_vocabulary(["a b a"], min_count=2)
        assert v.tokens[len(SPECIAL_TOKENS):] == ["a"]

    def test_deterministic(self):
        sents = ["z y x", "x y", "y"]
        assert build_vocabulary(sents).tokens == build_vocabulary(sents).tokens

    def test_rejects_misplaced_specials(self):
        with pytest.raises(EncoderError):
            Vocabulary(["a", *SPECIAL_TOKENS])

    @pytest.mark.parametrize(
        "token", [7, None, ["a"], {"a": 1}], ids=["int", "null", "list", "object"]
    )
    def test_rejects_a_token_that_is_not_a_string(self, token):
        with pytest.raises(EncoderError, match="distinct strings"):
            Vocabulary([*SPECIAL_TOKENS, "a", token])

    def test_rejects_tokens_that_are_not_a_list(self):
        with pytest.raises(EncoderError, match="a list of distinct strings"):
            Vocabulary(dict.fromkeys([*SPECIAL_TOKENS, "a"]))


class TestTokenize:
    def test_empty_text(self, small_vocab):
        assert tokenize("", small_vocab, 16) == [CLS_ID]

    def test_lowercasing(self, small_vocab):
        ids = tokenize("The CAT", small_vocab, 16)
        assert ids == [CLS_ID, small_vocab.index["the"], small_vocab.index["cat"]]

    def test_unknown_maps_to_unk(self, small_vocab):
        ids = tokenize("xylophone", small_vocab, 16)
        assert ids == [CLS_ID, UNK_ID]

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
        x = SeededRng(1).uniform(-1, 1, (1, 8))
        _, cache = attention_block_forward(x, [(slice(0, 1), 1, 1)], model.params, "block0")
        attn = cache[4][0]
        assert attn.shape == (1, 1, 1)
        assert attn[0, 0, 0] == 1.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_output_length_preserved(self, n):
        model = tiny_model()
        x = SeededRng(n).uniform(-1, 1, (n, 8))
        out, _ = attention_block_forward(x, [(slice(0, n), 1, n)], model.params, "block0")
        assert out.shape == (n, 8)


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
        hs, (*_, cs) = lstm_forward(y[0], [5], model.params, keep=True)
        assert np.all(hs == 0.0)
        assert np.all(cs == 0.0)

    def test_single_step_against_hand_rolled_equations(self):
        model = tiny_model(pooling="lstm")
        y = SeededRng(4).uniform(-1, 1, (1, 1, 8))
        hs, (*_, cs) = lstm_forward(y[0], [1], model.params, keep=True)

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
        assert np.allclose(hs[0], h, atol=1e-12)
        assert np.allclose(cs[0], c, atol=1e-12)

    def test_hidden_dimension_independent_of_input(self):
        model = tiny_model(pooling="lstm", lstm_hidden=24)
        y = SeededRng(5).uniform(-1, 1, (1, 4, 8))
        hs, _ = lstm_forward(y[0], [4], model.params)
        assert hs.shape == (1, 24)


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
        y = SeededRng(6).uniform(-1, 1, (lengths.sum(), 8))
        last, cache = lstm_forward(y, lengths, model.params, keep=True)
        dh_last = SeededRng(7).uniform(-1, 1, (4, 16))
        grads = model.params.zeros_like()
        dy = lstm_backward(dh_last, cache, model.params, grads)
        assert dy.shape == y.shape
        dw_ref, db_ref = np.zeros_like(grads["lstm.w"]), np.zeros_like(grads["lstm.b"])
        for b, (lo, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
            hs, steps = reference_lstm(y[lo : lo + n], model.params)
            assert np.abs(last[b] - hs[-1]).max() <= 1e-12
            dy_ref, dw, db = reference_lstm_backward(dh_last[b], steps, model.params, 8)
            assert np.abs(dy[lo : lo + n] - dy_ref).max() <= 1e-12
            dw_ref += dw
            db_ref += db
        assert np.abs(grads["lstm.w"] - dw_ref).max() <= 1e-12
        assert np.abs(grads["lstm.b"] - db_ref).max() <= 1e-12

    # n = 1 runs beside an absent row and n = 2 beside a finished one (the
    # 2-row floor); PACK_SIZE + 1 sentences make two packs
    @pytest.mark.parametrize("n", [1, 2, PACK_SIZE - 1, PACK_SIZE, PACK_SIZE + 1])
    def test_packs_match_reference_loop(self, n):
        # no attention blocks, so the LSTM reads the embedding rows; "" is
        # <cls> alone, a 1-step sentence
        texts = [MIXED[2], ""] + MIXED
        texts = [texts[i % len(texts)] for i in range(n)]
        model = tiny_model(pooling="lstm", num_blocks=0)
        p = model.params
        tape = []
        emb = encode(texts, model, tape)
        assert len(tape) == math.ceil(n / PACK_SIZE)
        demb = SeededRng(n).uniform(-1, 1, emb.shape)
        grads = p.zeros_like()
        for positions, cache in tape:
            _backward(demb[positions], cache, model, grads)
        ref = p.zeros_like()
        for b, ids in enumerate(token_ids(texts, model)):
            hs, steps = reference_lstm(embed_tokens(ids, p["embed"]), p)
            assert np.abs(emb[b] - hs[-1]).max() <= 1e-12
            dy_ref, dw, db = reference_lstm_backward(demb[b], steps, p, 8)
            np.add.at(ref["embed"], ids, dy_ref)
            ref["lstm.w"] += dw
            ref["lstm.b"] += db
        for name in ("lstm.w", "lstm.b", "embed"):
            assert np.abs(grads[name] - ref[name]).max() <= 1e-12, name


class TestParamTable:
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_no_lstm_tensors_without_lstm_pooling(self, pooling):
        model = tiny_model(pooling=pooling)
        reference = tiny_model(pooling="lstm")
        assert not any(name.startswith("lstm.") for name in model.params)
        assert set(reference.params) - set(model.params) == {"lstm.w", "lstm.b"}
        for name, tensor in model.params.items():
            assert np.array_equal(tensor, reference.params[name])

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_shapes_match_init_model(self, pooling):
        model = tiny_model(pooling=pooling, num_blocks=2)
        shapes = param_shapes(model.config, len(model.vocab))
        assert shapes == {name: t.shape for name, t in model.params.items()}


class TestParamSet:
    @pytest.mark.parametrize("pooling", ["mean", "lstm"])
    def test_views_tile_flat_in_param_shapes_order(self, pooling):
        model = tiny_model(pooling=pooling, num_blocks=2)
        params = model.params
        shapes = param_shapes(model.config, len(model.vocab))
        assert list(params) == list(shapes)
        params.flat[:] = np.arange(params.flat.size)
        offset = 0
        for name, shape in shapes.items():
            view = params[name]
            assert view.base is params.flat and view.shape == shape
            assert np.array_equal(view.ravel(), np.arange(offset, offset + view.size))
            offset += view.size
        assert offset == params.flat.size

    def test_zeros_like_keeps_names_and_shapes(self):
        params = tiny_model(pooling="lstm").params
        zeros = params.zeros_like()
        assert [(n, t.shape) for n, t in zeros.items()] == [
            (n, t.shape) for n, t in params.items()
        ]
        assert not np.shares_memory(zeros.flat, params.flat)
        assert np.all(zeros.flat == 0.0)
        assert all(view.base is zeros.flat for view in zeros.values())

    @pytest.mark.parametrize(
        "shapes",
        [{"embed": (2**50, 64)}, {"embed": (6, 2**50)}, {"embed": (6, 8), "lstm.w": (2**52, 2**50)}],
    )
    def test_refuses_more_than_the_ceiling_before_allocating(self, shapes):
        total = sum(math.prod(shape) for shape in shapes.values())
        with pytest.raises(ConfigError) as info:
            ParamSet(shapes)
        assert str(info.value) == f"{total} parameters exceed the ceiling of {PARAM_CEILING}"

    @pytest.mark.parametrize("num_blocks", [0, 1, 3])
    @pytest.mark.parametrize("pooling", POOLING_STRATEGIES)
    def test_param_count_is_the_size_param_shapes_lays_out(self, pooling, num_blocks):
        cfg = EncoderConfig(embed_dim=6, num_blocks=num_blocks, ffn_dim=10,
                            pooling=pooling, lstm_hidden=7)
        for vocab_size in (2, 13):
            shapes = param_shapes(cfg, vocab_size)
            assert param_count(cfg, vocab_size) == sum(map(math.prod, shapes.values()))

    def test_ceiling_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(sentenc.encoder, "PARAM_CEILING", 12)
        assert ParamSet({"a": (3, 4)}).flat.size == 12
        with pytest.raises(ConfigError, match="13 parameters exceed the ceiling of 12"):
            ParamSet({"a": (3, 4), "b": (1,)})


# "" is <cls> alone; the rest repeat token lengths (runs) and sum to more
# than CHUNK_TOKENS rows
INVARIANCE_TEXTS = [
    "",
    "the cat sat",
    " ".join(f"w{i % 23}" for i in range(60)),
    "a dog ran",
    " ".join(f"w{(3 * i) % 29}" for i in range(60)),
    "now",
    " ".join(f"w{(5 * i) % 31}" for i in range(45)),
    "birds fly high now and the cat sat",
    " ".join(f"w{(7 * i) % 37}" for i in range(63)),
    "",
    " ".join(f"w{(2 * i) % 41}" for i in range(50)),
    "the dog",
    " ".join(f"w{(11 * i) % 43}" for i in range(63)),
    " ".join(f"w{(13 * i) % 47}" for i in range(38)),
    "fly high birds",
    " ".join(f"w{(17 * i) % 53}" for i in range(55)),
    " ".join(f"w{(19 * i) % 59}" for i in range(63)),
]

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
        model = tiny_model(pooling=pooling, num_blocks=blocks)
        # some sentences share a length, so they attend as one run
        assert len(set(map(len, token_ids(MIXED, model)))) < len(MIXED)
        together = encode(MIXED, model)
        assert np.array_equal(together, encode(MIXED, model))
        for text, row in zip(MIXED, together):
            assert np.array_equal(encode([text], model)[0], row)

    @pytest.mark.parametrize("embed_dim", [16, 64])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_prefix_rows_bit_equal_rows_encoded_alone(self, pooling, embed_dim):
        model = init_model(
            EncoderConfig(embed_dim=embed_dim, pooling=pooling),
            build_vocabulary(INVARIANCE_TEXTS),
            SeededRng(5).substream("init"),
        )
        lengths = [len(row) for row in token_ids(INVARIANCE_TEXTS, model)]
        assert lengths[0] == 1 and len(set(lengths)) < len(lengths)
        assert sum(lengths) > CHUNK_TOKENS  # the 17 texts make chunks of one pack
        alone = [encode([text], model)[0] for text in INVARIANCE_TEXTS]
        for n in range(1, len(INVARIANCE_TEXTS) + 1):
            rows = encode(INVARIANCE_TEXTS[:n], model)
            for i in range(n):
                assert np.array_equal(rows[i], alone[i]), (n, i)

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_padded_batch_gradient_is_sum_of_single_gradients(self, pooling):
        model = tiny_model(pooling=pooling, num_blocks=2)
        texts = MIXED[:4]  # 4, 4, 12 and 2 tokens: a run of two, two alone
        upstream = SeededRng(8).uniform(-1, 1, (4, model.config.output_dim))
        batched = model.params.zeros_like()
        _backward(upstream, _forward(token_ids(texts, model), model)[1], model, batched)
        single = model.params.zeros_like()
        for text, demb in zip(texts, upstream):
            _backward(demb[None], _forward(token_ids([text], model), model)[1], model, single)
        for name, g in batched.items():
            assert np.abs(g - single[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max", "lstm"])
    def test_tape_leaves_embeddings_bit_equal(self, pooling):
        model = tiny_model(pooling=pooling, num_blocks=2)
        tape = []
        assert np.array_equal(encode(MIXED, model, tape), encode(MIXED, model))
        assert tape

    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 24, PACK_SIZE - 1, PACK_SIZE, PACK_SIZE + 1, 3 * PACK_SIZE]
    )
    def test_tape_covers_each_position_once(self, n):
        texts = [MIXED[i % len(MIXED)] for i in range(n)]
        model = tiny_model()
        ids = token_ids(texts, model)
        tape = []
        encode(texts, model, tape)
        assert len(tape) == math.ceil(n / PACK_SIZE)
        assert sorted(i for positions, _ in tape for i in positions) == list(range(n))
        for positions, (chunks, _) in tape:
            # each chunk holds whole sentences, at most CHUNK_TOKENS rows
            # unless it is one sentence, and the chunks' runs cover the
            # pack's token rows once, in order
            covered = []
            for chunk_ids, runs, _ in chunks:
                rows = sum(bsz * length for _, bsz, length in runs)
                assert rows <= CHUNK_TOKENS or [bsz for _, bsz, _ in runs] == [1]
                covered.extend(chunk_ids[:rows])
            assert covered == [t for i in positions for t in ids[i]]
        if n == 3 * PACK_SIZE:  # the longest pack holds more than CHUNK_TOKENS rows
            assert len(tape[-1][1][0]) > 1

    def test_lone_one_token_sentence_runs_as_two_rows(self):
        tape = []
        encode([""], tiny_model(), tape)
        [(chunk_ids, runs, _)] = tape[0][1][0]
        assert chunk_ids.tolist() == [CLS_ID, CLS_ID] and runs == [(slice(0, 1), 1, 1)]

    @pytest.mark.parametrize("pooling", ["lstm", "mean", "max"])
    def test_encode_holds_one_pack_at_a_time(self, pooling):
        # 1,000 ten-token sentences at the default sizes peak at 6.0 MB
        # (lstm) or 5.5 MB (mean, max) in packs of 128, and at 32 MB (lstm)
        # in one pack for the whole call
        texts = [" ".join(f"w{(7 * i + 3 * j) % 97}" for j in range(10)) for i in range(1000)]
        vocab = build_vocabulary(texts)
        model = init_model(EncoderConfig(pooling=pooling), vocab, SeededRng(0).substream("init"))
        tracemalloc.start()
        try:
            encode(texts, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_empty_list(self):
        assert encode([], tiny_model(pooling="lstm")).shape == (0, 16)

    def test_bare_string_is_rejected(self):
        with pytest.raises(EncoderError):
            encode("the cat sat", tiny_model())


class TestPooling:
    def test_single_token_all_simple_pools_agree(self):
        y = np.array([[1.0, -2.0, 3.0]])
        for strategy in ("cls", "mean", "max"):
            vec, _ = pool(y, [1], {}, strategy)
            assert np.array_equal(vec, y)

    def test_mean(self):
        y = np.array([[1.0, 3.0], [3.0, 1.0]])
        vec, _ = pool(y, [2], {}, "mean")
        assert vec.tolist() == [[2.0, 2.0]]

    def test_max(self):
        y = np.array([[1.0, 3.0], [3.0, 1.0]])
        vec, _ = pool(y, [2], {}, "max")
        assert vec.tolist() == [[3.0, 3.0]]

    def test_unknown_strategy(self):
        with pytest.raises(EncoderError):
            pool(np.ones((2, 2)), [2], {}, "median")

    @staticmethod
    def ragged_pack():
        """A length-sorted pack's flat token rows at num_blocks 0, where each
        row is its token's embedding row, so a repeated token ties exactly;
        returns (rows, lengths, each sentence's first row)."""
        model = tiny_model(num_blocks=0)
        texts = ["cat", "cat cat", "dog cat", "cat cat dog", "the cat cat sat", "cat dog cat"]
        ids = sorted(token_ids(texts, model), key=len)
        lengths = [len(row) for row in ids]
        tokens = embed_tokens(np.concatenate(ids), model.params["embed"])
        return tokens, lengths, np.cumsum(lengths) - lengths

    @pytest.mark.parametrize("strategy", ["cls", "mean", "max"])
    def test_pack_bit_equals_per_sentence_reference(self, strategy):
        tokens, lengths, starts = self.ragged_pack()
        reduce = {
            "cls": lambda r: r[0],
            "mean": lambda r: r.sum(axis=0) / len(r),
            "max": lambda r: r.max(axis=0),
        }[strategy]
        want = [reduce(tokens[lo : lo + n]) for lo, n in zip(starts, lengths)]
        assert np.array_equal(pool(tokens, lengths, {}, strategy)[0], np.array(want))

    @pytest.mark.parametrize("strategy", ["cls", "mean", "max"])
    def test_backward_routes_each_gradient(self, strategy):
        tokens, lengths, starts = self.ragged_pack()
        demb = SeededRng(2).uniform(-1, 1, (len(lengths), tokens.shape[1]))
        _, cache = pool(tokens, lengths, {}, strategy, keep=True)
        want = np.zeros_like(tokens)
        ties = 0
        for b, (lo, n) in enumerate(zip(starts, lengths)):
            if strategy == "cls":
                want[lo] = demb[b]
            elif strategy == "mean":
                want[lo : lo + n] = demb[b] / n
            else:  # each dimension's gradient goes to its first maximal row
                for j in range(tokens.shape[1]):
                    col = tokens[lo : lo + n, j]
                    tied = np.flatnonzero(col == col.max())
                    ties += len(tied) > 1
                    want[lo + tied[0], j] = demb[b, j]
        assert np.array_equal(pool_backward(demb, cache, {}, {}, strategy), want)
        assert strategy != "max" or ties > 0


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
        assert read_fields(loaded.config, "encoder") == read_fields(model.config, "encoder")
        assert loaded.vocab.tokens == model.vocab.tokens
        for name, tensor in model.params.items():
            assert np.array_equal(loaded.params[name], tensor)

    @pytest.mark.parametrize(
        "pooling, num_blocks",
        [(p, b) for p in POOLING_STRATEGIES for b in (0, 1) if (p, b) != ("cls", 0)],
    )
    def test_round_trip_per_model_shape(self, tmp_path, pooling, num_blocks):
        # tiny_model sets lstm_hidden and ffn_dim to 16, away from their defaults
        model = tiny_model(pooling=pooling, num_blocks=num_blocks)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        doc = json.loads(p1.read_text(encoding="utf-8"))
        read = {"embed_dim", "num_blocks", "pooling", "max_len"}
        read |= {"lstm_hidden"} if pooling == "lstm" else set()
        read |= {"ffn_dim"} if num_blocks else set()
        assert set(doc) == {"format", "config", "vocab", "params"}
        assert set(doc["config"]) == read
        assert len(base64.b64decode(doc["params"])) == 8 * model.params.flat.size
        loaded = load_model(p1)
        assert read_fields(loaded.config, "encoder") == read_fields(model.config, "encoder")
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        texts = ["the cat sat", "a dog ran high", "", "birds fly", "xylophone now"]
        assert np.array_equal(encode(texts, loaded), encode(texts, model))

    def test_loaded_tensors_are_writable_views_of_flat(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(pooling="lstm"), path)
        params = load_model(path).params
        assert params.flat.flags.owndata and params.flat.flags.writeable
        for tensor in params.values():
            assert tensor.base is params.flat and tensor.flags.writeable

    def test_resave_identical_bytes(self, tmp_path):
        model = tiny_model()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def _one_string_document(model):
        """The format-3 document as one json.dumps, params as one base64 string."""
        raw = model.params.flat.astype("<f8").tobytes()
        return json.dumps({
            "format": CHECKPOINT_FORMAT,
            "config": read_fields(model.config, "encoder"),
            "vocab": model.vocab.tokens,
            "params": base64.b64encode(raw).decode("ascii"),
        })

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize(
        "pooling, num_blocks",
        [(p, b) for p in POOLING_STRATEGIES for b in (0, 1) if (p, b) != ("cls", 0)],
    )
    def test_streamed_bytes_equal_one_string_document(
        self, tmp_path, monkeypatch, pooling, num_blocks, small_blocks
    ):
        vocab = build_vocabulary(["the żółw sat", 'a "dog" ran\\', "birds fly high now"])
        model = tiny_model(pooling=pooling, num_blocks=num_blocks, vocab=vocab)
        nbytes = model.params.flat.nbytes
        if small_blocks:
            # a few multiples of 3 bytes, one that leaves the last block partial
            block = next(b for b in (15, 21, 27) if nbytes % b)
            monkeypatch.setattr(sentenc.encoder, "SAVE_BLOCK_BYTES", block)
            assert nbytes // block >= 10
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text == self._one_string_document(model)
        # JSON escapes the non-ASCII token, the quote and the backslash
        assert '"\\u017c\\u00f3\\u0142w"' in text and '"\\""' in text and '"\\\\"' in text
        assert path.read_bytes() == text.encode("ascii")

    def test_save_holds_no_copy_of_the_parameter_vector(self, tmp_path):
        # a mine-wide-sized model: 6,308 tokens at width 64, 3.2 MB of parameters
        tokens = list(SPECIAL_TOKENS) + [f"w{i}" for i in range(6306)]
        cfg = EncoderConfig(embed_dim=64, num_blocks=0, pooling="mean")
        model = init_model(cfg, Vocabulary(tokens), SeededRng(5).substream("init"))
        assert model.params.flat.nbytes >= 3_000_000
        path = tmp_path / "model.json"
        save_model(model, path)  # the first call imports sentenc.config
        tracemalloc.start()
        try:
            save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert path.read_text(encoding="utf-8") == self._one_string_document(model)
