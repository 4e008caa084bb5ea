"""Trainable sentence encoder: tokenizer, embeddings, self-attention blocks,
and four pooling strategies (cls / mean / max / LSTM last hidden state).

`encode` sorts sentences by length and cuts them into packs of PACK_SIZE.
The token layers run on a pack's unpadded token rows per chunk of at most
CHUNK_TOKENS rows: the embedding and position-wise layers on the chunk's
rows, attention per run of equal-length sentences, a (B, T, d) view.
Pooling is one layer over all of the pack's rows (`pool`/`pool_backward`),
whatever the strategy. No row's reduction order depends on its batch mates,
so a sentence encodes to the same bits in any batch. Backward passes are
analytic and checked against central finite differences in the test suite.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .corpus import atomic_write, open_input
from .errors import ConfigError, EncoderError
from .numeric import SeededRng, softmax

UNK_TOKEN, CLS_TOKEN = "<unk>", "<cls>"
SPECIAL_TOKENS = (UNK_TOKEN, CLS_TOKEN)
UNK_ID, CLS_ID = 0, 1

POOLING_STRATEGIES = ("cls", "mean", "max", "lstm")

LAYER_NORM_EPS = 1e-5

# Version of the save_model document, which holds the encoder keys the model
# reads, the vocabulary and params.flat; load_model reads only this one.
CHECKPOINT_FORMAT = 3

# Most float64 values one ParamSet may hold (16 GiB), checked before the
# vector is allocated, so an oversized width is one config error, not a
# failed allocation.
PARAM_CEILING = 2**31

# Parameter bytes base64-encoded per write by save_model: a multiple of 3,
# so no block but the last ends in "=" padding.
SAVE_BLOCK_BYTES = 3 * 2**16

# Token rows per chunk of the token layers; a longer sentence is a chunk on
# its own. It bounds the activations a chunk holds at once: encoding 128
# sentences of 35-59 tokens peaks at 9.9 MB in chunks of 512 rows and at
# 57 MB as one chunk per pack.
CHUNK_TOKENS = 512

# Sentences per pack, the unit the LSTM runs one time loop over. It bounds
# the pack's token rows and per-step (rows, 4 * lstm_hidden) temporaries:
# encoding 1,000 ten-token sentences peaks at 6.2 MB in packs of 128 and at
# 32 MB as one pack.
PACK_SIZE = 128

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def word_tokens(text: str) -> list[str]:
    """Lowercased word-level tokens with punctuation split off."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    tokens: list[str]  # in id order; specials first

    def __post_init__(self):
        # a token that is not a string gets no index entry, so it fails as a duplicate does
        self.index = {t: i for i, t in enumerate(self.tokens) if isinstance(t, str)}
        if len(self.index) != len(self.tokens) or not isinstance(self.tokens, list):
            raise EncoderError("vocabulary tokens must be a list of distinct strings")
        for want, tok in enumerate(SPECIAL_TOKENS):
            if self.index.get(tok) != want:
                raise EncoderError("special tokens missing or misplaced")

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocabulary(sentences: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Frequency-filtered word vocabulary with deterministic id assignment
    (frequency descending, ties lexicographic)."""
    counts: Counter[str] = Counter()
    for sentence in sentences:
        counts.update(word_tokens(sentence))
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(SPECIAL_TOKENS) + kept)


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """[CLS] + token ids (UNK for out-of-vocabulary), truncated to max_len."""
    ids = [CLS_ID] + [vocab.index.get(t, UNK_ID) for t in word_tokens(text)]
    return ids[:max_len]


def embed_tokens(ids, embedding: np.ndarray) -> np.ndarray:
    """Row lookup into the embedding matrix for an id array of any shape."""
    ids = np.asarray(ids, dtype=np.intp)
    if np.any((ids < 0) | (ids >= embedding.shape[0])):
        raise EncoderError("token id out of range for embedding matrix")
    return embedding[ids]


@dataclass
class EncoderConfig:
    embed_dim: int = 64
    num_blocks: int = 1
    ffn_dim: int = 128
    pooling: str = "lstm"
    lstm_hidden: int = 128
    max_len: int = 64

    def __post_init__(self):
        if self.pooling not in POOLING_STRATEGIES:
            raise EncoderError(f"unknown pooling strategy {self.pooling!r}")
        if self.embed_dim < 1 or self.ffn_dim < 1 or self.lstm_hidden < 1:
            raise EncoderError("dimensions must be positive")
        if self.num_blocks < 0:
            raise EncoderError("num_blocks must be >= 0")
        if self.max_len < 2:
            raise EncoderError("max_len must be >= 2")

    @property
    def output_dim(self) -> int:
        return self.lstm_hidden if self.pooling == "lstm" else self.embed_dim


def param_size(shapes: dict[str, tuple[int, ...]]) -> int:
    """Values in tensors of these shapes."""
    return sum(math.prod(shape) for shape in shapes.values())


def check_param_count(size: int, of: str = "") -> None:
    """ConfigError if `size` parameters (`of` says whose) exceed PARAM_CEILING."""
    if size > PARAM_CEILING:
        raise ConfigError(f"{size} parameters{of} exceed the ceiling of {PARAM_CEILING}")


class ParamSet(dict):
    """Named float64 views into one zero-initialised contiguous vector `flat`,
    laid out in the order of `shapes`. Whole-set passes (the optimizer
    update, finite checks) run over `flat`; layers index the views by name."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        size = param_size(shapes)
        check_param_count(size)
        self.flat = np.zeros(size)
        offset = 0
        for name, shape in shapes.items():
            self[name] = self.flat[offset : offset + math.prod(shape)].reshape(shape)
            offset += self[name].size

    def zeros_like(self) -> "ParamSet":
        return ParamSet({name: view.shape for name, view in self.items()})


@dataclass
class EncoderModel:
    config: EncoderConfig
    vocab: Vocabulary
    params: ParamSet


def _glorot(rng: SeededRng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _block_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each tensor of one attention block, by its name in the block."""
    d, f = config.embed_dim, config.ffn_dim
    shapes = {m: (d, d) for m in ("wq", "wk", "wv", "wo")}
    shapes.update({"w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,)})
    shapes.update({m: (d,) for m in ("ln1_g", "ln1_b", "ln2_g", "ln2_b")})
    return shapes


def param_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in checkpoint order. The
    LSTM tensors exist only under lstm pooling; no other pooling reads them."""
    d, h = config.embed_dim, config.lstm_hidden
    shapes = {"embed": (vocab_size, d)}
    block = _block_shapes(config)
    for b in range(config.num_blocks):
        shapes.update({f"block{b}.{m}": shape for m, shape in block.items()})
    if config.pooling == "lstm":
        shapes.update({"lstm.w": (4 * h, d + h), "lstm.b": (4 * h,)})
    return shapes


def param_count(config: EncoderConfig, vocab_size: int) -> int:
    """param_size(param_shapes(config, vocab_size)), with one block's shapes
    counted once and multiplied, so no loop runs over num_blocks."""
    blockless = param_shapes(replace(config, num_blocks=0), vocab_size)
    return param_size(blockless) + config.num_blocks * param_size(_block_shapes(config))


def init_model(config: EncoderConfig, vocab: Vocabulary, rng: SeededRng) -> EncoderModel:
    """Seeded uniform(-a, a) init with a = sqrt(6/(fan_in+fan_out)) per matrix,
    each drawn from the sub-stream its dotted name spells (`block0.wq` from
    rng/"block0"/"wq"); layer-norm gains start at 1, biases at 0. The LSTM
    gates are row blocks i, f, o, g of `lstm.w` (4h, d+h) and `lstm.b` (4h),
    each block drawn from its own gate sub-stream; the forget-gate bias
    starts at 1."""
    h = config.lstm_hidden
    params = ParamSet(param_shapes(config, len(vocab)))
    for name, view in params.items():
        if name == "lstm.w":
            r = rng.substream("lstm")
            for k, gate in enumerate("ifog"):
                rows = view[k * h : (k + 1) * h]
                rows[...] = _glorot(r.substream(gate), rows.shape[1], h, rows.shape)
        elif name == "lstm.b":
            view[h : 2 * h] = 1.0
        elif view.ndim == 2:  # (fan_in, fan_out)
            r = rng
            for part in name.split("."):
                r = r.substream(part)
            view[...] = _glorot(r, *view.shape, view.shape)
        elif name.endswith("_g"):
            view[...] = 1.0
    return EncoderModel(config, vocab, params)


# ---------------------------------------------------------------------------
# layer primitives

def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x - mean) * invstd
    return gain * xhat + bias, (xhat, invstd, gain)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, invstd, gain = cache
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = invstd * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dgain, dbias


def attention_block_forward(
    x: np.ndarray, runs: list, params: dict[str, np.ndarray], prefix: str
):
    """Single-head scaled dot-product attention + residual + layer norm +
    position-wise ReLU FFN + residual + layer norm over token rows x (rows, d).
    Each run (row slice, B, T) of B sentences of T tokens attends as one
    (B, T, d) view; a row in no run gets no attention. Returns (out, cache).
    The cache holds x, q, k, v, each run's attention weights, the ReLU output
    and both layer norms' caches. Backward rebuilds the rest bit-exactly: the
    attention heads from the weights and v, the first norm's output from its
    cache, and the ReLU mask from the ReLU output."""
    d = x.shape[1]
    wq, wk, wv, wo = (params[f"{prefix}.{m}"] for m in ("wq", "wk", "wv", "wo"))
    q, k, v = (x @ w for w in (wq, wk, wv))
    heads, attn = np.zeros_like(q), []
    for rows, bsz, n in runs:
        qr, kr, vr = (m[rows].reshape(bsz, n, d) for m in (q, k, v))
        attn.append(softmax((qr @ kr.transpose(0, 2, 1)) / np.sqrt(d)))
        heads[rows] = (attn[-1] @ vr).reshape(-1, d)
    res1 = x + heads @ wo
    norm1, ln1_cache = layer_norm_forward(
        res1, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"]
    )
    pre_act = norm1 @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    hidden = np.maximum(pre_act, 0.0)
    ffn = hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    out, ln2_cache = layer_norm_forward(
        norm1 + ffn, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"]
    )
    return out, (x, q, k, v, attn, runs, hidden, ln1_cache, ln2_cache)


def attention_block_backward(
    dout: np.ndarray,
    cache,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    x, q, k, v, attn, runs, hidden, ln1_cache, ln2_cache = cache
    d = q.shape[1]
    wq, wk, wv, wo = (params[f"{prefix}.{m}"] for m in ("wq", "wk", "wv", "wo"))

    dres2, dg2, db2 = layer_norm_backward(dout, ln2_cache)
    grads[f"{prefix}.ln2_g"] += dg2
    grads[f"{prefix}.ln2_b"] += db2
    dffn = dres2
    dnorm1 = dres2.copy()

    dhidden = dffn @ params[f"{prefix}.w2"].T
    grads[f"{prefix}.w2"] += hidden.T @ dffn
    grads[f"{prefix}.b2"] += dffn.sum(axis=0)
    dpre = dhidden * (hidden > 0.0)  # hidden > 0 exactly where its pre-activation is
    dnorm1 += dpre @ params[f"{prefix}.w1"].T
    xhat1, _, ln1_g = ln1_cache
    norm1 = ln1_g * xhat1 + params[f"{prefix}.ln1_b"]  # layer_norm_forward's output
    grads[f"{prefix}.w1"] += norm1.T @ dpre
    grads[f"{prefix}.b1"] += dpre.sum(axis=0)

    dres1, dg1, db1 = layer_norm_backward(dnorm1, ln1_cache)
    grads[f"{prefix}.ln1_g"] += dg1
    grads[f"{prefix}.ln1_b"] += db1
    dproj = dres1
    dx = dres1.copy()

    dheads = dproj @ wo.T
    heads = np.zeros_like(dheads)  # the forward's heads, product for product
    for (rows, bsz, n), a in zip(runs, attn):
        heads[rows] = (a @ v[rows].reshape(bsz, n, d)).reshape(-1, d)
    grads[f"{prefix}.wo"] += heads.T @ dproj
    dq, dk, dv = (np.zeros_like(dheads) for _ in range(3))
    for (rows, bsz, n), a in zip(runs, attn):
        qr, kr, vr, dh = (m[rows].reshape(bsz, n, d) for m in (q, k, v, dheads))
        dattn = dh @ vr.transpose(0, 2, 1)
        dv[rows] = (a.transpose(0, 2, 1) @ dh).reshape(-1, d)
        # rowwise softmax Jacobian
        dscores = a * (dattn - (dattn * a).sum(axis=2, keepdims=True))
        dq[rows] = ((dscores @ kr) / np.sqrt(d)).reshape(-1, d)
        dk[rows] = ((dscores.transpose(0, 2, 1) @ qr) / np.sqrt(d)).reshape(-1, d)
    dx += dq @ wq.T + dk @ wk.T + dv @ wv.T
    grads[f"{prefix}.wq"] += x.T @ dq
    grads[f"{prefix}.wk"] += x.T @ dk
    grads[f"{prefix}.wv"] += x.T @ dv
    return dx


def _pack(lengths: np.ndarray):
    """Layout of a ragged batch run packed. Its rows are the sentences sorted
    longest first (`order`), plus an absent second row for a lone sentence.
    Step t works on rows [0, steps[t]): the sentences still running, but
    never fewer than 2 rows, since a 1-row product takes another BLAS path.
    Sorted rows [ends[t+1], ends[t]) end at step t. `gather` picks each
    step's inputs, time-major, from the sentences' concatenated token rows;
    index sum(lengths) marks a row past its end, which is fed zeros."""
    order = np.argsort(-lengths, kind="stable")
    rows = max(len(lengths), 2)
    row_len = np.zeros(rows, dtype=np.intp)
    row_start = np.zeros(rows, dtype=np.intp)
    row_len[: len(lengths)] = lengths[order]
    row_start[: len(lengths)] = (np.cumsum(lengths) - lengths)[order]
    t = np.arange(row_len[0])[:, None]
    ends = np.append((row_len > t).sum(axis=1), 0)
    steps = np.maximum(ends[:-1], 2)
    picks = np.where(t < row_len, row_start + t, lengths.sum())
    gather = picks[np.arange(rows) < steps[:, None]]
    return order, steps, ends, gather


def lstm_forward(y: np.ndarray, lengths, params: dict[str, np.ndarray], keep: bool = False):
    """Unidirectional LSTM, h_0 = c_0 = 0, over a ragged batch: y
    (sum(lengths), d) holds each sentence's token vectors in turn. The batch
    runs packed (see _pack), so no step touches padding. Returns each
    sentence's hidden state at its own last step, (n, h), and the cache for
    lstm_backward if `keep`, else None: then only the running h and c live
    across steps. The cache holds the step inputs x, the layout, each step's
    gate activations and cell state; the hidden state entering each step is
    not kept, since lstm_backward rebuilds it from the gates and cell."""
    w, b = params["lstm.w"], params["lstm.b"]
    d = y.shape[1]
    h_dim = w.shape[0] // 4
    order, steps, ends, gather = _pack(np.asarray(lengths))
    wx = np.ascontiguousarray(w[:, :d].T)
    wh = np.ascontiguousarray(w[:, d:].T)
    x = np.take(y, gather, axis=0, mode="clip")
    x[gather == len(y)] = 0.0
    # each step makes its own gates, so without `keep` the pack never holds
    # all of them at once
    gates = np.empty((len(x), 4 * h_dim)) if keep else None
    cs = np.empty((len(x), h_dim)) if keep else None
    last = np.empty((len(order), h_dim))
    h = c = np.zeros((steps[0], h_dim))
    lo = 0
    for t, m in enumerate(steps):
        # gate pre-activations, then activations in place: i, f, o, g row blocks
        a = np.matmul(x[lo : lo + m], wx, out=gates[lo : lo + m] if keep else None)
        a += b
        a += h[:m] @ wh
        a[:, : 3 * h_dim] = 1.0 / (1.0 + np.exp(-a[:, : 3 * h_dim]))  # sigmoid
        a[:, 3 * h_dim :] = np.tanh(a[:, 3 * h_dim :])
        i, f, o, g = np.split(a, 4, axis=1)
        c = f * c[:m] + i * g
        h = o * np.tanh(c)
        if keep:
            cs[lo : lo + m] = c
        last[ends[t + 1] : ends[t]] = h[ends[t + 1] : ends[t]]
        lo += m
    out = np.empty_like(last)
    out[order] = last
    return out, ([x, order, steps, ends, gather, gates, cs] if keep else None)


def lstm_backward(dh_last: np.ndarray, cache, params, grads) -> np.ndarray:
    """Backprop through time of the packed LSTM. Sentence b's upstream
    gradient enters at its own last step, so steps past a sentence's end get
    exact zero gradients. It uses up the cache: each step's gate gradients
    overwrite its gates, which no earlier step reads; step t+1's rows of the
    cell states, which no earlier step reads either, take the hidden state
    entering step t+1, o * tanh(c) of step t, before step t's o is
    overwritten; the gradient of x overwrites x once the weight gradient has
    read it; and the cache is emptied so its arrays go when this returns.
    Returns the gradient of y, in y's layout."""
    x, order, steps, ends, gather, gates, cs = cache
    cache.clear()
    w = params["lstm.w"]
    d = x.shape[1]
    h_dim = cs.shape[1]
    wh = np.ascontiguousarray(w[:, d:])
    offsets = np.cumsum(steps) - steps
    dh_rows = dh_last[order]
    dh = np.zeros((steps[0], h_dim))
    dc = np.zeros((steps[0], h_dim))
    for t in range(len(steps) - 1, -1, -1):
        m, lo = steps[t], offsets[t]
        dh[ends[t + 1] : ends[t]] += dh_rows[ends[t + 1] : ends[t]]
        da_t = gates[lo : lo + m]
        i, f, o, g = np.split(da_t, 4, axis=1)
        tanh_c = np.tanh(cs[lo : lo + m])
        c_prev = cs[offsets[t - 1] : offsets[t - 1] + m] if t else 0.0
        if t + 1 < len(steps):  # the forward's h = o * tanh(c), bit for bit
            cs[offsets[t + 1] : offsets[t + 1] + steps[t + 1]] = (o * tanh_c)[: steps[t + 1]]
        dc_t = dc[:m] + dh[:m] * o * (1.0 - tanh_c**2)
        di = dc_t * g * i * (1.0 - i)
        g[...] = dc_t * i * (1.0 - g**2)
        i[...] = di
        o[...] = dh[:m] * tanh_c * o * (1.0 - o)
        dc[:m] = dc_t * f
        f[...] = dc_t * c_prev * f * (1.0 - f)
        dh[:m] = da_t @ wh
    cs[: steps[0]] = 0.0  # h_0; cs now holds the h entering each step
    da = gates
    grads["lstm.w"][:, :d] += da.T @ x
    grads["lstm.w"][:, d:] += da.T @ cs
    grads["lstm.b"] += da.sum(axis=0)
    # ends[t] sentences run at step t, so ends sums to the token count; the
    # gradient of the zeros fed to rows past their end lands in a dropped row
    dy = np.zeros((ends.sum() + 1, d))
    dy[gather] = np.matmul(da, w[:, :d], out=x)
    return dy[:-1]


# ---------------------------------------------------------------------------
# full encoder

def _runs(lengths) -> list:
    """Each run of B consecutive sentences of length T as (row slice, B, T)."""
    sizes = [(len(list(group)), n) for n, group in itertools.groupby(lengths)]
    ends = list(itertools.accumulate(bsz * n for bsz, n in sizes))
    return [(slice(end - bsz * n, end), bsz, n) for end, (bsz, n) in zip(ends, sizes)]


def pool(tokens: np.ndarray, lengths, params, strategy: str, keep: bool = False):
    """Reduce flat token rows (sum(lengths), d), each sentence's rows in turn,
    to one vector per sentence. lstm runs the packed LSTM; mean averages each
    run's (B, T, d) view over T; cls and max pick one row per sentence and
    dimension, the sentence's first row or its first maximum. Returns
    (vectors, cache for pool_backward if `keep`, else None)."""
    if strategy == "lstm":
        return lstm_forward(tokens, lengths, params, keep)
    runs = _runs(lengths)
    if strategy == "mean":
        vectors = [tokens[rows].reshape(bsz, n, -1).sum(axis=1) / n for rows, bsz, n in runs]
        return np.concatenate(vectors), (np.array(lengths) if keep else None)
    picks = (np.cumsum(lengths) - lengths)[:, None]  # each sentence's first row
    if strategy == "max":  # argmax resolves ties to the first row
        argmax = [tokens[rows].reshape(bsz, n, -1).argmax(axis=1) for rows, bsz, n in runs]
        picks = picks + np.concatenate(argmax)
    elif strategy != "cls":
        raise EncoderError(f"unknown pooling strategy {strategy!r}")
    cols = np.arange(tokens.shape[1])
    return tokens[picks, cols], ((len(tokens), picks) if keep else None)


def pool_backward(demb: np.ndarray, cache, params, grads, strategy: str) -> np.ndarray:
    """Gradient of the token rows pool read, in their layout; lstm adds its
    parameter gradients to `grads`."""
    if strategy == "lstm":
        return lstm_backward(demb, cache, params, grads)
    if strategy == "mean":
        return np.repeat(demb / cache[:, None], cache, axis=0)
    n_rows, picks = cache
    dy = np.zeros((n_rows, demb.shape[1]))
    dy[picks, np.arange(demb.shape[1])] = demb
    return dy


def _token_layers(rows: list[list[int]], model: EncoderModel, keep: bool):
    """Embedding and attention blocks over one chunk of tokenize rows as flat
    token rows. Returns (ids, runs of equal lengths, token vectors (len(ids),
    d), the block caches if `keep`, else [])."""
    ids = np.concatenate(rows)
    # a 1-row product takes another BLAS path: a lone 1-token sentence runs
    # beside a copy of its row, which is in no run
    if len(ids) == 1:
        ids = np.repeat(ids, 2)
    runs = _runs(map(len, rows))
    x = embed_tokens(ids, model.params["embed"])
    block_caches = []
    for b in range(model.config.num_blocks):
        x, cache = attention_block_forward(x, runs, model.params, f"block{b}")
        if keep:
            block_caches.append(cache)
    return ids, runs, x, block_caches


def _forward(ids: list[list[int]], model: EncoderModel, keep: bool = True):
    """Encode one pack of tokenize rows, in the given order, as flat token
    rows. Each chunk of whole sentences (at most CHUNK_TOKENS rows, or one
    longer sentence) runs the embedding and attention blocks; pooling then
    runs once over the pack's rows. Returns ((n, output_dim) embeddings,
    cache for _backward if `keep`)."""
    lengths = [len(row) for row in ids]
    # rows filled in the current chunk; a sentence that does not fit starts
    # the next one
    filled = itertools.accumulate(lengths, lambda f, n: f + n if f + n <= CHUNK_TOKENS else n)
    starts = [i for i, (f, n) in enumerate(zip(filled, lengths)) if f == n] + [len(ids)]
    chunks, tokens = [], []
    for lo, hi in zip(starts, starts[1:]):
        chunk_ids, runs, x, block_caches = _token_layers(ids[lo:hi], model, keep)
        tokens.append(x[: runs[-1][0].stop])
        if keep:
            chunks.append((chunk_ids, runs, block_caches))
    tokens = np.concatenate(tokens)  # frees the chunks' outputs
    emb, pool_cache = pool(tokens, lengths, model.params, model.config.pooling, keep)
    return emb, ((chunks, pool_cache) if keep else None)


def encode(texts: list[str], model: EncoderModel, tape: list | None = None) -> np.ndarray:
    """Sentence embeddings (n, output_dim) in input order, computed in packs
    of PACK_SIZE length-sorted sentences, so equal lengths sit together and
    only one pack's activations are alive.
    When `tape` is a list, each pack's (positions, cache) is appended to it
    for _backward, which keeps every pack's activations alive instead."""
    if isinstance(texts, str):
        raise EncoderError("encode takes a list of texts, not a single str")
    cfg = model.config
    ids = [tokenize(text, model.vocab, cfg.max_len) for text in texts]
    out = np.empty((len(texts), cfg.output_dim))
    order = sorted(range(len(ids)), key=lambda i: len(ids[i]))  # stable
    for lo in range(0, len(ids), PACK_SIZE):
        positions = order[lo : lo + PACK_SIZE]
        out[positions], cache = _forward([ids[i] for i in positions], model, tape is not None)
        if tape is not None:
            tape.append((positions, cache))
    return out


def _backward(demb: np.ndarray, cache, model: EncoderModel, grads) -> None:
    """Accumulate into `grads` the gradients of sum_b <demb_b, embedding_b>
    for the pack that produced `cache`. It uses up the cache, dropping each
    chunk's activations once its gradients are in."""
    cfg = model.config
    chunks, pool_cache = cache
    n = sum(bsz for _, runs, _ in chunks for _, bsz, _ in runs)
    demb = np.asarray(demb, dtype=np.float64)
    if demb.shape != (n, cfg.output_dim):
        raise EncoderError(f"upstream gradient shape {demb.shape} != ({n}, {cfg.output_dim})")
    # each chunk's slice of the pack's token gradient
    cuts = np.cumsum([runs[-1][0].stop for _, runs, _ in chunks])[:-1]
    dtokens = np.split(pool_backward(demb, pool_cache, model.params, grads, cfg.pooling), cuts)
    while chunks:
        ids, runs, block_caches = chunks.pop(0)
        dy = np.zeros((len(ids), cfg.embed_dim))  # a lone row's copy gets none
        dy[: runs[-1][0].stop] = dtokens.pop(0)
        for b in range(cfg.num_blocks - 1, -1, -1):
            dy = attention_block_backward(dy, block_caches[b], model.params, grads, f"block{b}")
        np.add.at(grads["embed"], ids, dy)


# ---------------------------------------------------------------------------
# checkpointing

def save_model(model: EncoderModel, path: str | os.PathLike) -> None:
    """Write the format-3 JSON document: the encoder keys the model reads, the
    vocabulary, and `params`, the base64 of params.flat as little-endian
    float64 bytes, so load(save(m)) reproduces every parameter bit-exactly.
    The bytes are those of json.dump, but `params` is streamed in blocks of
    SAVE_BLOCK_BYTES, so no whole-vector copy of it is ever made."""
    # config.py imports this module, so the config rules are imported here
    from .config import read_fields

    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": read_fields(model.config, "encoder"),
        "vocab": model.vocab.tokens,
        "params": "",
    }
    # the head ends in the opening quote of the last key's empty string
    head = json.dumps(doc)[: -len('"}')]
    raw = memoryview(model.params.flat.astype("<f8", copy=False)).cast("B")
    with atomic_write(path) as handle:
        handle.write(head)
        for start in range(0, len(raw), SAVE_BLOCK_BYTES):
            block = raw[start : start + SAVE_BLOCK_BYTES]
            handle.write(base64.b64encode(block).decode("ascii"))
        handle.write('"}')


def load_model(path: str | os.PathLike) -> EncoderModel:
    """Read a format-3 checkpoint. Its config passes the run config's checks
    and holds every key the model reads, and its parameter bytes are exactly
    the finite float64 vector param_shapes lays out; else an EncoderError."""
    # config.py imports this module, so the config rules are imported here
    from .config import _build, _unique_keys, read_fields

    try:
        with open_input(path, "checkpoint") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        if (fmt := doc.get("format", 1)) != CHECKPOINT_FORMAT:
            raise EncoderError(f"checkpoint {path} has format {fmt!r}; only format "
                               f"{CHECKPOINT_FORMAT} (one base64 float64 vector) is read")
        config = _build(EncoderConfig, doc["config"], "encoder")
        # no default may stand in for a key the model reads
        if missing := read_fields(config, "encoder").keys() - doc["config"].keys():
            raise ValueError(f"config lacks keys {sorted(missing)} that the model reads")
        raw = base64.b64decode(doc["params"], validate=True)
        # every block holds parameters: too many is refused before any is laid out
        if config.num_blocks > len(raw) // 8:
            raise ValueError(f"{config.num_blocks} blocks in {len(raw)} parameter bytes")
        vocab = Vocabulary(doc["vocab"])
        shapes = param_shapes(config, len(vocab))
        size = param_size(shapes)
        if len(raw) != 8 * size:
            raise ValueError(f"{len(raw)} parameter bytes; the model needs {8 * size}")
        params = ParamSet(shapes)
        params.flat[...] = np.frombuffer(raw, dtype="<f8")
    # JSONDecodeError and binascii.Error are ValueErrors; AttributeError is a
    # document that is not a JSON object
    except (ConfigError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise EncoderError(f"malformed checkpoint {path}: {exc}") from exc
    if not np.isfinite(params.flat).all():
        raise EncoderError(f"non-finite parameters in checkpoint {path}")
    return EncoderModel(config, vocab, params)
