"""Trainable sentence encoder: tokenizer, embeddings, self-attention blocks,
and four pooling strategies (cls / mean / max / LSTM last hidden state).

Layers work on padded batches `(B, T, d)` with a `(B, T)` mask of real tokens;
padding never reaches an embedding and gets exact zero gradients. Backward
passes are analytic and checked against central finite differences in the
test suite. Under lstm pooling the output has `lstm_hidden` dimensions,
otherwise `embed_dim`.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .corpus import atomic_write, open_input
from .errors import EncoderError
from .numeric import SeededRng, softmax

PAD_TOKEN, UNK_TOKEN, CLS_TOKEN = "<pad>", "<unk>", "<cls>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN)
PAD_ID, UNK_ID, CLS_ID = 0, 1, 2

POOLING_STRATEGIES = ("cls", "mean", "max", "lstm")

LAYER_NORM_EPS = 1e-5

# Sentences per padded batch: larger chunks pad more and hold more
# activations at once, smaller ones take more Python steps per sentence.
CHUNK_SIZE = 8

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def word_tokens(text: str) -> list[str]:
    """Lowercased word-level tokens with punctuation split off."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    tokens: list[str]  # in id order; specials first
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) != len(tokens):
            raise EncoderError("duplicate tokens in vocabulary")
        for tok, want in zip(SPECIAL_TOKENS, range(3)):
            if index.get(tok) != want:
                raise EncoderError("special tokens missing or misplaced")
        return cls(tokens, index)

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
    return Vocabulary.from_tokens(list(SPECIAL_TOKENS) + kept)


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


def _length_chunks(texts: list[str]) -> list[list[int]]:
    """Indices of `texts` sorted by token count (stable), cut into chunks of
    at most CHUNK_SIZE, so each padded batch holds sentences of similar length."""
    order = sorted(range(len(texts)), key=lambda i: len(word_tokens(texts[i])))
    return [order[i : i + CHUNK_SIZE] for i in range(0, len(order), CHUNK_SIZE)]


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


@dataclass
class EncoderModel:
    config: EncoderConfig
    vocab: Vocabulary
    params: dict[str, np.ndarray]

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(p) for name, p in self.params.items()}


def _glorot(rng: SeededRng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_model(config: EncoderConfig, vocab: Vocabulary, rng: SeededRng) -> EncoderModel:
    """Seeded uniform(-a, a) init with a = sqrt(6/(fan_in+fan_out)) per matrix;
    LSTM forget-gate bias starts at 1, all other biases at 0. The LSTM gates
    are row blocks i, f, o, g of `lstm.w` (4h, d+h) and `lstm.b` (4h), each
    block drawn from its own gate sub-stream."""
    d, f, h = config.embed_dim, config.ffn_dim, config.lstm_hidden
    params: dict[str, np.ndarray] = {}
    params["embed"] = _glorot(rng.substream("embed"), len(vocab), d, (len(vocab), d))
    for b in range(config.num_blocks):
        r = rng.substream(f"block{b}")
        for name in ("wq", "wk", "wv", "wo"):
            params[f"block{b}.{name}"] = _glorot(r.substream(name), d, d, (d, d))
        params[f"block{b}.w1"] = _glorot(r.substream("w1"), d, f, (d, f))
        params[f"block{b}.b1"] = np.zeros(f)
        params[f"block{b}.w2"] = _glorot(r.substream("w2"), f, d, (f, d))
        params[f"block{b}.b2"] = np.zeros(d)
        params[f"block{b}.ln1_g"] = np.ones(d)
        params[f"block{b}.ln1_b"] = np.zeros(d)
        params[f"block{b}.ln2_g"] = np.ones(d)
        params[f"block{b}.ln2_b"] = np.zeros(d)
    r = rng.substream("lstm")
    params["lstm.w"] = np.concatenate(
        [_glorot(r.substream(gate), d + h, h, (h, d + h)) for gate in "ifog"]
    )
    params["lstm.b"] = np.concatenate([np.zeros(h), np.ones(h), np.zeros(2 * h)])
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
    x: np.ndarray, mask: np.ndarray, params: dict[str, np.ndarray], prefix: str
):
    """Single-head scaled dot-product attention + residual + layer norm +
    position-wise ReLU FFN + residual + layer norm over a padded batch
    x (B, T, d). Padded keys (mask False) get zero attention weight.
    Returns (output, cache)."""
    bsz, n, d = x.shape
    wq, wk, wv, wo = (params[f"{prefix}.{m}"] for m in ("wq", "wk", "wv", "wo"))
    x2 = x.reshape(-1, d)  # position-wise layers see one row per token
    q, k, v = ((x2 @ w).reshape(bsz, n, d) for w in (wq, wk, wv))
    scores = (q @ k.transpose(0, 2, 1)) / np.sqrt(d)
    attn = softmax(np.where(mask[:, None, :], scores, -np.inf))
    heads = (attn @ v).reshape(-1, d)
    res1 = x2 + heads @ wo
    norm1, ln1_cache = layer_norm_forward(
        res1, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"]
    )
    pre_act = norm1 @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    hidden = np.maximum(pre_act, 0.0)
    ffn = hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    out, ln2_cache = layer_norm_forward(
        norm1 + ffn, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"]
    )
    cache = (x2, q, k, v, attn, heads, norm1, pre_act, hidden, ln1_cache, ln2_cache)
    return out.reshape(bsz, n, d), cache


def attention_block_backward(
    dout: np.ndarray,
    cache,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    x, q, k, v, attn, heads, norm1, pre_act, hidden, ln1_cache, ln2_cache = cache
    bsz, n, d = q.shape
    wq, wk, wv, wo = (params[f"{prefix}.{m}"] for m in ("wq", "wk", "wv", "wo"))

    dres2, dg2, db2 = layer_norm_backward(dout.reshape(-1, d), ln2_cache)
    grads[f"{prefix}.ln2_g"] += dg2
    grads[f"{prefix}.ln2_b"] += db2
    dffn = dres2
    dnorm1 = dres2.copy()

    dhidden = dffn @ params[f"{prefix}.w2"].T
    grads[f"{prefix}.w2"] += hidden.T @ dffn
    grads[f"{prefix}.b2"] += dffn.sum(axis=0)
    dpre = dhidden * (pre_act > 0.0)
    dnorm1 += dpre @ params[f"{prefix}.w1"].T
    grads[f"{prefix}.w1"] += norm1.T @ dpre
    grads[f"{prefix}.b1"] += dpre.sum(axis=0)

    dres1, dg1, db1 = layer_norm_backward(dnorm1, ln1_cache)
    grads[f"{prefix}.ln1_g"] += dg1
    grads[f"{prefix}.ln1_b"] += db1
    dproj = dres1
    dx = dres1.copy()

    dheads = (dproj @ wo.T).reshape(bsz, n, d)
    grads[f"{prefix}.wo"] += heads.T @ dproj
    dattn = dheads @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ dheads
    # rowwise softmax Jacobian; masked keys have attn == 0 and get no gradient
    dscores = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    dq = ((dscores @ k) / np.sqrt(d)).reshape(-1, d)
    dk = ((dscores.transpose(0, 2, 1) @ q) / np.sqrt(d)).reshape(-1, d)
    dv = dv.reshape(-1, d)
    dx += dq @ wq.T + dk @ wk.T + dv @ wv.T
    grads[f"{prefix}.wq"] += x.T @ dq
    grads[f"{prefix}.wk"] += x.T @ dk
    grads[f"{prefix}.wv"] += x.T @ dv
    return dx.reshape(bsz, n, d)


def lstm_forward(y: np.ndarray, params: dict[str, np.ndarray]):
    """Unidirectional LSTM over a padded batch y (B, T, d); h_0 = c_0 = 0.
    Steps past a sentence's length cannot reach its state at step len-1, so
    no mask is needed. Returns (hidden_states, cell_states, cache), (B, T, h)."""
    w, b = params["lstm.w"], params["lstm.b"]
    bsz, n, d = y.shape
    h_dim = w.shape[0] // 4
    wh = w[:, d:].T
    # gate pre-activations, then activations in place: i, f, o, g row blocks
    gates = y.reshape(-1, d) @ w[:, :d].T
    gates += b
    gates = gates.reshape(bsz, n, 4 * h_dim)
    hs = np.zeros((bsz, n, h_dim))
    cs = np.zeros((bsz, n, h_dim))
    h = c = np.zeros((bsz, h_dim))
    for t in range(n):
        a = gates[:, t]
        a += h @ wh
        a[:, : 3 * h_dim] = 1.0 / (1.0 + np.exp(-a[:, : 3 * h_dim]))  # sigmoid
        a[:, 3 * h_dim :] = np.tanh(a[:, 3 * h_dim :])
        i, f, o, g = np.split(a, 4, axis=1)
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t], cs[:, t] = h, c
    return hs, cs, (y, hs, cs, gates)


def lstm_backward(dh_last: np.ndarray, lengths: np.ndarray, cache, params, grads):
    """Backprop through time. Sentence b's upstream gradient enters at its
    step lengths[b]-1, so its padded steps get exact zero gradients."""
    y, hs, cs, gates = cache
    w = params["lstm.w"]
    bsz, n, d = y.shape
    h_dim = hs.shape[2]
    wh = w[:, d:]
    da = np.empty_like(gates)
    dh = np.zeros((bsz, h_dim))
    dc = np.zeros((bsz, h_dim))
    for t in range(n - 1, -1, -1):
        ends = lengths - 1 == t
        dh[ends] += dh_last[ends]
        i, f, o, g = np.split(gates[:, t], 4, axis=1)
        tanh_c = np.tanh(cs[:, t])
        c_prev = cs[:, t - 1] if t else 0.0
        dc = dc + dh * o * (1.0 - tanh_c**2)
        da_t = da[:, t]
        da_t[:, :h_dim] = dc * g * i * (1.0 - i)
        da_t[:, h_dim : 2 * h_dim] = dc * c_prev * f * (1.0 - f)
        da_t[:, 2 * h_dim : 3 * h_dim] = dh * tanh_c * o * (1.0 - o)
        da_t[:, 3 * h_dim :] = dc * i * (1.0 - g**2)
        dc = dc * f
        dh = da_t @ wh
    h_prev = np.concatenate([np.zeros((bsz, 1, h_dim)), hs[:, :-1]], axis=1)
    da = da.reshape(-1, 4 * h_dim)
    grads["lstm.w"][:, :d] += da.T @ y.reshape(-1, d)
    grads["lstm.w"][:, d:] += da.T @ h_prev.reshape(-1, h_dim)
    grads["lstm.b"] += da.sum(axis=0)
    return (da @ w[:, :d]).reshape(bsz, n, d)


# ---------------------------------------------------------------------------
# full encoder

def pool(y: np.ndarray, mask: np.ndarray, strategy: str, params: dict | None = None):
    """Reduce a padded batch of token vectors (B, T, d) to one vector per
    sentence, looking only at real tokens. Returns (vectors, cache)."""
    if strategy == "cls":
        return y[:, 0].copy(), None
    if strategy == "mean":
        return (y * mask[..., None]).sum(axis=1) / mask.sum(axis=1)[:, None], None
    if strategy == "max":
        # ties resolve to the first index
        argmax = np.where(mask[..., None], y, -np.inf).argmax(axis=1)
        return np.take_along_axis(y, argmax[:, None, :], axis=1)[:, 0], argmax
    if strategy == "lstm":
        hs, _, lstm_cache = lstm_forward(y, params)
        last = mask.sum(axis=1) - 1
        return hs[np.arange(y.shape[0]), last], lstm_cache
    raise EncoderError(f"unknown pooling strategy {strategy!r}")


def _forward(texts: list[str], model: EncoderModel):
    """Encode one padded batch: tokenize -> embed -> attention blocks -> pool.
    Returns ((B, output_dim) embeddings, cache for _backward)."""
    cfg = model.config
    ids = [tokenize(text, model.vocab, cfg.max_len) for text in texts]
    lengths = np.array([len(row) for row in ids])
    mask = np.arange(lengths.max()) < lengths[:, None]
    padded = np.full(mask.shape, PAD_ID)
    padded[mask] = np.concatenate(ids)
    x = embed_tokens(padded, model.params["embed"])
    block_caches = []
    for b in range(cfg.num_blocks):
        x, cache = attention_block_forward(x, mask, model.params, f"block{b}")
        block_caches.append(cache)
    emb, pool_cache = pool(x, mask, cfg.pooling, model.params)
    return emb, (padded, mask, block_caches, x, pool_cache)


def encode(texts: list[str], model: EncoderModel) -> np.ndarray:
    """Sentence embeddings (n, output_dim) in input order, computed in
    length-sorted padded chunks so only one chunk's activations are alive."""
    if isinstance(texts, str):
        raise EncoderError("encode takes a list of texts, not a single str")
    out = np.empty((len(texts), model.config.output_dim))
    for idx in _length_chunks(texts):
        out[idx], _ = _forward([texts[i] for i in idx], model)
    return out


def _backward(demb: np.ndarray, cache, model: EncoderModel, grads) -> None:
    """Accumulate into `grads` the gradients of sum_b <demb_b, embedding_b>
    for the batch that produced `cache`."""
    cfg = model.config
    padded, mask, block_caches, y, pool_cache = cache
    demb = np.asarray(demb, dtype=np.float64)
    if demb.shape != (y.shape[0], cfg.output_dim):
        raise EncoderError(
            f"upstream gradient shape {demb.shape} != ({y.shape[0]}, {cfg.output_dim})"
        )
    lengths = mask.sum(axis=1)
    if cfg.pooling == "cls":
        dy = np.zeros_like(y)
        dy[:, 0] = demb
    elif cfg.pooling == "mean":
        dy = mask[..., None] * (demb / lengths[:, None])[:, None, :]
    elif cfg.pooling == "max":
        dy = np.zeros_like(y)
        np.put_along_axis(dy, pool_cache[:, None, :], demb[:, None, :], axis=1)
    else:  # lstm
        dy = lstm_backward(demb, lengths, pool_cache, model.params, grads)
    for b in range(cfg.num_blocks - 1, -1, -1):
        dy = attention_block_backward(
            dy, block_caches[b], model.params, grads, f"block{b}"
        )
    np.add.at(grads["embed"], padded[mask], dy[mask])


def finite_difference_grad(
    loss_fn: Callable[[EncoderModel], float], model: EncoderModel, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference gradient of loss_fn per scalar parameter."""
    if eps <= 0:
        raise EncoderError("eps must be positive")
    grads = {}
    for name, tensor in model.params.items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn(model)
            flat[idx] = orig - eps
            down = loss_fn(model)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * eps)
        grads[name] = grad
    return grads


# ---------------------------------------------------------------------------
# checkpointing

def save_model(model: EncoderModel, path: str | os.PathLike) -> None:
    """Write config, vocabulary and all parameter tensors as a JSON document.

    Floats are serialized with shortest round-trip repr, so load(save(m))
    reproduces every parameter bit-exactly.
    """
    doc = {
        "config": asdict(model.config),
        "vocab": model.vocab.tokens,
        "params": {
            name: {"shape": list(t.shape), "data": t.reshape(-1).tolist()}
            for name, t in model.params.items()
        },
    }
    with atomic_write(path) as handle:
        json.dump(doc, handle)


def load_model(path: str | os.PathLike) -> EncoderModel:
    """Read a checkpoint written by save_model. Raises EncoderError for a
    malformed document, or unless its tensor names and shapes are exactly
    those init_model makes for the stored config and vocabulary."""
    try:
        with open_input(path, "checkpoint") as handle:
            doc = json.load(handle)
        config = EncoderConfig(**doc["config"])
        vocab = Vocabulary.from_tokens(doc["vocab"])
        # the reference model is freed before the stored tensors are built
        expected = {n: t.shape for n, t in init_model(config, vocab, SeededRng(0)).params.items()}
        params = {
            name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc["params"].items()
        }
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError included
        raise EncoderError(f"malformed checkpoint {path}: {exc}") from exc
    diff = set(expected.items()) ^ {(n, t.shape) for n, t in params.items()}
    if diff:
        raise EncoderError(f"checkpoint {path}: tensors differ from the config: {sorted(diff)}")
    for tensor in params.values():
        if not np.all(np.isfinite(tensor)):
            raise EncoderError(f"non-finite parameters in checkpoint {path}")
    return EncoderModel(config, vocab, params)
