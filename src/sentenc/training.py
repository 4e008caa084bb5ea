"""Siamese contrastive training: in-batch negatives ranking loss over cosine
similarities, AdamW with decoupled weight decay, linear warmup/decay schedule.

Both sentences of a pair are encoded by the same parameters (tied weights);
gradients from both towers accumulate into one shared gradient buffer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ParaphrasePair, atomic_write
from .encoder import EncoderModel, _backward, _forward, _length_chunks
from .errors import DivergenceError
from .numeric import SeededRng, logsumexp, softmax

logger = logging.getLogger(__name__)

# Adam moment decay rates and denominator guard, shared by training and the probe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 3
    peak_lr: float = 1e-3  # the original full-scale run used 2e-6
    warmup_ratio: float = 0.10
    weight_decay: float = 0.01
    temperature: float = 1.0

    def __post_init__(self):
        # a batch of one pair has no in-batch negative and so zero gradient
        if self.batch_size < 2:
            raise ValueError(f"batch_size {self.batch_size!r} must be >= 2")
        if self.epochs < 0:
            raise ValueError(f"epochs {self.epochs!r} must be >= 0")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must be in [0, 1]")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay {self.weight_decay!r} must be >= 0")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class StepRecord:
    step: int
    epoch: int
    lr: float
    loss: float


def similarity_matrix(a: np.ndarray, b: np.ndarray, temperature: float = 1.0):
    """K x K matrix of cosine(a_i, b_j) / temperature for anchors a and
    positives b. Returns (matrix, cache); the cache holds the unit rows and
    norms of both sides, which the gradient of the matrix needs."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DivergenceError("zero-norm sentence embedding in batch")
    an, bn = a / na[:, None], b / nb[:, None]
    return (an @ bn.T) / temperature, (an, na, bn, nb)


def mnr_loss(s: np.ndarray) -> float:
    """Multiple negatives ranking loss: mean over rows of
    logsumexp(row) - diagonal entry. Always >= 0."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("similarity matrix must be square")
    return float(np.sum(logsumexp(s) - np.diag(s)) / s.shape[0])


def mnr_loss_grad(s: np.ndarray) -> np.ndarray:
    """d loss / d s_ij = (softmax_row_i(s)_j - delta_ij) / K; rows sum to 0."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("similarity matrix must be square")
    k = s.shape[0]
    return (softmax(s) - np.eye(k)) / k


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update in place: Adam moments with bias correction plus
    decoupled weight decay."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient; aborting optimizer step")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)


def lr_schedule(step: int, total_steps: int, peak: float, warmup_ratio: float) -> float:
    """Linear ramp 0 -> peak over the first ceil(warmup_ratio * total_steps)
    steps, then linear decay peak -> 0 at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    if total_steps == warmup:
        return peak if step == warmup else 0.0
    return peak * (total_steps - step) / (total_steps - warmup)


def _dedupe_positives(batches: list[list[ParaphrasePair]]) -> None:
    """Best-effort swap so no batch holds two identical positive texts;
    duplicates that cannot be swapped away are kept with a warning."""
    for bi, batch in enumerate(batches):
        seen: set[str] = set()
        for pi, pair in enumerate(batch):
            if pair.b not in seen:
                seen.add(pair.b)
                continue
            swapped = False
            for bj in range(bi + 1, len(batches)):
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
                logger.warning(
                    "batch %d keeps duplicate positive text %r (false negative)",
                    bi,
                    pair.b,
                )


def make_batches(
    pairs: list[ParaphrasePair], k: int, rng: SeededRng
) -> list[list[ParaphrasePair]]:
    """Shuffle, chunk into batches of K, drop a trailing 1-pair chunk unless
    it is the only batch (a 1-pair batch has zero gradient either way)."""
    if not pairs:
        raise ValueError("empty training dataset")
    shuffled = rng.shuffle(pairs)
    batches = [shuffled[i : i + k] for i in range(0, len(shuffled), k)]
    if len(batches) > 1 and len(batches[-1]) < 2:
        batches.pop()
    _dedupe_positives(batches)
    return batches


def batch_loss_and_grads(
    pairs: list[ParaphrasePair], model: EncoderModel, temperature: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss of one batch plus analytic parameter gradients through both towers.

    All 2K texts go through the encoder in length-sorted padded chunks."""
    k = len(pairs)
    texts = [p.a for p in pairs] + [p.b for p in pairs]
    emb = np.empty((2 * k, model.config.output_dim))
    caches = []
    for idx in _length_chunks(texts):
        emb[idx], cache = _forward([texts[i] for i in idx], model)
        caches.append((idx, cache))
    s, (an, na, bn, nb) = similarity_matrix(emb[:k], emb[k:], temperature)
    loss = mnr_loss(s)
    ds = mnr_loss_grad(s) / temperature

    cos = an @ bn.T
    # d cos(a_i, b_j) / d a_i = (b_j/|b_j| - cos * a_i/|a_i|) / |a_i|
    da = (ds @ bn - (ds * cos).sum(axis=1, keepdims=True) * an) / na[:, None]
    db = (ds.T @ an - (ds * cos).sum(axis=0)[:, None] * bn) / nb[:, None]
    demb = np.concatenate([da, db])

    grads = model.zero_grads()
    while caches:  # drop each chunk's activations once its gradients are in
        idx, cache = caches.pop(0)
        _backward(demb[idx], cache, model, grads)
    return loss, grads


def train(
    pairs: list[ParaphrasePair], model: EncoderModel, config: TrainConfig, seed: int
) -> list[StepRecord]:
    """Fine-tune the model in place; returns the per-step loss history.
    `seed` decides the batch order of every epoch. A floating-point overflow
    or invalid operation anywhere in a step is a divergence."""
    rng = SeededRng(seed).substream("training")
    schedule = [
        (epoch, batch)
        for epoch in range(config.epochs)
        for batch in make_batches(pairs, config.batch_size, rng.substream(f"epoch{epoch}"))
    ]
    state = OptimizerState.for_params(model.params)
    history: list[StepRecord] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step, (epoch, batch_pairs) in enumerate(schedule, start=1):
                loss, grads = batch_loss_and_grads(batch_pairs, model, config.temperature)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at step {step}")
                lr = lr_schedule(step, len(schedule), config.peak_lr, config.warmup_ratio)
                adamw_step(model.params, grads, state, lr, config.weight_decay)
                history.append(StepRecord(step, epoch, lr, loss))
    except FloatingPointError as exc:
        raise DivergenceError(f"{exc} at step {len(history) + 1}") from exc
    return history


def write_loss_csv(history: list[StepRecord], path) -> None:
    with atomic_write(path) as handle:
        handle.write("step,epoch,lr,loss\n")
        for rec in history:
            handle.write(f"{rec.step},{rec.epoch},{rec.lr!r},{rec.loss!r}\n")
