"""Siamese contrastive training: in-batch negatives ranking loss over cosine
similarities, AdamW with decoupled weight decay, linear warmup/decay schedule.

Both sentences of a pair are encoded by the same parameters (tied weights);
gradients from both towers accumulate into one shared gradient buffer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import ParaphrasePair, atomic_write
from .encoder import EncoderModel, ParamSet, _backward, encode
from .errors import ConfigError, DivergenceError, NumericError, check_declared
from .numeric import SeededRng, logsumexp, softmax, unit_rows

logger = logging.getLogger(__name__)

# Adam moment decay rates and denominator guard, shared by training and the probe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Most optimizer steps one train call may take, epochs times batches per
# epoch, checked before step 1: the loss history keeps a record of each step.
STEP_CEILING = 2**20

# Elements per AdamW pass: the scratch vectors stay this small however large
# the model is, while each numpy call still covers many elements.
ADAMW_BLOCK = 1 << 15


@dataclass
class TrainConfig:
    # a batch of one pair has no in-batch negative and so zero gradient
    batch_size: int = field(default=64, metadata={"min": 2})
    # each epoch takes at least one step, so more epochs can never train
    epochs: int = field(default=3, metadata={"min": 0, "max": STEP_CEILING})
    # the original full-scale run used 2e-6
    peak_lr: float = field(default=1e-3, metadata={"gt": 0})
    warmup_ratio: float = field(default=0.10, metadata={"min": 0, "max": 1})
    weight_decay: float = field(default=0.01, metadata={"min": 0})
    temperature: float = field(default=1.0, metadata={"gt": 0})

    def __post_init__(self):
        check_declared(self, "training.")


class OptimizerState:
    def __init__(self, params: ParamSet):
        self.m, self.v = params.zeros_like(), params.zeros_like()
        # two work vectors of at most ADAMW_BLOCK elements; each block of the
        # update runs in views of them
        size = min(params.flat.size, ADAMW_BLOCK)
        self.scratch = (np.empty(size), np.empty(size))
        self.step = 0


@dataclass
class StepRecord:
    step: int
    epoch: int
    lr: float
    loss: float


def similarity_matrix(a: np.ndarray, b: np.ndarray, temperature: float = 1.0):
    """K x K matrix of cosine(a_i, b_j) / temperature for anchors a and
    positives b. Returns (matrix, cache); the cache holds the unit rows and
    norms of both sides and the cosines, which the gradient of the matrix
    needs."""
    try:
        (an, na), (bn, nb) = unit_rows(a), unit_rows(b)
    except NumericError as exc:
        raise DivergenceError("zero-norm sentence embedding in batch") from exc
    cos = an @ bn.T
    return cos / temperature, (an, na, bn, nb, cos)


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
    params: ParamSet, grads: ParamSet, state: OptimizerState, lr: float, weight_decay: float
) -> None:
    """One AdamW update in place: Adam moments with bias correction plus
    decoupled weight decay. It walks the flat vectors in blocks of
    ADAMW_BLOCK elements and writes every product and quotient into the
    state's two scratch vectors, in the order of
    p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)."""
    if not np.isfinite(grads.flat).all():
        raise DivergenceError("non-finite gradient; aborting optimizer step")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for lo in range(0, params.flat.size, ADAMW_BLOCK):
        block = slice(lo, lo + ADAMW_BLOCK)
        p, g = params.flat[block], grads.flat[block]
        m, v = state.m.flat[block], state.v.flat[block]
        s1, s2 = (buf[: p.size] for buf in state.scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s1)
        np.multiply(g, 1.0 - b2, out=s1)
        s1 *= g
        v *= b2
        v += s1
        np.divide(v, 1.0 - b2**t, out=s1)  # v_hat
        np.sqrt(s1, out=s1)
        s1 += ADAM_EPS
        np.divide(m, 1.0 - b1**t, out=s2)  # m_hat
        s2 /= s1
        s2 += np.multiply(p, weight_decay, out=s1)
        s2 *= lr
        p -= s2


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
    return peak * (total_steps - step) / (total_steps - warmup)


def _dedupe_positives(batches: list[list[ParaphrasePair]]) -> None:
    """Best-effort swap so no batch holds two identical positive texts,
    trying later batches first and then earlier ones; duplicates that cannot
    be swapped away are kept with a warning."""
    for bi, batch in enumerate(batches):
        seen: set[str] = set()
        for pi, pair in enumerate(batch):
            if pair.b not in seen:
                seen.add(pair.b)
                continue
            for other in [*batches[bi + 1 :], *batches[:bi]]:
                if any(p.b == pair.b for p in other):
                    continue  # the duplicate would be a duplicate there too
                pj = next((j for j, cand in enumerate(other) if cand.b not in seen), None)
                if pj is not None:
                    batch[pi], other[pj] = other[pj], pair
                    seen.add(batch[pi].b)
                    break
            else:
                logger.warning(
                    "batch %d keeps duplicate positive text %r (false negative)",
                    bi,
                    pair.b,
                )


def make_batches(
    pairs: list[ParaphrasePair], k: int, rng: SeededRng
) -> list[list[ParaphrasePair]]:
    """Shuffle, chunk into batches of K and drop a trailing 1-pair chunk: a
    1-pair batch has no in-batch negative and so zero gradient."""
    if len(pairs) < 2:
        raise ValueError(f"{len(pairs)} training pairs; a batch needs at least 2")
    shuffled = rng.shuffle(pairs)
    batches = [shuffled[i : i + k] for i in range(0, len(shuffled), k)]
    if len(batches[-1]) < 2:
        batches.pop()
    _dedupe_positives(batches)
    return batches


def batch_loss_and_grads(
    pairs: list[ParaphrasePair], model: EncoderModel, temperature: float
) -> tuple[float, ParamSet]:
    """Loss of one batch plus analytic parameter gradients through both towers.

    All 2K texts go through `encode`, whose tape is then replayed backward."""
    k = len(pairs)
    tape: list = []
    emb = encode([p.a for p in pairs] + [p.b for p in pairs], model, tape)
    s, (an, na, bn, nb, cos) = similarity_matrix(emb[:k], emb[k:], temperature)
    loss = mnr_loss(s)
    ds = mnr_loss_grad(s) / temperature

    # d cos(a_i, b_j) / d a_i = (b_j/|b_j| - cos * a_i/|a_i|) / |a_i|
    da = (ds @ bn - (ds * cos).sum(axis=1, keepdims=True) * an) / na[:, None]
    db = (ds.T @ an - (ds * cos).sum(axis=0)[:, None] * bn) / nb[:, None]
    demb = np.concatenate([da, db])

    grads = model.params.zeros_like()
    while tape:  # drop each pack's activations once its gradients are in
        idx, cache = tape.pop(0)
        _backward(demb[idx], cache, model, grads)
    return loss, grads


def train(
    pairs: list[ParaphrasePair], model: EncoderModel, config: TrainConfig, seed: int
) -> list[StepRecord]:
    """Fine-tune the model in place; returns the per-step loss history.
    `seed` decides the batch order of every epoch. A floating-point overflow
    or invalid operation anywhere in a step is a divergence. More than
    STEP_CEILING steps in all is a ConfigError before the first."""
    k = config.batch_size
    batches_per_epoch = len(pairs) // k + (len(pairs) % k >= 2)  # as make_batches cuts
    steps = config.epochs * batches_per_epoch
    if steps > STEP_CEILING:
        raise ConfigError(f"training.epochs {config.epochs} of {batches_per_epoch} batches "
                          f"make {steps} steps, over the ceiling of {STEP_CEILING}")
    rng = SeededRng(seed).substream("training")
    state = OptimizerState(model.params)
    history: list[StepRecord] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                # built when its epoch starts; every epoch has as many batches
                batches = make_batches(pairs, k, rng.substream(f"epoch{epoch}"))
                for step, batch_pairs in enumerate(batches, start=len(history) + 1):
                    loss, grads = batch_loss_and_grads(batch_pairs, model, config.temperature)
                    lr = lr_schedule(step, steps, config.peak_lr, config.warmup_ratio)
                    adamw_step(model.params, grads, state, lr, config.weight_decay)
                    del grads  # free them before the next batch builds its own
                    history.append(StepRecord(step, epoch, lr, loss))
    except FloatingPointError as exc:
        raise DivergenceError(f"{exc} at step {len(history) + 1}") from exc
    return history


def write_loss_csv(history: list[StepRecord], path) -> None:
    with atomic_write(path) as handle:
        handle.write("step,epoch,lr,loss\n")
        for rec in history:
            handle.write(f"{rec.step},{rec.epoch},{rec.lr!r},{rec.loss!r}\n")
