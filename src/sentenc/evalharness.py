"""Frozen-embedding evaluation: train a one-hidden-layer probe on sentence
embeddings, report accuracy for classification and Spearman rank correlation
for regression tasks. The encoder is never updated here.

Pair tasks are featurized as [u; v; |u - v|; u * v].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EvalRecord
from .encoder import EncoderModel, ParamSet, _glorot, encode
from .errors import EvalError
from .numeric import SeededRng, softmax
from .training import OptimizerState, adamw_step, lr_schedule

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_HIDDEN = 64
PROBE_ITERATIONS = 200
PROBE_LR = 0.02


@dataclass
class EvalTask:
    name: str
    kind: str  # classification | regression
    train: list[EvalRecord]
    validation: list[EvalRecord]
    test: list[EvalRecord]

    def __post_init__(self):
        if not (self.train and self.validation and self.test):
            raise EvalError(f"task {self.name}: all three splits must be nonempty")
        if len(self.train) < 2:
            raise EvalError(f"task {self.name}: train split needs at least 2 records")
        if self.kind == "classification":
            train_classes = {r.label for r in self.train}
            if len(train_classes) < 2:
                raise EvalError(f"task {self.name}: train split needs at least 2 distinct labels")
            for split_name, split in (("validation", self.validation), ("test", self.test)):
                extra = {r.label for r in split} - train_classes
                if extra:
                    raise EvalError(
                        f"task {self.name}: {split_name} classes {extra} not in train"
                    )
        else:  # spearman needs two distinct scores in each scored split
            for split_name, split in (("validation", self.validation), ("test", self.test)):
                if len({r.label for r in split}) < 2:
                    raise EvalError(
                        f"task {self.name}: {split_name} split needs at least 2 "
                        "records with 2 distinct scores"
                    )


@dataclass
class ProbeModel:
    params: ParamSet  # w1, b1, w2, b2
    classes: list[str] | None  # None for regression
    l2: float


@dataclass
class EvalResult:
    task: str
    metric: str  # accuracy | spearman
    value: float
    l2: float


def featurize(records: list[EvalRecord], model: EncoderModel) -> np.ndarray:
    """One feature row per record: the embedding for single-sentence records,
    [u; v; |u - v|; u * v] for pairs. Both sides of the pairs go through one
    encode call, so its packs hold twice the sentences."""
    first = [r.sentences[0] for r in records]
    if all(len(r.sentences) == 1 for r in records):
        return encode(first, model)
    both = encode(first + [r.sentences[1] for r in records], model)
    u, v = both[: len(records)], both[len(records) :]
    return np.concatenate([u, v, np.abs(u - v), u * v], axis=1)


def probe_shapes(in_dim: int, hidden: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of each probe tensor."""
    return {"w1": (in_dim, hidden), "b1": (hidden,), "w2": (hidden, out_dim), "b2": (out_dim,)}


def _probe_forward(params: ParamSet, x: np.ndarray):
    hidden = np.tanh(x @ params["w1"] + params["b1"])
    return hidden, hidden @ params["w2"] + params["b2"]


def train_probe(
    features: np.ndarray,
    labels,
    kind: str,
    hidden: int = DEFAULT_HIDDEN,
    l2: float = 1e-3,
    seed: int = 0,
) -> ProbeModel:
    """Full-batch training of a tanh-hidden-layer probe with the shared AdamW
    optimizer and linear warmup/decay schedule; L2 penalty on weight matrices.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EvalError("need at least 2 feature rows")
    n, in_dim = x.shape
    if kind == "classification":
        classes = sorted(set(labels))
        if len(classes) < 2:
            raise EvalError("classification needs at least 2 distinct labels")
        class_index = {c: i for i, c in enumerate(classes)}
        y_idx = np.array([class_index[l] for l in labels])
        out_dim = len(classes)
    elif kind == "regression":
        classes = None
        y = np.asarray(labels, dtype=np.float64)
        out_dim = 1
    else:
        raise EvalError(f"unknown probe kind {kind!r}")

    rng = SeededRng(seed).substream("probe")
    params = ParamSet(probe_shapes(in_dim, hidden, out_dim))
    params["w1"][...] = _glorot(rng.substream("w1"), in_dim, hidden, (in_dim, hidden))
    params["w2"][...] = _glorot(rng.substream("w2"), hidden, out_dim, (hidden, out_dim))
    grads = params.zeros_like()
    state = OptimizerState(params)
    for step in range(1, PROBE_ITERATIONS + 1):
        hidden_act, out = _probe_forward(params, x)
        if kind == "classification":
            dout = softmax(out)
            dout[np.arange(n), y_idx] -= 1.0
            dout /= n
        else:
            dout = 2.0 * (out[:, 0] - y)[:, None] / n
        np.matmul(hidden_act.T, dout, out=grads["w2"])
        grads["w2"] += 2.0 * l2 * params["w2"]
        dout.sum(axis=0, out=grads["b2"])
        dhidden = (dout @ params["w2"].T) * (1.0 - hidden_act**2)
        np.matmul(x.T, dhidden, out=grads["w1"])
        grads["w1"] += 2.0 * l2 * params["w1"]
        dhidden.sum(axis=0, out=grads["b1"])
        step_lr = lr_schedule(step, PROBE_ITERATIONS, PROBE_LR, 0.1)
        adamw_step(params, grads, state, step_lr, weight_decay=0.0)
    return ProbeModel(params, classes, l2)


def predict(probe: ProbeModel, features: np.ndarray):
    _, out = _probe_forward(probe.params, np.asarray(features, dtype=np.float64))
    if probe.classes is not None:
        return [probe.classes[i] for i in out.argmax(axis=1)]
    return out[:, 0]


def accuracy(predictions, labels) -> float:
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise EvalError("predictions and labels differ in length")
    if not labels:
        raise EvalError("empty inputs to accuracy")
    return sum(p == l for p, l in zip(predictions, labels)) / len(labels)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values receiving the mean of their rank range:
    a group of c equal values whose last rank is r gets r - (c - 1) / 2."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average ranks.

    Doubled average ranks are small integers, so the sums below are exact in
    float64 and perfectly monotone (or antitone) inputs yield exactly +/-1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise EvalError("spearman needs two equal-length sequences of >= 2 values")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise EvalError("spearman undefined for constant input")
    n = x.shape[0]
    rx = 2.0 * _average_ranks(x)
    ry = 2.0 * _average_ranks(y)
    cov = n * np.dot(rx, ry) - rx.sum() * ry.sum()
    vx = n * np.dot(rx, rx) - rx.sum() ** 2
    vy = n * np.dot(ry, ry) - ry.sum() ** 2
    return float(cov / np.sqrt(vx * vy))


def _score(probe: ProbeModel, features: np.ndarray, records: list[EvalRecord]) -> float:
    preds = predict(probe, features)
    if probe.classes is not None:
        return accuracy(preds, [r.label for r in records])
    return spearman(preds, [r.label for r in records])


def evaluate(
    model: EncoderModel,
    task: EvalTask,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    seed: int = 0,
    hidden: int = DEFAULT_HIDDEN,
) -> EvalResult:
    """Select L2 strength on the validation split and report the test metric
    of the probe trained with it: the grid value whose probe, trained on the
    train split, scores best on validation wins, and ties break toward the
    earlier value. The encoder is frozen throughout."""
    # one featurize call, so the splits share the encoder's packs
    train, validation, test = np.split(
        featurize(task.train + task.validation + task.test, model),
        np.cumsum([len(task.train), len(task.validation)]),
    )
    train_labels = [r.label for r in task.train]
    probe, best_score = None, -np.inf
    for l2 in lambda_grid:
        candidate = train_probe(train, train_labels, task.kind, hidden, l2, seed)
        try:
            score = _score(candidate, validation, task.validation)
        except EvalError:  # e.g. constant predictions under extreme l2
            score = -np.inf
        if score > best_score:
            probe, best_score = candidate, score
    if probe is None:
        raise EvalError(
            f"task {task.name}: no lambda in the grid gave a validation score "
            "(constant validation labels or predictions)"
        )
    value = _score(probe, test, task.test)
    metric = "accuracy" if task.kind == "classification" else "spearman"
    return EvalResult(task.name, metric, value, probe.l2)
