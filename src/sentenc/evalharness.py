"""Frozen-embedding evaluation: train a one-hidden-layer probe on sentence
embeddings, report accuracy for classification and Spearman rank correlation
for regression tasks. The encoder is never updated here.

Pair tasks are featurized as [u; v; |u - v|; u * v].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EvalRecord
from .encoder import EncoderModel, encode
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
    arity: str  # single | pair
    train: list[EvalRecord]
    validation: list[EvalRecord]
    test: list[EvalRecord]

    def __post_init__(self):
        if not (self.train and self.validation and self.test):
            raise EvalError(f"task {self.name}: all three splits must be nonempty")
        if self.kind == "classification":
            train_classes = {r.label for r in self.train}
            for split_name, split in (("validation", self.validation), ("test", self.test)):
                extra = {r.label for r in split} - train_classes
                if extra:
                    raise EvalError(
                        f"task {self.name}: {split_name} classes {extra} not in train"
                    )


@dataclass
class ProbeModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
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
    [u; v; |u - v|; u * v] for pairs."""
    u = encode([r.sentences[0] for r in records], model)
    if all(len(r.sentences) == 1 for r in records):
        return u
    v = encode([r.sentences[1] for r in records], model)
    return np.concatenate([u, v, np.abs(u - v), u * v], axis=1)


def _probe_forward(probe: ProbeModel, x: np.ndarray):
    hidden = np.tanh(x @ probe.w1 + probe.b1)
    return hidden, hidden @ probe.w2 + probe.b2


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
    a1 = np.sqrt(6.0 / (in_dim + hidden))
    a2 = np.sqrt(6.0 / (hidden + out_dim))
    probe = ProbeModel(
        w1=rng.substream("w1").uniform(-a1, a1, (in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.substream("w2").uniform(-a2, a2, (hidden, out_dim)),
        b2=np.zeros(out_dim),
        classes=classes,
        l2=l2,
    )
    params = {"w1": probe.w1, "b1": probe.b1, "w2": probe.w2, "b2": probe.b2}
    state = OptimizerState.for_params(params)
    for step in range(1, PROBE_ITERATIONS + 1):
        hidden_act, out = _probe_forward(probe, x)
        if kind == "classification":
            probs = softmax(out)
            dout = probs.copy()
            dout[np.arange(n), y_idx] -= 1.0
            dout /= n
        else:
            dout = 2.0 * (out[:, 0] - y)[:, None] / n
        dw2 = hidden_act.T @ dout + 2.0 * l2 * probe.w2
        db2 = dout.sum(axis=0)
        dhidden = (dout @ probe.w2.T) * (1.0 - hidden_act**2)
        dw1 = x.T @ dhidden + 2.0 * l2 * probe.w1
        db1 = dhidden.sum(axis=0)
        step_lr = lr_schedule(step, PROBE_ITERATIONS, PROBE_LR, 0.1)
        adamw_step(
            params,
            {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2},
            state,
            step_lr,
            weight_decay=0.0,
        )
    return probe


def predict(probe: ProbeModel, features: np.ndarray):
    _, out = _probe_forward(probe, np.asarray(features, dtype=np.float64))
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
    """Ranks 1..n with tied values receiving the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def _score(probe: ProbeModel, features: np.ndarray, records: list[EvalRecord], kind: str) -> float:
    preds = predict(probe, features)
    if kind == "classification":
        return accuracy(preds, [r.label for r in records])
    return spearman(preds, [r.label for r in records])


def _select_lambda(
    train_features, train_labels, val_features, val_records, kind, grid, hidden, seed
):
    """The probe, trained on the train split, whose grid value scores best on
    validation; ties break toward the earlier value. Sees only train and
    validation data."""
    best, best_score = None, -np.inf
    for l2 in grid:
        probe = train_probe(train_features, train_labels, kind, hidden, l2, seed)
        try:
            score = _score(probe, val_features, val_records, kind)
        except EvalError:  # e.g. constant predictions under extreme l2
            score = -np.inf
        if score > best_score:
            best, best_score = probe, score
    if best is None:
        raise EvalError("no usable regularization candidate")
    return best


def evaluate(
    model: EncoderModel,
    task: EvalTask,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    seed: int = 0,
    hidden: int = DEFAULT_HIDDEN,
) -> EvalResult:
    """Select L2 strength on the validation split and report the test metric
    of the probe trained with it. The encoder is frozen throughout."""
    feats = {
        name: featurize(split, model)
        for name, split in (
            ("train", task.train),
            ("validation", task.validation),
            ("test", task.test),
        )
    }
    probe = _select_lambda(
        feats["train"],
        [r.label for r in task.train],
        feats["validation"],
        task.validation,
        task.kind,
        list(lambda_grid),
        hidden,
        seed,
    )
    value = _score(probe, feats["test"], task.test, task.kind)
    metric = "accuracy" if task.kind == "classification" else "spearman"
    return EvalResult(task.name, metric, value, probe.l2)
