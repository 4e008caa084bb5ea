"""Deterministic numeric kernel: cosine similarity, stable log-sum-exp and
softmax, seeded RNG.

All arithmetic is float64. The RNG is PCG64, a fixed platform-independent
generator; named sub-streams let each pipeline stage (mining, training,
probe init) draw from its own independent stream derived from one master seed.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, TypeVar

import numpy as np

T = TypeVar("T")

_TINY = np.finfo(np.float64).tiny  # smallest normal float


class NumericError(ValueError):
    """Invalid input to a numeric kernel operation."""


def _square_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(v, v @ v), with v first scaled by its max-abs entry when v @ v is not
    a normal float: a square that underflows to a subnormal loses precision."""
    vv = float(v @ v)
    if _TINY <= vv < math.inf:
        return v, vv
    scale = float(np.max(np.abs(v), initial=0.0))
    if scale == 0.0:
        raise NumericError("zero-norm vector in cosine_similarity")
    v = v / scale
    return v, float(v @ v)


def cosine_similarity(x, y) -> float:
    """Cosine of the angle between two vectors, clipped to [-1, 1].

    Raises NumericError on dimension mismatch or a zero-norm input; a zero
    embedding signals an upstream bug and must not be silently absorbed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise NumericError("cosine_similarity expects 1-d vectors")
    if x.shape != y.shape:
        raise NumericError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    x, xx = _square_norm(x)
    y, yy = _square_norm(y)
    cos = float(x @ y) / (math.sqrt(xx) * math.sqrt(yy))
    return math.copysign(1.0, cos) if abs(cos) > 1.0 else cos


def logsumexp(v):
    """log(sum(exp(v))) over the last axis with the max-shift trick; never
    overflows. A float for a vector, an array of row values otherwise."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise NumericError("logsumexp of empty vector")
    m = v.max(axis=-1, keepdims=True)
    out = m[..., 0] + np.log(np.sum(np.exp(v - m), axis=-1))
    return float(out) if out.ndim == 0 else out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-shifted so it never overflows."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRng:
    """Deterministic RNG: identical seed gives an identical stream everywhere.

    Sub-streams are derived from (seed, name) alone, so a stage's stream does
    not depend on how much randomness other stages consumed.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise NumericError("seed must fit in 64 unsigned bits")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def substream(self, name: str) -> "SeededRng":
        return SeededRng(_derive_seed(self.seed, name))

    def shuffle(self, items: Iterable[T]) -> list[T]:
        """Uniform permutation (Fisher-Yates via PCG64); returns a new list."""
        items = list(items)
        perm = self._gen.permutation(len(items))
        return [items[i] for i in perm]

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)
