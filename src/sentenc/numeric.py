"""Deterministic numeric kernel: unit rows and cosine similarity, stable
log-sum-exp and softmax, seeded RNG.

All arithmetic is float64. The RNG is PCG64, a fixed platform-independent
generator; named sub-streams let each pipeline stage (mining, training,
probe init) draw from its own independent stream derived from one master seed.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, TypeVar

import numpy as np

from .errors import NumericError

T = TypeVar("T")

# a row whose norm is below this has a subnormal square norm
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def unit_rows(x) -> tuple[np.ndarray, np.ndarray]:
    """(x / norms, norms) over the rows of a 2-d array; the one place a vector
    is divided by its norm. A row whose square norm is not a normal float is
    first divided by its max-abs entry, and its true norm is returned. An
    all-zero row raises NumericError; `x` itself is never written. Overflow
    of a square norm is expected and handled, so it never warns or raises,
    even under an np.errstate that raises on overflow."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
        if _SQRT_TINY <= norms.min(initial=math.inf) and norms.max(initial=0.0) < math.inf:
            return x / norms[:, None], norms
        odd = ~((norms >= _SQRT_TINY) & (norms < math.inf))
        scale = np.where(odd, np.max(np.abs(x), axis=1, initial=0.0), 1.0)
        if not scale.all():
            raise NumericError("zero-norm vector")
        x = x / scale[:, None]
        norms = np.linalg.norm(x, axis=1)
        return x / norms[:, None], scale * norms


def cosine_similarity(x, y) -> float | np.ndarray:
    """Cosine of the angle between two vectors, clipped to [-1, 1]; for two
    equal-shape 2-d blocks, an array of one cosine per pair of rows; for a
    vector and a 2-d block of its width, an array of one cosine per row of
    the block.

    Every form is one body: one unit_rows over the rows of x and y stacked,
    then one (1, D) @ (D, 1) product per pair. So a vector against a block
    is normalised once, and row i of any result has the bits of the cosine
    of its two rows alone. Raises NumericError on any other pair of shapes
    or a zero-norm row; a zero embedding signals an upstream bug and must
    not be silently absorbed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    against_block = x.ndim == 1 and y.ndim == 2 and x.shape[0] == y.shape[1]
    if not against_block and (x.ndim not in (1, 2) or x.shape != y.shape):
        raise NumericError(f"need two equal 1-d or 2-d shapes, or a vector and a block "
                           f"of its width, got {x.shape} and {y.shape}")
    x = np.atleast_2d(x)
    u, _ = unit_rows(np.concatenate([x, np.atleast_2d(y)]))
    n = len(x)
    # one dot product per row, as `u[i] @ v[i]` computes it; einsum and
    # `(u * v).sum(1)` add in another order and change the last bits. A
    # vector's one row is broadcast against the block's rows.
    cos = np.clip(np.matmul(u[:n, None, :], u[n:, :, None])[:, 0, 0], -1.0, 1.0)
    return float(cos[0]) if y.ndim == 1 else cos


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
        # sub-stream seeds hash the seed's decimal text, so a bool or a str
        # must not pass for a number
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise NumericError(f"seed {seed!r} must be an integer in [0, 2**64)")
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
