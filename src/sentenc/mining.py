"""Paraphrase extraction from a sentence-aligned bilingual corpus.

Stages: similarity-filter aligned pairs, group target sentences by shared
source sentence, then generate pairs within each group so that every target
sentence appears in at least one pair.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .corpus import AlignedPair, ParaphrasePair, normalize, numbered_rows
from .errors import MiningError, NumericError
from .numeric import SeededRng, cosine_similarity

logger = logging.getLogger(__name__)

# text -> fixed-dimension vector; deterministic, nonzero norm for nonempty text
FilterEncoder = Callable[[str], np.ndarray]

# Fewest hash buckets the n-gram filter encoder accepts; also checked at config load
MIN_FILTER_DIMENSION = 16


@dataclass
class MiningConfig:
    threshold: float = 0.7

    def __post_init__(self):
        # thresholds above 1 are allowed and simply keep nothing
        if not self.threshold >= 0.0:
            raise MiningError(f"threshold {self.threshold} must be >= 0")


@dataclass
class SentenceGroup:
    source: str
    targets: list[str]  # distinct, first-seen order


@dataclass
class MiningStats:
    input_pairs: int = 0
    kept_pairs: int = 0
    encoder_failures: int = 0
    groups: int = 0
    emitted_pairs: int = 0


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def char_ngram_buckets(text: str, dimension: int, n: int = 3) -> list[int]:
    """Bucket indices of the character n-grams of boundary-padded text."""
    padded = f"\x02{normalize(text)}\x03"
    return [
        _fnv1a(padded[i : i + n].encode("utf-8")) % dimension
        for i in range(len(padded) - n + 1)
    ]


def hashed_ngram_encoder(dimension: int) -> FilterEncoder:
    """L2-normalized counts of character 3-grams hashed into `dimension` buckets.

    A desk-scale stand-in for a pretrained multilingual filter model: cheap,
    deterministic, and similarity-preserving for surface-close sentences.
    """
    if dimension < MIN_FILTER_DIMENSION:
        raise MiningError(f"hashed n-gram encoder needs dimension >= {MIN_FILTER_DIMENSION}")

    def encode(text: str) -> np.ndarray:
        vec = np.zeros(dimension, dtype=np.float64)
        for bucket in char_ngram_buckets(text, dimension):
            vec[bucket] += 1.0
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise MiningError(f"cannot encode empty text {text!r}")
        return vec / norm

    return encode


def precomputed_encoder(path: str | os.PathLike) -> FilterEncoder:
    """Exact-lookup encoder over a TSV of `sentence<TAB>v1 v2 ... vD`; every
    vector must be finite and of one dimension."""
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for where, (sentence, values) in numbered_rows(path, "embedding file", 2):
        try:
            vec = np.array([float(v) for v in values.split()], dtype=np.float64)
        except ValueError as exc:
            raise MiningError(f"{where}: bad vector") from exc
        if not np.all(np.isfinite(vec)):
            raise MiningError(f"{where}: non-finite value")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise MiningError(f"{where}: dimension {vec.shape[0]} != {dim}")
        table[normalize(sentence)] = vec

    def encode(text: str) -> np.ndarray:
        key = normalize(text)
        if key not in table:
            raise MiningError(f"no precomputed embedding for {key!r}")
        return table[key]

    return encode


def filter_pairs(
    pairs: Iterable[AlignedPair],
    enc: FilterEncoder,
    threshold: float,
    stats: MiningStats | None = None,
) -> Iterator[AlignedPair]:
    """Keep pairs whose cross-lingual embedding cosine is >= threshold.

    Encoder failures on noisy lines (MiningError, or NumericError for a
    zero or mismatched vector) are skipped and tallied, not fatal; any other
    exception is a bug and propagates.
    """
    stats = MiningStats() if stats is None else stats
    for pair in pairs:
        stats.input_pairs += 1
        try:
            sim = cosine_similarity(enc(pair.source), enc(pair.target))
        except (MiningError, NumericError):
            stats.encoder_failures += 1
            continue
        if sim >= threshold:
            stats.kept_pairs += 1
            yield pair


def group_by_source(pairs: Iterable[AlignedPair]) -> list[SentenceGroup]:
    """One group per distinct source string, targets deduplicated, both in
    first-seen order."""
    groups: dict[str, dict[str, None]] = {}
    for pair in pairs:
        groups.setdefault(pair.source, {}).setdefault(pair.target, None)
    return [SentenceGroup(src, list(tgts)) for src, tgts in groups.items()]


def generate_pairs(group: SentenceGroup, rng: SeededRng) -> list[ParaphrasePair]:
    """Pair up the group's targets so every sentence occurs at least once.

    Shuffle, emit adjacent pairs; an odd leftover is paired with a uniformly
    chosen earlier target. Groups of fewer than 2 targets yield nothing;
    output is always ceil(n/2) pairs with no self-pairs.
    """
    targets = rng.shuffle(group.targets)
    n = len(targets)
    if n < 2:
        return []
    out = [
        ParaphrasePair(targets[i], targets[i + 1]) for i in range(0, n - 1, 2)
    ]
    if n % 2 == 1:
        partner = targets[rng.integers(0, n - 1)]
        out.append(ParaphrasePair(targets[n - 1], partner))
    assert len(out) == math.ceil(n / 2)
    return out


def mine(
    corpus: Iterable[AlignedPair],
    enc: FilterEncoder,
    config: MiningConfig,
    seed: int,
    stats: MiningStats | None = None,
) -> list[ParaphrasePair]:
    """Full extraction: filter -> group by source -> generate -> dedup.

    Deterministic given (corpus, encoder, seed): each group draws from a
    sub-stream keyed by its index, and final pairs are deduplicated on
    unordered identity so repeated corpus lines cannot create duplicates.
    Only groups of at least two targets can be paired.
    """
    stats = MiningStats() if stats is None else stats
    rng = SeededRng(seed).substream("mining")
    groups = group_by_source(filter_pairs(corpus, enc, config.threshold, stats))
    pairable = [(i, g) for i, g in enumerate(groups) if len(g.targets) >= 2]
    stats.groups = len(pairable)
    seen: set[frozenset[str]] = set()
    out: list[ParaphrasePair] = []
    for index, group in pairable:
        for pair in generate_pairs(group, rng.substream(f"group{index}")):
            key = frozenset((pair.a, pair.b))
            if key in seen:
                continue
            seen.add(key)
            out.append(pair)
    stats.emitted_pairs = len(out)
    return out
