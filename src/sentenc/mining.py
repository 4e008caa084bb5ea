"""Paraphrase extraction from a sentence-aligned bilingual corpus.

Stages: count the distinct targets of each source sentence, sources in the
order of their first line (no line position is kept), skip each source with
fewer than two distinct targets (it can never give a pair, so it is never
encoded), similarity-filter the other groups (each source and distinct
aligned pair is encoded once, however often its line repeats; one cosine
call scores a group), then generate pairs within each group, from a stream
keyed by its source, so every kept target appears in at least one pair.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .corpus import AlignedPair, ParaphrasePair, normalize, numbered_rows
from .errors import MiningError, check_declared
from .numeric import SeededRng, cosine_similarity


# text -> vector, deterministic; for every text either a nonzero vector of
# the encoder's one width or MiningError (empty text, no stored vector, an
# all-zero stored vector). Anything else it does is a bug and propagates.
FilterEncoder = Callable[[str], np.ndarray]

# Fewest hash buckets the n-gram filter encoder accepts; also checked at config load
MIN_FILTER_DIMENSION = 16


@dataclass
class MiningConfig:
    # thresholds above 1 are allowed and simply keep nothing
    threshold: float = field(default=0.7, metadata={"min": 0})

    def __post_init__(self):
        check_declared(self, "mining.")


@dataclass
class MiningStats:
    input_pairs: int = 0
    # lines, repeats included, whose source has one distinct target; the
    # other counts below cover only the lines of the remaining sources
    unpairable: int = 0
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


def _char_ngrams(text: str, n: int = 3) -> list[str]:
    """The character n-grams of normalised, boundary-padded text."""
    padded = f"\x02{normalize(text)}\x03"
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def _bucket(gram: str, dimension: int) -> int:
    return _fnv1a(gram.encode("utf-8")) % dimension


class _BucketMemo(dict):
    """gram -> bucket for one encoder; each distinct gram is hashed once."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, gram: str) -> int:
        bucket = self[gram] = _bucket(gram, self.dimension)
        return bucket


def hashed_ngram_encoder(dimension: int) -> FilterEncoder:
    """Counts of character 3-grams hashed into `dimension` buckets; the cosine
    in `filter_groups` normalises them.

    A desk-scale stand-in for a pretrained multilingual filter model: cheap,
    deterministic, and similarity-preserving for surface-close sentences.
    The encoder keeps the bucket of every distinct 3-gram it has seen (a few
    thousand on a corpus of one script), so the pure-Python FNV-1a hash runs
    once per distinct gram rather than once per occurrence.
    """
    if dimension < MIN_FILTER_DIMENSION:
        raise MiningError(f"hashed n-gram encoder needs dimension >= {MIN_FILTER_DIMENSION}")
    memo = _BucketMemo(dimension)

    def encode(text: str) -> np.ndarray:
        buckets = [memo[gram] for gram in _char_ngrams(text)]
        if not buckets:
            raise MiningError(f"cannot encode empty text {text!r}")
        return np.bincount(buckets, minlength=dimension).astype(np.float64)

    return encode


def precomputed_encoder(path: str | os.PathLike) -> FilterEncoder:
    """Exact-lookup encoder over a TSV of `sentence<TAB>v1 v2 ... vD`; every
    vector must be finite and of one dimension, and two rows whose sentences
    normalise alike must repeat one vector. An all-zero row loads, but
    looking it up raises MiningError, as looking up an absent sentence does."""
    table: dict[str, tuple[str, np.ndarray]] = {}
    dim: int | None = None
    for where, (sentence, values) in numbered_rows(path, "embedding file", 2):
        try:
            vec = np.array([float(v) for v in values.split()], dtype=np.float64)
        except ValueError as exc:
            raise MiningError(f"{where}: bad vector") from exc
        if vec.size == 0:
            raise MiningError(f"{where}: empty vector")
        if not np.all(np.isfinite(vec)):
            raise MiningError(f"{where}: non-finite value")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise MiningError(f"{where}: dimension {vec.shape[0]} != {dim}")
        first, seen = table.setdefault(normalize(sentence), (where, vec))
        if not np.array_equal(seen, vec):
            raise MiningError(f"{where}: vector differs from {first} for the same sentence")

    def encode(text: str) -> np.ndarray:
        key = normalize(text)
        if key not in table:
            raise MiningError(f"no precomputed embedding for {key!r}")
        where, vec = table[key]
        if not vec.any():
            raise MiningError(f"{where}: all-zero embedding for {key!r}")
        return vec

    return encode


def filter_groups(
    pairs: Iterable[AlignedPair],
    enc: FilterEncoder,
    threshold: float,
    stats: MiningStats | None = None,
) -> dict[str, list[str]]:
    """Each pairable source's targets whose cross-lingual embedding cosine
    with it is >= threshold: source -> its distinct kept targets in
    first-seen order, sources in the order of their first line.

    The corpus is read once into `source -> {target: line count}`, so a
    repeated line only adds to a count and no line position is kept. A
    source with one distinct target can never give a pair: its lines are
    counted as unpairable and neither side is encoded. Each other source is
    encoded once, then each of its distinct targets, and one
    `cosine_similarity` call scores the source against all its targets. A
    MiningError from the encoder (a noisy line) is tallied per line, not
    fatal: a failing source fails every line of its group without its
    targets being encoded. Anything else breaks the FilterEncoder contract
    and propagates: any other exception, and a vector whose width differs
    from another's, within a group or across groups (ValueError).
    """
    stats = MiningStats() if stats is None else stats
    # a dict of counts per source, not a Counter: Counter's Python-level
    # __init__ and __missing__ cost about 2 us per distinct source
    lines: dict[str, dict[str, int]] = {}
    for pair in pairs:
        targets = lines.setdefault(pair.source, {})
        targets[pair.target] = targets.get(pair.target, 0) + 1
        stats.input_pairs += 1

    kept: dict[str, list[str]] = {}
    width = None
    for source, targets in lines.items():
        if len(targets) < 2:
            stats.unpairable += sum(targets.values())
            continue
        try:
            x = enc(source)
        except MiningError:
            stats.encoder_failures += sum(targets.values())
            continue
        width = width or x.shape
        if x.shape != width:
            raise ValueError(f"filter encoder gave shapes {width} and {x.shape}")
        ys: dict[str, np.ndarray] = {}
        for target, count in targets.items():
            try:
                ys[target] = enc(target)
            except MiningError:
                stats.encoder_failures += count
        if not ys:
            continue
        # np.array and cosine_similarity each raise a ValueError on a width
        # that differs from the source's
        sims = cosine_similarity(x, np.array(list(ys.values())))
        for target, sim in zip(ys, sims):
            if sim >= threshold:
                stats.kept_pairs += targets[target]
                kept.setdefault(source, []).append(target)
    return kept


def generate_pairs(targets: list[str], rng: SeededRng) -> list[ParaphrasePair]:
    """Pair up one group's targets so every sentence occurs at least once.

    Shuffle, emit adjacent pairs; an odd leftover is paired with a uniformly
    chosen earlier target. Groups of fewer than 2 targets yield nothing;
    output is always ceil(n/2) pairs with no self-pairs.
    """
    targets = rng.shuffle(targets)
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
    """Full extraction: group by source and filter -> generate -> dedup.

    Holds the strings of every distinct aligned line while it filters.
    Deterministic given (corpus, encoder, seed): each group draws from a
    sub-stream keyed by its source, so its pairs depend only on its own kept
    targets, not on which other sources the corpus holds; final pairs are
    deduplicated on unordered identity, so targets shared across groups
    cannot create duplicates. Only groups of at least two kept targets can
    be paired.
    """
    stats = MiningStats() if stats is None else stats
    rng = SeededRng(seed).substream("mining")
    groups = filter_groups(corpus, enc, config.threshold, stats)
    pairable = [(source, targets) for source, targets in groups.items() if len(targets) >= 2]
    stats.groups = len(pairable)
    # keyed on the unordered pair; setdefault keeps the first occurrence
    out: dict[frozenset[str], ParaphrasePair] = {}
    for source, targets in pairable:
        for pair in generate_pairs(targets, rng.substream(f"group:{source}")):
            out.setdefault(frozenset((pair.a, pair.b)), pair)
    stats.emitted_pairs = len(out)
    return list(out.values())
