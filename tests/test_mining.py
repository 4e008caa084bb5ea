import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from sentenc.corpus import AlignedPair
from sentenc.mining import (
    MiningConfig,
    MiningError,
    MiningStats,
    SentenceGroup,
    char_ngram_buckets,
    filter_pairs,
    generate_pairs,
    group_by_source,
    hashed_ngram_encoder,
    mine,
    precomputed_encoder,
)
from sentenc.numeric import SeededRng, cosine_similarity


class TestHashedNgramEncoder:
    def test_deterministic(self):
        enc = hashed_ngram_encoder(64)
        s = "the quick brown fox"
        assert (enc(s) == enc(s)).all()

    def test_identical_sentences_cosine_one(self):
        enc = hashed_ngram_encoder(64)
        assert cosine_similarity(enc("hello there"), enc("hello there")) == pytest.approx(1.0)

    def test_disjoint_trigrams_cosine_zero(self):
        # verify the two inputs really hash into disjoint buckets first
        dim = 128
        ba = set(char_ngram_buckets("aaaa", dim))
        bz = set(char_ngram_buckets("zzzz", dim))
        assert not ba & bz, "fixture assumption broken: shared hash buckets"
        enc = hashed_ngram_encoder(dim)
        assert cosine_similarity(enc("aaaa"), enc("zzzz")) == 0.0

    def test_minimum_dimension(self):
        with pytest.raises(MiningError):
            hashed_ngram_encoder(8)

    def test_unit_norm(self):
        enc = hashed_ngram_encoder(128)
        import numpy as np

        assert np.linalg.norm(enc("some text")) == pytest.approx(1.0)


class TestPrecomputedEncoder:
    def test_lookup(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello\t1 2 3\nworld\t4 5 6\n", encoding="utf-8")
        enc = precomputed_encoder(p)
        assert enc("hello").tolist() == [1.0, 2.0, 3.0]

    def test_absent_sentence(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello\t1 2 3\n", encoding="utf-8")
        enc = precomputed_encoder(p)
        with pytest.raises(MiningError):
            enc("missing")

    def test_inconsistent_dimensions(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("a\t1 2 3\nb\t1 2 3 4\n", encoding="utf-8")
        with pytest.raises(MiningError):
            precomputed_encoder(p)


class TestFilterPairs:
    def test_threshold_zero_keeps_all_with_ngram_encoder(self):
        # hashed n-gram vectors are nonnegative, so all cosines are >= 0
        enc = hashed_ngram_encoder(64)
        pairs = [AlignedPair(f"src {i}", f"tgt {i}") for i in range(20)]
        assert list(filter_pairs(pairs, enc, 0.0)) == pairs

    def test_identical_pair_survives_any_threshold(self):
        enc = hashed_ngram_encoder(64)
        pair = AlignedPair("same sentence", "same sentence")
        assert list(filter_pairs([pair], enc, 1.0)) == [pair]

    def test_default_operating_threshold(self):
        # the default operating point keeps only cosine >= 0.7
        enc = hashed_ngram_encoder(256)
        near = AlignedPair("the cat sat on the mat", "the cat sat on the mats")
        far = AlignedPair("the cat sat on the mat", "qwxz vbnm plo kij")
        kept = list(filter_pairs([near, far], enc, 0.7))
        assert kept == [near]

    def test_monotonicity(self):
        enc = hashed_ngram_encoder(128)
        rng = SeededRng(3)
        words = ["ala", "ma", "kota", "pies", "dom", "las"]
        pairs = [
            AlignedPair(
                " ".join(rng.shuffle(words)[:3]), " ".join(rng.shuffle(words)[:3])
            )
            for _ in range(50)
        ]
        kept_lo = set(map(id, filter_pairs(pairs, enc, 0.3)))
        kept_hi = set(map(id, filter_pairs(pairs, enc, 0.6)))
        assert kept_hi <= kept_lo

    def test_encoder_failure_tallied(self):
        def broken(text):
            raise MiningError("boom")

        stats = MiningStats()
        out = list(filter_pairs([AlignedPair("a", "b")], broken, 0.0, stats))
        assert out == []
        assert stats.encoder_failures == 1

    def test_encoder_bug_propagates(self):
        def buggy(text):
            return {}["missing"]

        stats = MiningStats()
        with pytest.raises(KeyError):
            list(filter_pairs([AlignedPair("a", "b")], buggy, 0.0, stats))
        assert stats.encoder_failures == 0


class TestGroupBySource:
    def test_basic_grouping(self):
        pairs = [
            AlignedPair("s1", "t1"),
            AlignedPair("s1", "t2"),
            AlignedPair("s2", "t3"),
        ]
        groups = group_by_source(pairs)
        assert [(g.source, g.targets) for g in groups] == [
            ("s1", ["t1", "t2"]),
            ("s2", ["t3"]),
        ]

    def test_duplicate_targets_deduplicated(self):
        groups = group_by_source([AlignedPair("s1", "t1"), AlignedPair("s1", "t1")])
        assert groups[0].targets == ["t1"]

    def test_against_brute_force_oracle(self):
        rng = SeededRng(9)
        pairs = [
            AlignedPair(f"src{rng.integers(0, 100)}", f"tgt{rng.integers(0, 400)}")
            for _ in range(10_000)
        ]
        oracle: dict[str, set[str]] = defaultdict(set)
        for p in pairs:
            oracle[p.source].add(p.target)
        groups = group_by_source(pairs)
        assert len(groups) == len(oracle)
        for g in groups:
            assert set(g.targets) == oracle[g.source]


class TestGeneratePairs:
    def test_singleton_group_yields_nothing(self):
        assert generate_pairs(SentenceGroup("s", ["only"]), SeededRng(1)) == []

    def test_two_targets_single_pair(self):
        out = generate_pairs(SentenceGroup("s", ["t1", "t2"]), SeededRng(1))
        assert len(out) == 1
        assert {out[0].a, out[0].b} == {"t1", "t2"}

    def test_five_targets_coverage(self):
        targets = [f"t{i}" for i in range(5)]
        out = generate_pairs(SentenceGroup("s", targets), SeededRng(42))
        assert len(out) == 3
        members = [p.a for p in out] + [p.b for p in out]
        assert set(members) == set(targets)
        counts = {t: members.count(t) for t in targets}
        assert sorted(counts.values()) == [1, 1, 1, 1, 2]

    @given(st.integers(2, 10), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_coverage_and_count_property(self, n, seed):
        targets = [f"t{i}" for i in range(n)]
        out = generate_pairs(SentenceGroup("s", targets), SeededRng(seed))
        assert len(out) == math.ceil(n / 2)
        members = {p.a for p in out} | {p.b for p in out}
        assert members == set(targets)
        assert all(p.a != p.b for p in out)


class TestMine:
    @staticmethod
    def _config(threshold=0.0, seed=0):
        return MiningConfig(threshold=threshold, seed=seed)

    def test_no_repeated_source_gives_nothing(self):
        corpus = [AlignedPair(f"s{i}", f"t{i}") for i in range(10)]
        enc = hashed_ngram_encoder(64)
        assert mine(corpus, enc, self._config()) == []

    def test_three_sources_four_targets_each(self):
        corpus = [
            AlignedPair(f"source {s}", f"target {s} variant {t}")
            for s in range(3)
            for t in range(4)
        ]
        enc = hashed_ngram_encoder(128)
        out = mine(corpus, enc, self._config())
        assert len(out) == 6  # ceil(4/2) per group

    def test_fixed_seed_is_deterministic(self):
        corpus = [
            AlignedPair(f"s{i % 5}", f"t{i}") for i in range(40)
        ]
        enc = hashed_ngram_encoder(64)
        assert mine(corpus, enc, self._config(seed=77)) == mine(
            corpus, enc, self._config(seed=77)
        )

    def test_no_self_pairs_and_dedup(self):
        corpus = [AlignedPair("s", f"t{i % 3}") for i in range(30)]
        enc = hashed_ngram_encoder(64)
        out = mine(corpus, enc, self._config())
        assert all(p.a != p.b for p in out)
        keys = [frozenset((p.a, p.b)) for p in out]
        assert len(keys) == len(set(keys))

    def test_stats_counts(self):
        corpus = [
            AlignedPair(f"source {s}", f"target {s} number {t}")
            for s in range(4)
            for t in range(3)
        ]
        enc = hashed_ngram_encoder(128)
        stats = MiningStats()
        out = mine(corpus, enc, self._config(), stats)
        assert stats.input_pairs == 12
        assert stats.kept_pairs == 12
        assert stats.groups == 4
        assert stats.emitted_pairs == len(out) == 8
