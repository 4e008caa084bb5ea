import importlib.util
import itertools
import json
import math
import random
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentenc.corpus import AlignedPair, ParaphrasePair, read_parallel_tsv
from sentenc.mining import (
    MiningConfig,
    MiningError,
    MiningStats,
    _bucket,
    _char_ngrams,
    filter_groups,
    generate_pairs,
    hashed_ngram_encoder,
    mine,
    precomputed_encoder,
)
from sentenc.numeric import NumericError, SeededRng, cosine_similarity

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sources and targets of the filter's order property: some texts are close
# to each other, and the blank ones fail the n-gram encoder
PROPERTY_SOURCES = ["the cat sat", "a dog ran", "birds fly south", "  "]
PROPERTY_TARGETS = ["the cat sat", "the cat sat down", "a dog ran far", "birds fly",
                    "qwxz vbnm", ""]

MIXED_SCRIPTS = ["some plain text", "zażółć gęślą jaźń", "猫が寝た 猫が", "🐈 tail 🐈‍⬛ 𝔘𝔫𝔦"]


def char_ngram_buckets(text: str, dimension: int, n: int = 3) -> list[int]:
    """Bucket indices of the character n-grams of boundary-padded text: the
    reference for the hashed encoder's counts."""
    return [_bucket(gram, dimension) for gram in _char_ngrams(text, n)]


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

    @pytest.mark.parametrize("text", ["some text", "a", "aaaa aaaa", "zażółć gęślą", "猫が寝た 🐈"])
    def test_counts(self, text):
        vec = hashed_ngram_encoder(128)(text)
        assert vec.dtype == np.float64
        assert np.array_equal(vec, np.bincount(char_ngram_buckets(text, 128), minlength=128))

    def test_one_encoder_over_many_orders_matches_reference(self):
        # one instance, so its 3-gram memo carries over between texts and orders
        enc = hashed_ngram_encoder(128)
        for order in itertools.permutations(MIXED_SCRIPTS):
            for text in order + order[::-1]:
                vec = enc(text)
                assert vec.dtype == np.float64
                assert np.array_equal(vec, np.bincount(char_ngram_buckets(text, 128), minlength=128))

    def test_encoders_of_different_dimension_share_no_buckets(self):
        small, large = hashed_ngram_encoder(16), hashed_ngram_encoder(131)
        for text in MIXED_SCRIPTS * 2:
            for dim, enc in ((16, small), (131, large)):
                assert np.array_equal(enc(text), np.bincount(char_ngram_buckets(text, dim), minlength=dim))

    @pytest.mark.parametrize("text", ["", "  \t "])
    def test_empty_text_is_error(self, text):
        with pytest.raises(MiningError):
            hashed_ngram_encoder(64)(text)


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

    def test_all_zero_row_loads_and_lookup_raises(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello\t1 2 3\nnull  vector\t0 -0 0.0\n", encoding="utf-8")
        enc = precomputed_encoder(p)
        assert enc("hello").tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(MiningError, match=r"emb\.tsv:2: all-zero embedding for 'null vector'"):
            enc("null vector")

    def test_inconsistent_dimensions(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("a\t1 2 3\nb\t1 2 3 4\n", encoding="utf-8")
        with pytest.raises(MiningError):
            precomputed_encoder(p)


    def test_conflicting_duplicate_names_both_lines(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello world\t1 2 3\nother\t1 1 1\nhello   world\t4 5 6\n", encoding="utf-8")
        with pytest.raises(MiningError, match=r"emb\.tsv:3: .*emb\.tsv:1"):
            precomputed_encoder(p)

    def test_empty_vector_names_line(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello\t1 2 3\nworld\t\n", encoding="utf-8")
        with pytest.raises(MiningError, match=r"emb\.tsv:2: empty vector"):
            precomputed_encoder(p)

    def test_identical_repeat_accepted(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("hello world\t1 2 3\n hello world\t1.0 2 3e0\n", encoding="utf-8")
        assert precomputed_encoder(p)("hello world").tolist() == [1.0, 2.0, 3.0]


def kept_set(groups):
    """The (source, target) pairs that `filter_groups` kept."""
    return {(source, target) for source, targets in groups.items() for target in targets}


class TestFilterPairs:
    def test_threshold_zero_keeps_all_with_ngram_encoder(self):
        # hashed n-gram vectors are nonnegative, so all cosines are >= 0
        enc = hashed_ngram_encoder(64)
        pairs = [AlignedPair(f"src {i // 2}", f"tgt {i}") for i in range(20)]
        stats = MiningStats()
        groups = filter_groups(pairs, enc, 0.0, stats)
        assert list(groups.items()) == [
            (f"src {k}", [f"tgt {2 * k}", f"tgt {2 * k + 1}"]) for k in range(10)
        ]
        assert stats.kept_pairs == stats.input_pairs == len(pairs)
        assert stats.unpairable == 0

    def test_identical_pair_survives_any_threshold(self):
        enc = hashed_ngram_encoder(64)
        pairs = [AlignedPair("same sentence", "same sentence"),
                 AlignedPair("same sentence", "qwxz vbnm plo kij")]
        assert filter_groups(pairs, enc, 1.0) == {"same sentence": ["same sentence"]}

    def test_default_operating_threshold(self):
        # the default operating point keeps only cosine >= 0.7
        enc = hashed_ngram_encoder(256)
        near = AlignedPair("the cat sat on the mat", "the cat sat on the mats")
        far = AlignedPair("the cat sat on the mat", "qwxz vbnm plo kij")
        assert filter_groups([near, far], enc, 0.7) == {near.source: [near.target]}

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
        kept_lo = kept_set(filter_groups(pairs, enc, 0.3))
        kept_hi = kept_set(filter_groups(pairs, enc, 0.6))
        assert kept_hi <= kept_lo

    def test_encoder_failure_tallied(self):
        def broken(text):
            raise MiningError("boom")

        stats = MiningStats()
        pairs = [AlignedPair("a", "b"), AlignedPair("a", "c")]
        assert filter_groups(pairs, broken, 0.0, stats) == {}
        assert stats.encoder_failures == 2

    def test_encoder_bug_propagates(self):
        def buggy(text):
            return {}["missing"]

        def numeric(text):
            raise NumericError("not a MiningError")

        for enc, error in [(buggy, KeyError), (numeric, NumericError)]:
            stats = MiningStats()
            with pytest.raises(error):
                filter_groups([AlignedPair("a", "b"), AlignedPair("a", "c")], enc, 0.0, stats)
            assert stats.encoder_failures == 0


def reference_filter(pairs, enc, threshold, stats):
    """The filter's former per-pair loop: one encoder call per side, one cosine per
    pair (the 1-d cosine, which TestCosineRowBlocks holds to its former body)."""
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


def group_by_source(pairs):
    """The former grouping after the filter: the distinct targets of each
    source, sources and targets both in first-seen order."""
    groups: dict[str, dict[str, None]] = {}
    for pair in pairs:
        groups.setdefault(pair.source, {}).setdefault(pair.target, None)
    return {source: list(targets) for source, targets in groups.items()}


def targets_by_source(pairs):
    """source -> the set of its distinct targets."""
    targets = defaultdict(set)
    for pair in pairs:
        targets[pair.source].add(pair.target)
    return targets


def first_line_order(groups, pairs):
    """groups with their sources in the order of each source's first line in
    pairs."""
    return {source: groups[source] for source in dict.fromkeys(p.source for p in pairs)
            if source in groups}


def split_unpairable(pairs):
    """The lines whose source has at least two distinct targets, and the
    number of the other lines."""
    targets = targets_by_source(pairs)
    pairable = [pair for pair in pairs if len(targets[pair.source]) >= 2]
    return pairable, len(pairs) - len(pairable)


def assert_filters_alike(pairs, enc, threshold):
    """filter_groups against the reference: the lines of one-target sources
    dropped and counted as unpairable, then the reference filter followed by
    group_by_source, sources in the order of their first pairable line. The
    same groups in the same order, and every MiningStats field."""
    stats, expected_stats = MiningStats(), MiningStats()
    groups = filter_groups(pairs, enc, threshold, stats)
    pairable, unpairable = split_unpairable(pairs)
    kept = reference_filter(pairable, enc, threshold, expected_stats)
    expected = first_line_order(group_by_source(kept), pairable)
    expected_stats.input_pairs += unpairable
    expected_stats.unpairable = unpairable
    assert list(groups.items()) == list(expected.items())
    assert stats == expected_stats
    return groups, stats


# where a failing side is planted, and its text
FAILING_SIDES = [("source", "  \t "), ("target", ""), ("source", "missing side"),
                 ("target", "missing side"), ("source", "zero side"), ("target", "zero side")]


def planted_corpus(n: int, seed: int):
    """n seeded lines in runs of two (three at the end when n is odd) that
    share a source and have distinct targets, so every source can pair. A
    failing side is planted in the runs at both ends, at n/8, n/4, n/2 and
    3n/4 and at lines 63, 64 and 128 (each side of the filter's former
    64-pair chunk boundaries), and each run beside one opens with an
    identical-sides line that any threshold keeps. Blank, missing and zero
    sides take turns, on a run's source (which fails each of its lines) and
    on a target, so each of the six is planted. Returns the lines, the
    indices of the failing lines and those of the identical-sides lines."""
    rng = random.Random(seed)
    words = "ala ma kota pies dom las rzeka most droga okno".split()

    def sentence():
        return " ".join(rng.sample(words, rng.randint(2, 5)))

    def distinct(k):
        out = []
        while len(out) < k:
            if (text := sentence()) not in out:
                out.append(text)
        return out

    sizes = [2] * (n // 2 - 1) + [n - 2 * (n // 2 - 1)]
    runs = [(sentence(), distinct(size)) for size in sizes]
    last = len(runs) - 1
    lines = {0, n // 8, n // 4, n // 2, 3 * n // 4, 63, 64, 128, n - 1}
    planted = sorted({min(i // 2, last) for i in lines if i < n})
    for r, (side, text) in zip(planted, itertools.cycle(FAILING_SIDES)):
        source, targets = runs[r]
        runs[r] = (text, targets) if side == "source" else (source, [text, *targets[1:]])
    beside = sorted({b for r in planted for b in (r - 1, r + 1) if 0 <= b <= last} - set(planted))
    for b in beside:
        same = f"same {b} words"
        runs[b] = (same, [same, *runs[b][1][1:]])
    pairs = [AlignedPair(source, target) for source, targets in runs for target in targets]
    failing = {text for _, text in FAILING_SIDES}
    bad = [i for i, pair in enumerate(pairs) if {pair.source, pair.target} & failing]
    starts = list(itertools.accumulate([0, *sizes]))
    return pairs, bad, [starts[b] for b in beside]


def with_lonely(pairs):
    """pairs with a line of a new one-target source after every fourth line.
    Blank sources and blank targets take turns among them, and
    planted_vectors' file holds none of their texts, so encoding any of
    them would fail."""
    out = []
    for i, pair in enumerate(pairs):
        out.append(pair)
        if i % 4 == 3:
            k = i // 4
            source = " " * (k + 1) if k % 3 == 1 else f"lone source {k}"
            out.append(AlignedPair(source, "" if k % 3 == 2 else f"lone target {k}"))
    return out


def planted_vectors(pairs, path):
    """A precomputed encoder over the texts of pairs, from their 32-bucket
    n-gram counts: "missing side" and blank texts are absent from its file
    and "zero side" is all zeros."""
    hashed = hashed_ngram_encoder(32)
    texts = {t for p in pairs for t in (p.source, p.target) if t.strip() and t != "missing side"}
    lines = [f"{t}\t{' '.join('0' if t == 'zero side' else str(int(v)) for v in hashed(t))}"
             for t in sorted(texts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return precomputed_encoder(path)


def repeated_corpus(pairs, seed):
    """The pairs with each run of three sharing its first source, every line
    repeated once or twice, in a seeded order."""
    shared = [AlignedPair(pairs[i - i % 3].source, pair.target) for i, pair in enumerate(pairs)]
    corpus = shared * 2 + shared[::3]
    random.Random(seed).shuffle(corpus)
    return corpus


def counting(enc):
    """enc, and the list of texts it is called on."""
    calls = []

    def counted(text):
        calls.append(text)
        return enc(text)

    return counted, calls


def benchmark_corpus(name, tmp_path, monkeypatch):
    """A benchmark workload's corpus lines and config, at scale 0.2 and seed 7."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workloads.generate(name, 7, str(tmp_path), scale=0.2)
    config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    return list(read_parallel_tsv(tmp_path / "corpus.tsv")), config


class TestChunkedFilter:
    """filter_groups against the filter's former per-pair loop followed by the
    former grouping, both kept above as the reference."""

    SIZES = [63, 64, 65, 129]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hashed_matches_reference(self, n, seed):
        pairs, bad, neighbours = planted_corpus(n, seed)
        corpus = with_lonely(pairs)
        groups, stats = assert_filters_alike(corpus, hashed_ngram_encoder(64), 0.3)
        # of the planted lines, only those with a blank side fail the n-gram
        # encoder; the blank sides of one-target sources are never encoded
        blanks = [i for i in bad if not pairs[i].source.strip() or not pairs[i].target.strip()]
        assert stats.encoder_failures == len(blanks) > 0
        assert stats.unpairable == len(corpus) - n > 0
        assert all((pairs[j].source, pairs[j].target) in kept_set(groups) for j in neighbours)
        assert 0 < stats.kept_pairs < n - len(blanks)

    @pytest.mark.parametrize("n", SIZES)
    def test_precomputed_matches_reference(self, n, tmp_path):
        pairs, bad, neighbours = planted_corpus(n, seed=n)
        enc = planted_vectors(pairs, tmp_path / "vectors.tsv")
        corpus = with_lonely(pairs)
        groups, stats = assert_filters_alike(corpus, enc, 0.3)
        assert stats.encoder_failures == len(bad) > 0
        assert stats.unpairable == len(corpus) - n > 0
        assert all((pairs[j].source, pairs[j].target) in kept_set(groups) for j in neighbours)

    @pytest.mark.parametrize("n", SIZES)
    def test_repeated_lines_and_shared_sources_match_reference(self, n, tmp_path):
        corpus = repeated_corpus(planted_corpus(n, seed=n)[0], seed=n)
        for enc in hashed_ngram_encoder(64), planted_vectors(corpus, tmp_path / "vectors.tsv"):
            groups, stats = assert_filters_alike(corpus, enc, 0.3)
            assert stats.input_pairs == len(corpus) > stats.kept_pairs > 0
            assert stats.encoder_failures > 0
            assert any(len(targets) > 1 for targets in groups.values())

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_repeated_line_counts_each_time(self, k):
        # a failing source, a failing target, a rejected line, two kept lines
        # and a one-target source
        lines = [AlignedPair("  ", "lost target"), AlignedPair("  ", "lost too"),
                 AlignedPair("some source", " "), AlignedPair("some source", "some source"),
                 AlignedPair("same words", "qwxz vbnm"), AlignedPair("same words", "same words"),
                 AlignedPair("lone words", "lone words")]
        enc, calls = counting(hashed_ngram_encoder(256))
        stats = MiningStats()
        assert filter_groups(lines * k, enc, 0.5, stats) == {
            "some source": ["some source"], "same words": ["same words"]
        }
        assert stats == MiningStats(input_pairs=7 * k, unpairable=k, kept_pairs=2 * k,
                                    encoder_failures=3 * k)
        # neither the failing source's targets nor the one-target source's
        # texts are encoded
        assert sorted(calls) == [" ", "  ", "qwxz vbnm", "same words", "same words",
                                 "some source", "some source"]
        assert_filters_alike(lines * k, hashed_ngram_encoder(256), 0.5)

    def test_source_ordered_by_first_line(self):
        # the cat's first line is rejected and the dog's kept; the cat's
        # group still comes first
        enc = hashed_ngram_encoder(256)
        pairs = [AlignedPair("the cat sat on the mat", "qwxz vbnm plo kij"),
                 AlignedPair("a dog ran in the park", "a dog ran in the parks"),
                 AlignedPair("the cat sat on the mat", "the cat sat on the mats"),
                 AlignedPair("a dog ran in the park", "qwxz vbnm plo kij")]
        groups, _ = assert_filters_alike(pairs, enc, 0.7)
        assert list(groups.items()) == [("the cat sat on the mat", ["the cat sat on the mats"]),
                                        ("a dog ran in the park", ["a dog ran in the parks"])]

    @given(st.lists(st.tuples(st.sampled_from(PROPERTY_SOURCES),
                              st.sampled_from(PROPERTY_TARGETS)), max_size=40),
           st.sampled_from([0.0, 0.3, 0.7]))
    @settings(max_examples=200, deadline=None)
    def test_first_line_order_property(self, lines, threshold):
        # sampled lines repeat, some sources have one target, and blank
        # texts fail the encoder
        pairs = [AlignedPair(source, target) for source, target in lines]
        assert_filters_alike(pairs, hashed_ngram_encoder(64), threshold)

    @pytest.mark.parametrize("name", ["desk", "mine-wide", "encode-ragged"])
    def test_benchmark_corpora_match_reference(self, name, tmp_path, monkeypatch):
        pairs, config = benchmark_corpus(name, tmp_path, monkeypatch)
        enc = hashed_ngram_encoder(config["filter_encoder"]["dimension"])
        groups, stats = assert_filters_alike(pairs, enc, config["mining"]["threshold"])
        assert len(pairs) > 128 and groups and stats.unpairable > 0
        # one encoder call per source of at least two distinct targets and one
        # per distinct aligned pair of such a source
        counted, calls = counting(enc)
        filter_groups(pairs, counted, config["mining"]["threshold"])
        pairable = [len(group) for group in targets_by_source(pairs).values() if len(group) >= 2]
        assert len(calls) == len(pairable) + sum(pairable) < 2 * len(pairs)

    def test_mixed_widths_across_pairs_are_a_bug(self):
        # a FilterEncoder gives one width for every text, within a pair too
        def enc(text):
            return np.ones(len(text))

        across = [AlignedPair("ab", "cd"), AlignedPair("ab", "ef"),
                  AlignedPair("abc", "def"), AlignedPair("abc", "ghi")]
        within = [AlignedPair("ab", "cde"), AlignedPair("ab", "fgh")]
        for pairs in across, within:
            stats = MiningStats()
            with pytest.raises(ValueError):
                filter_groups(pairs, enc, 0.0, stats)
            assert stats.encoder_failures == 0


class TestGroupBySource:
    """Threshold 0 with the hashed encoder keeps every line of a source of at
    least two distinct targets, so these see filter_groups' grouping alone."""

    @staticmethod
    def _groups(pairs, stats=None):
        return filter_groups(pairs, hashed_ngram_encoder(64), 0.0, stats)

    def test_basic_grouping(self):
        pairs = [
            AlignedPair("s1", "t1"),
            AlignedPair("s1", "t2"),
            AlignedPair("s2", "t3"),
            AlignedPair("s3", "t3"),
            AlignedPair("s3", "t1"),
        ]
        groups = self._groups(pairs)
        # s2 has one target, which s3 shares; a group is its source's alone
        assert list(groups.items()) == [("s1", ["t1", "t2"]), ("s3", ["t3", "t1"])]

    def test_duplicate_targets_deduplicated(self):
        pairs = [AlignedPair("s1", "t1"), AlignedPair("s1", "t2"), AlignedPair("s1", "t1")]
        groups = self._groups(pairs)
        assert groups == {"s1": ["t1", "t2"]}
        # a repeated line does not make its source pairable
        stats = MiningStats()
        assert self._groups([AlignedPair("s1", "t1")] * 2, stats) == {}
        assert stats == MiningStats(input_pairs=2, unpairable=2)

    def test_against_brute_force_oracle(self):
        rng = SeededRng(9)
        pairs = [
            AlignedPair(f"src{rng.integers(0, 100)}", f"tgt{rng.integers(0, 400)}")
            for _ in range(10_000)
        ] + [AlignedPair(f"lone{i}", f"tgt{i}") for i in range(50)]
        oracle: dict[str, set[str]] = defaultdict(set)
        for p in pairs:
            oracle[p.source].add(p.target)
        stats = MiningStats()
        groups = self._groups(pairs, stats)
        # the oracle's keys are in first-seen source order, as the groups are
        pairable = {source: targets for source, targets in oracle.items() if len(targets) >= 2}
        assert list(groups) == list(pairable)
        assert [set(targets) for targets in groups.values()] == list(pairable.values())
        assert stats.unpairable == 50


class TestGeneratePairs:
    def test_singleton_group_yields_nothing(self):
        assert generate_pairs(["only"], SeededRng(1)) == []

    def test_two_targets_single_pair(self):
        out = generate_pairs(["t1", "t2"], SeededRng(1))
        assert len(out) == 1
        assert {out[0].a, out[0].b} == {"t1", "t2"}

    def test_five_targets_coverage(self):
        targets = [f"t{i}" for i in range(5)]
        out = generate_pairs(targets, SeededRng(42))
        assert len(out) == 3
        members = [p.a for p in out] + [p.b for p in out]
        assert set(members) == set(targets)
        counts = {t: members.count(t) for t in targets}
        assert sorted(counts.values()) == [1, 1, 1, 1, 2]

    @given(st.integers(2, 10), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_coverage_and_count_property(self, n, seed):
        targets = [f"t{i}" for i in range(n)]
        out = generate_pairs(targets, SeededRng(seed))
        assert len(out) == math.ceil(n / 2)
        members = {p.a for p in out} | {p.b for p in out}
        assert members == set(targets)
        assert all(p.a != p.b for p in out)


def reference_mine(corpus, enc, threshold, seed):
    """Every line through the reference filter, then the groups of at least
    two kept targets, sources in the order of their first line, each drawing
    from a stream keyed by its source, and mine's former dedupe: a seen-set
    of unordered keys plus an output list."""
    rng = SeededRng(seed).substream("mining")
    kept = reference_filter(corpus, enc, threshold, MiningStats())
    groups = first_line_order(group_by_source(kept), corpus)
    seen, out = set(), []
    for source, targets in groups.items():
        if len(targets) < 2:
            continue
        for pair in generate_pairs(targets, rng.substream(f"group:{source}")):
            key = frozenset((pair.a, pair.b))
            if key not in seen:
                seen.add(key)
                out.append(pair)
    return out


def assert_mines_alike(corpus, enc, threshold, seed):
    """mine against reference_mine: the same pairs in the same order, the
    filter's counts as assert_filters_alike has them, and one group per
    source with at least two kept targets."""
    stats = MiningStats()
    out = mine(corpus, enc, MiningConfig(threshold=threshold), seed=seed, stats=stats)
    assert out == reference_mine(corpus, enc, threshold, seed)
    groups, expected = assert_filters_alike(corpus, enc, threshold)
    expected.groups = sum(len(targets) >= 2 for targets in groups.values())
    expected.emitted_pairs = len(out)
    assert stats == expected
    return out, stats


class TestMine:
    @staticmethod
    def _config(threshold=0.0):
        return MiningConfig(threshold=threshold)

    def test_no_repeated_source_gives_nothing(self):
        corpus = [AlignedPair(f"s{i}", f"t{i}") for i in range(10)]
        enc = hashed_ngram_encoder(64)
        assert mine(corpus, enc, self._config(), seed=0) == []

    def test_three_sources_four_targets_each(self):
        corpus = [
            AlignedPair(f"source {s}", f"target {s} variant {t}")
            for s in range(3)
            for t in range(4)
        ]
        enc = hashed_ngram_encoder(128)
        out = mine(corpus, enc, self._config(), seed=0)
        assert len(out) == 6  # ceil(4/2) per group

    def test_fixed_seed_is_deterministic(self):
        corpus = [
            AlignedPair(f"s{i % 5}", f"t{i}") for i in range(40)
        ]
        enc = hashed_ngram_encoder(64)
        assert mine(corpus, enc, self._config(), seed=77) == mine(
            corpus, enc, self._config(), seed=77
        )

    def test_no_self_pairs_and_dedup(self):
        corpus = [AlignedPair("s", f"t{i % 3}") for i in range(30)]
        enc = hashed_ngram_encoder(64)
        out = mine(corpus, enc, self._config(), seed=0)
        assert all(p.a != p.b for p in out)
        keys = [frozenset((p.a, p.b)) for p in out]
        assert len(keys) == len(set(keys))

    def test_dedupe_matches_reference(self):
        # many sources over a pool of 4 targets, so most pairs repeat, in
        # either order, across groups
        enc = hashed_ngram_encoder(64)
        reversed_repeats = 0
        for seed in range(30):
            rng = SeededRng(seed)
            corpus = [
                AlignedPair(f"s{rng.integers(0, 12)}", f"t{rng.integers(0, 4)}")
                for _ in range(60)
            ]
            out = mine(corpus, enc, self._config(), seed=seed)
            assert out == reference_mine(corpus, enc, 0.0, seed)
            generated = [
                pair
                for source, targets in group_by_source(corpus).items()
                if len(targets) >= 2
                for pair in generate_pairs(
                    targets, SeededRng(seed).substream("mining").substream(f"group:{source}")
                )
            ]
            reversed_repeats += sum(ParaphrasePair(p.b, p.a) in generated for p in out)
        assert reversed_repeats > 0

    @pytest.mark.parametrize("n", TestChunkedFilter.SIZES)
    def test_planted_corpora_match_reference(self, n, tmp_path):
        pairs, _, _ = planted_corpus(n, seed=n)
        corpus = with_lonely(pairs)
        for enc in hashed_ngram_encoder(64), planted_vectors(pairs, tmp_path / "vectors.tsv"):
            out, stats = assert_mines_alike(corpus, enc, 0.3, seed=n)
            assert stats.unpairable > 0 and stats.encoder_failures > 0 and out
        # no text of with_lonely's one-target sources reaches the encoder
        # ("" is also a planted target of a pairable source)
        lone = {text for pair in corpus[4::5] for text in (pair.source, pair.target)} - {""}
        enc, calls = counting(hashed_ngram_encoder(64))
        mine(corpus, enc, self._config(0.3), seed=n)
        assert lone and not lone & set(calls)

    @pytest.mark.parametrize("name", ["desk", "mine-wide", "encode-ragged"])
    def test_benchmark_corpora_match_reference(self, name, tmp_path, monkeypatch):
        pairs, config = benchmark_corpus(name, tmp_path, monkeypatch)
        threshold = config["mining"]["threshold"]
        hashed = hashed_ngram_encoder(config["filter_encoder"]["dimension"])
        for enc in hashed, planted_vectors(pairs, tmp_path / "vectors.tsv"):
            out, stats = assert_mines_alike(pairs, enc, threshold, seed=7)
            assert stats.unpairable > 0 and stats.groups > 0 and out
        # no text that only one-target sources hold reaches the encoder
        pairable, lone = set(), set()
        for source, group in targets_by_source(pairs).items():
            (pairable if len(group) >= 2 else lone).update((source, *group))
        lone -= pairable
        enc, calls = counting(hashed)
        mine(pairs, enc, MiningConfig(threshold=threshold), seed=7)
        assert lone and not lone & set(calls)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_pairs_ignore_other_sources(self, data):
        # each source's targets are its own, so every pair names its group
        drawn = data.draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4)), max_size=40))
        corpus = [AlignedPair(f"source {s}", f"target {s}.{t}") for s, t in drawn]
        removed = data.draw(st.sets(st.integers(0, 7)))
        seed = data.draw(st.integers(0, 2**32))
        enc = hashed_ngram_encoder(64)

        def by_group(lines):
            groups = defaultdict(list)
            for pair in mine(lines, enc, self._config(), seed=seed):
                groups[int(pair.a.split()[1].split(".")[0])].append(pair)
            return groups

        full = by_group(corpus)
        rest = by_group([pair for pair in corpus if int(pair.source.split()[1]) not in removed])
        assert rest == {s: pairs for s, pairs in full.items() if s not in removed}

    def test_stats_counts(self):
        corpus = [
            AlignedPair(f"source {s}", f"target {s} number {t}")
            for s in range(4)
            for t in range(3)
        ]
        enc = hashed_ngram_encoder(128)
        stats = MiningStats()
        out = mine(corpus, enc, self._config(), seed=0, stats=stats)
        assert stats.input_pairs == 12
        assert stats.kept_pairs == 12
        assert stats.groups == 4
        assert stats.emitted_pairs == len(out) == 8
