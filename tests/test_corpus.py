import pytest
from hypothesis import given, strategies as st

from sentenc.corpus import (
    AlignedPair,
    CorpusError,
    ParaphrasePair,
    normalize,
    read_eval_dataset,
    read_pairs,
    read_parallel_moses,
    read_parallel_tsv,
    write_pairs,
)

sentence_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=40
).filter(lambda s: normalize(s.replace("\t", " ")) != "")


class TestParallelTsv:
    def test_single_record(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("hello\tczesc\n", encoding="utf-8")
        reader = read_parallel_tsv(p)
        assert list(reader) == [AlignedPair("hello", "czesc")]
        assert reader.skipped == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("", encoding="utf-8")
        reader = read_parallel_tsv(p)
        assert list(reader) == []
        assert reader.skipped == 0

    def test_malformed_line_skipped(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("no-tab-here\n", encoding="utf-8")
        reader = read_parallel_tsv(p)
        assert list(reader) == []
        assert reader.skipped == 1

    def test_skip_count_exact(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(
            "a\tb\nbad line\n\t\nc\td\ntoo\tmany\ttabs\n", encoding="utf-8"
        )
        reader = read_parallel_tsv(p)
        out = list(reader)
        assert len(out) == 2
        assert reader.total_lines == len(out) + reader.skipped

    def test_whitespace_normalized(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("  a   b \tc  d\n", encoding="utf-8")
        assert list(read_parallel_tsv(p)) == [AlignedPair("a b", "c d")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            list(read_parallel_tsv(tmp_path / "nope.tsv"))


class TestParallelMoses:
    def test_three_lines(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a\nb\nc\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\n", encoding="utf-8")
        pairs = list(read_parallel_moses(src, tgt))
        assert pairs == [AlignedPair("a", "x"), AlignedPair("b", "y"), AlignedPair("c", "z")]

    def test_length_mismatch(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a\nb\nc\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\nw\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            list(read_parallel_moses(src, tgt))

    def test_missing_target_file(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("a\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="t.txt"):
            list(read_parallel_moses(src, tmp_path / "t.txt"))

    def test_blank_line_skipped(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a\n\nc\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\n", encoding="utf-8")
        reader = read_parallel_moses(src, tgt)
        assert list(reader) == [AlignedPair("a", "x"), AlignedPair("c", "z")]
        assert reader.skipped == 1


class TestEvalDataset:
    def test_classification_single(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("positive\tgood food\n", encoding="utf-8")
        records = read_eval_dataset(p, "classification", "single")
        assert len(records) == 1
        assert records[0].label == "positive"
        assert records[0].sentences == ("good food",)

    def test_regression_pair(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("4.5\tA man runs\tA person is running\n", encoding="utf-8")
        records = read_eval_dataset(p, "regression", "pair")
        assert records[0].label == 4.5
        assert len(records[0].sentences) == 2

    def test_nonnumeric_regression_score(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("abc\tx\ty\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_eval_dataset(p, "regression", "pair")

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("pos\tone\ttwo\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_eval_dataset(p, "classification", "single")


class TestWritePairs:
    def test_round_trip(self, tmp_path):
        pairs = [ParaphrasePair(f"sent a {i}", f"sent b {i}") for i in range(100)]
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs([], path)
        assert path.read_text(encoding="utf-8") == ""

    def test_internal_tab_replaced(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs([ParaphrasePair("has\ttab", "ok")], path)
        assert read_pairs(path) == [ParaphrasePair("has tab", "ok")]

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(CorpusError):
            write_pairs([], tmp_path / "no" / "such" / "dir.tsv")

    @given(st.lists(st.tuples(sentence_text, sentence_text), max_size=20))
    def test_round_trip_property(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("rt") / "pairs.tsv"
        pairs = [
            ParaphrasePair(
                normalize(a.replace("\t", " ")), normalize(b.replace("\t", " "))
            )
            for a, b in raw
        ]
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs
