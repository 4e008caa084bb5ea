"""Corpus ingestion and mined-pair serialization.

Formats:
  - parallel TSV:  source<TAB>target, one aligned pair per line
  - Moses-style:   two files, line i of each aligned
  - eval TSV:      label<TAB>sentence[<TAB>sentence2]
  - mined pairs:   sentence_a<TAB>sentence_b

All text is normalized at ingestion (trim, collapse internal whitespace,
case preserved) because downstream grouping relies on exact string equality.
Readers are forward-only iterators so corpora larger than memory can be mined.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, TextIO

from .errors import CorpusError


@dataclass(frozen=True)
class AlignedPair:
    source: str
    target: str


@dataclass(frozen=True)
class ParaphrasePair:
    a: str
    b: str


@dataclass(frozen=True)
class EvalRecord:
    label: str | float
    sentences: tuple[str, ...]


def normalize(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(text.split())


class PairReader:
    """Forward-only stream of AlignedPair; counts skipped malformed lines."""

    def __init__(self):
        self.skipped = 0
        self.total_lines = 0

    def __iter__(self) -> Iterator[AlignedPair]:
        raise NotImplementedError


class TsvPairReader(PairReader):
    def __init__(self, path: str | os.PathLike):
        super().__init__()
        self.path = path

    def __iter__(self) -> Iterator[AlignedPair]:
        try:
            handle = open(self.path, encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"cannot read corpus file {self.path}: {exc}") from exc
        with handle:
            for line in handle:
                self.total_lines += 1
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 2:
                    self.skipped += 1
                    continue
                source, target = normalize(fields[0]), normalize(fields[1])
                if not source or not target:
                    self.skipped += 1
                    continue
                yield AlignedPair(source, target)


class MosesPairReader(PairReader):
    """Two-file aligned reader; a line-count mismatch means corrupted alignment."""

    def __init__(self, source_path: str | os.PathLike, target_path: str | os.PathLike):
        super().__init__()
        self.source_path = source_path
        self.target_path = target_path

    def __iter__(self) -> Iterator[AlignedPair]:
        try:
            src = open(self.source_path, encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"cannot read {self.source_path}: {exc}") from exc
        try:
            tgt = open(self.target_path, encoding="utf-8")
        except OSError as exc:
            src.close()
            raise CorpusError(f"cannot read {self.target_path}: {exc}") from exc
        sentinel = object()
        with src, tgt:
            while True:
                s = next(src, sentinel)
                t = next(tgt, sentinel)
                if s is sentinel and t is sentinel:
                    return
                if s is sentinel or t is sentinel:
                    raise CorpusError(
                        f"line-count mismatch between {self.source_path} "
                        f"and {self.target_path}"
                    )
                self.total_lines += 1
                source, target = normalize(s), normalize(t)
                if not source or not target:
                    self.skipped += 1
                    continue
                yield AlignedPair(source, target)


def read_parallel_tsv(path: str | os.PathLike) -> TsvPairReader:
    return TsvPairReader(path)


def read_parallel_moses(source_path, target_path) -> MosesPairReader:
    return MosesPairReader(source_path, target_path)


def read_eval_dataset(
    path: str | os.PathLike,
    kind: Literal["classification", "regression"],
    arity: Literal["single", "pair"],
) -> list[EvalRecord]:
    if kind not in ("classification", "regression"):
        raise CorpusError(f"unknown task kind {kind!r}")
    if arity not in ("single", "pair"):
        raise CorpusError(f"unknown arity {arity!r}")
    expected_cols = 2 if arity == "single" else 3
    records: list[EvalRecord] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read eval dataset {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != expected_cols:
                raise CorpusError(
                    f"{path}:{lineno}: expected {expected_cols} columns, "
                    f"got {len(fields)}"
                )
            raw_label = fields[0].strip()
            sentences = tuple(normalize(f) for f in fields[1:])
            if any(not s for s in sentences):
                raise CorpusError(f"{path}:{lineno}: empty sentence field")
            label: str | float
            if kind == "regression":
                try:
                    label = float(raw_label)
                except ValueError as exc:
                    raise CorpusError(
                        f"{path}:{lineno}: non-numeric score {raw_label!r}"
                    ) from exc
                if not (label == label and abs(label) != float("inf")):
                    raise CorpusError(f"{path}:{lineno}: non-finite score")
            else:
                if not raw_label:
                    raise CorpusError(f"{path}:{lineno}: empty class label")
                label = raw_label
            records.append(EvalRecord(label, sentences))
    return records


def _sanitize(text: str) -> str:
    # Embedded tabs/newlines would break the single-pass TSV format.
    return normalize(text.replace("\t", " "))


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[TextIO]:
    """A UTF-8, LF text handle that replaces `path` only once the block
    completes. Text is streamed to a temp file beside `path` and moved over
    it with os.replace; on any failure the temp file is removed, so `path`
    holds either its old content or the whole new one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc}") from exc
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_pairs(pairs: Iterable[ParaphrasePair], path: str | os.PathLike) -> None:
    with atomic_write(path) as handle:
        for pair in pairs:
            handle.write(f"{_sanitize(pair.a)}\t{_sanitize(pair.b)}\n")


def read_pairs(path: str | os.PathLike) -> list[ParaphrasePair]:
    """Read a mined-pairs TSV written by write_pairs."""
    reader = TsvPairReader(path)
    return [ParaphrasePair(p.source, p.target) for p in reader]
