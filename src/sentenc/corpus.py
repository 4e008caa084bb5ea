"""Corpus ingestion and mined-pair serialization. Every data input file is
opened through open_input, and TSV inputs are split here.

Formats:
  - parallel TSV:  source<TAB>target, one aligned pair per line
  - Moses-style:   two files, line i of each aligned
  - eval TSV:      label<TAB>sentence[<TAB>sentence2]
  - mined pairs:   sentence_a<TAB>sentence_b
  - filter vectors: sentence<TAB>v1 v2 ... vD (parsed by mining)

All text is normalized at ingestion (trim, collapse internal whitespace,
case preserved) because downstream grouping relies on exact string equality.
Readers are forward-only iterators, so reading holds one line at a time;
mining itself holds the strings of every distinct aligned line.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Literal, Sequence, TextIO

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


def open_input(path: str | os.PathLike, what: str) -> TextIO:
    """A UTF-8 text handle on an input file; an unreadable file is a
    CorpusError naming `what` it was read as."""
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {what} {path}: {exc}") from exc


def numbered_rows(
    path: str | os.PathLike, what: str, columns: int
) -> Iterator[tuple[str, list[str]]]:
    """("path:lineno", fields) for each non-blank line of a TSV file; a line
    with other than `columns` tab-separated fields is a CorpusError."""
    with open_input(path, what) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != columns:
                raise CorpusError(
                    f"{path}:{lineno}: expected {columns} tab-separated fields, "
                    f"got {len(fields)}"
                )
            yield f"{path}:{lineno}", fields


class PairReader:
    """Forward-only stream of AlignedPair over rows of fields. A row that
    does not hold exactly two fields, or whose source or target normalizes
    to empty, is skipped and counted."""

    def __init__(self, rows: Iterator[Sequence[str]]):
        self._rows = rows
        self.skipped = 0
        self.total_lines = 0

    def __iter__(self) -> Iterator[AlignedPair]:
        for fields in self._rows:
            self.total_lines += 1
            if len(fields) == 2:
                source, target = normalize(fields[0]), normalize(fields[1])
                if source and target:
                    yield AlignedPair(source, target)
                    continue
            self.skipped += 1


def _tsv_rows(path: str | os.PathLike, what: str) -> Iterator[list[str]]:
    with open_input(path, what) as handle:
        for line in handle:
            yield line.rstrip("\n").split("\t")


def _moses_rows(source_path, target_path) -> Iterator[tuple[str, str]]:
    # a line-count mismatch means corrupted alignment
    with (
        open_input(source_path, "corpus file") as src,
        open_input(target_path, "corpus file") as tgt,
    ):
        for source, target in zip_longest(src, tgt):
            if source is None or target is None:
                raise CorpusError(
                    f"line-count mismatch between {source_path} and {target_path}"
                )
            yield source, target


def read_parallel_tsv(path: str | os.PathLike) -> PairReader:
    return PairReader(_tsv_rows(path, "corpus file"))


def read_parallel_moses(source_path, target_path) -> PairReader:
    return PairReader(_moses_rows(source_path, target_path))


def read_eval_dataset(
    path: str | os.PathLike,
    kind: Literal["classification", "regression"],
    arity: Literal["single", "pair"],
) -> list[EvalRecord]:
    records: list[EvalRecord] = []
    columns = 2 if arity == "single" else 3
    for where, fields in numbered_rows(path, "eval dataset", columns):
        raw_label = fields[0].strip()
        sentences = tuple(normalize(f) for f in fields[1:])
        if not all(sentences):
            raise CorpusError(f"{where}: empty sentence field")
        label: str | float
        if kind == "regression":
            try:
                label = float(raw_label)
            except ValueError as exc:
                raise CorpusError(f"{where}: non-numeric score {raw_label!r}") from exc
            if not math.isfinite(label):
                raise CorpusError(f"{where}: non-finite score")
        else:
            if not raw_label:
                raise CorpusError(f"{where}: empty class label")
            label = raw_label
        records.append(EvalRecord(label, sentences))
    return records


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[TextIO]:
    """A UTF-8, LF text handle that replaces `path` only once the block
    completes. Text is streamed to a temp file beside `path` and moved over
    it with os.replace; on any failure the temp file is removed, so `path`
    holds either its old content or the whole new one. A path os.replace
    cannot move a file to (empty, ending in a separator, or a directory) is
    refused before the temp file is made."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise CorpusError(f"cannot write {os.fspath(path)!r}: not a path to a file")
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
    # normalize turns every tab and line break into a space, so each pair
    # stays one two-field row
    with atomic_write(path) as handle:
        for pair in pairs:
            handle.write(f"{normalize(pair.a)}\t{normalize(pair.b)}\n")


def read_pairs(path: str | os.PathLike) -> list[ParaphrasePair]:
    """Read a mined-pairs TSV written by write_pairs. A malformed row means
    the file was not written by write_pairs, so it is an error, not a skip."""
    reader = PairReader(_tsv_rows(path, "pairs file"))
    pairs = [ParaphrasePair(p.source, p.target) for p in reader]
    if reader.skipped:
        raise CorpusError(
            f"{path}: {reader.skipped} of {reader.total_lines} rows are not "
            "sentence_a<TAB>sentence_b"
        )
    return pairs
