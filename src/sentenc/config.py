"""Run configuration: one JSON document drives the whole pipeline.

Unknown keys are rejected so typos fail loudly, and values are checked at
load, before any stage runs: first each value against its field's type hint,
then each field's declared range (errors.check_declared), then the sizes of
the smallest encoder and probe against encoder.PARAM_CEILING and the
encoder's tensor count against encoder.TENSOR_CEILING. All randomness
flows from the single master seed via named sub-streams; no stage takes a
seed of its own.
"""

from __future__ import annotations

import json
import math
import os
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Literal

from .encoder import (
    PARAM_CEILING,
    SPECIAL_TOKENS,
    EncoderConfig,
    check_param_count,
    check_tensor_count,
    param_count,
    param_size,
)
from .errors import ConfigError, check_declared, check_value, field_hints
from .evalharness import DEFAULT_HIDDEN, DEFAULT_LAMBDA_GRID, probe_shapes
from .mining import MIN_FILTER_DIMENSION, MiningConfig
from .training import TrainConfig


@dataclass
class FilterEncoderConfig:
    type: Literal["hashed_ngram", "precomputed"] = "hashed_ngram"
    # hashed_ngram only, 512 when unset
    dimension: int | None = field(
        default=None, metadata={"min": MIN_FILTER_DIMENSION, "max": PARAM_CEILING})
    path: str | None = None  # precomputed only

    def __post_init__(self):
        # under precomputed a dimension is an unread key (_UNREAD_WHEN), not out of range
        unread = ("dimension",) if self.type == "precomputed" else ()
        check_declared(self, "filter_encoder.", unread)
        if self.type == "precomputed" and not self.path:
            raise ConfigError("precomputed filter encoder needs a path")
        if self.type == "hashed_ngram" and self.dimension is None:
            self.dimension = 512


@dataclass
class EvalTaskConfig:
    name: str
    kind: Literal["classification", "regression"]
    arity: Literal["single", "pair"]
    train: str
    validation: str
    test: str

    def __post_init__(self):
        # config load names a task by its index (_checked, before this
        # runs); a task built outside a config is named by its name
        check_declared(self, f"eval.tasks[{self.name!r}].")


@dataclass
class EvalConfig:
    tasks: list[EvalTaskConfig] = field(default_factory=list)
    lambda_grid: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDA_GRID),
                                     metadata={"min": 0})
    hidden: int = field(default=DEFAULT_HIDDEN, metadata={"min": 1})

    def __post_init__(self):
        check_declared(self, "eval.")
        names = [task.name for task in self.tasks]
        for name in names:
            # results.csv writes the name unquoted as its first field
            if not name or any(c in name for c in ',"\r\n') or names.count(name) > 1:
                raise ValueError(
                    f"task name {name!r} must be nonempty, unique and free of "
                    "commas, double quotes and line breaks"
                )
        if not self.lambda_grid:
            raise ValueError("lambda_grid must hold at least one number")
        check_param_count(param_size(probe_shapes(1, self.hidden, 1)),
                          " in the smallest probe (1 input, 1 output)")


@dataclass
class PathsConfig:
    corpus_tsv: str | None = None
    corpus_source: str | None = None  # Moses-style pair of files
    corpus_target: str | None = None
    pairs: str = "pairs.tsv"
    checkpoint: str = "model.json"
    loss_csv: str = "loss.csv"
    eval_report: str = "results.csv"

    def __post_init__(self):
        # beside corpus_tsv a Moses path is an unread key (_UNREAD_WHEN)
        moses = (self.corpus_source, self.corpus_target)
        if not self.corpus_tsv and any(moses) and not all(moses):
            raise ValueError("corpus_source and corpus_target must be set together")


# the files the commands write; none may be the config file or another file it names
OUTPUT_KEYS = ("paths.pairs", "paths.checkpoint", "paths.loss_csv", "paths.eval_report")


@dataclass
class RunConfig:
    seed: int = field(default=0, metadata={"min": 0, "max": 2**64 - 1})
    min_count: int = field(default=1, metadata={"min": 1})  # vocabulary frequency cutoff
    paths: PathsConfig = field(default_factory=PathsConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    filter_encoder: FilterEncoderConfig = field(default_factory=FilterEncoderConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_declared(self, "")
        # checked here, not in EncoderConfig, so library models are unaffected
        if self.encoder.pooling == "cls" and self.encoder.num_blocks == 0:
            raise ValueError(
                "encoder.pooling 'cls' needs encoder.num_blocks >= 1: without "
                "attention every sentence encodes to the <cls> embedding"
            )
        check_param_count(param_count(self.encoder, len(SPECIAL_TOKENS)),
                          f" in the smallest encoder (a {len(SPECIAL_TOKENS)}-token vocabulary)")
        check_tensor_count(self.encoder)

    def named_paths(self) -> dict[str, str]:
        """Every file path the config sets, keyed by its config key."""
        named = {f"paths.{name}": path for name, path in vars(self.paths).items()}
        named["filter_encoder.path"] = self.filter_encoder.path
        for i, task in enumerate(self.eval.tasks):
            for split in ("train", "validation", "test"):
                named[f"eval.tasks[{i}].{split}"] = getattr(task, split)
        return {key: path for key, path in named.items() if path is not None}


def reject_overwrite(outputs: dict[str, str], named: dict[str, str]) -> None:
    """ConfigError if a path in `outputs` resolves to the same file as any
    other path in `named`: writing it would destroy that file."""
    real = {key: os.path.realpath(path) for key, path in named.items()}
    for out, path in outputs.items():
        resolved = os.path.realpath(path)
        for key, other in real.items():
            if key != out and other == resolved:
                raise ConfigError(f"{out} and {key} name the same file {path}")


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}

# Keys a section reads only under some setting of another of its keys: each
# names that key and a test of its value under which the first goes unread.
# Setting such a key anyway is a config error, not a knob silently ignored,
# and a checkpoint stores only the encoder keys read (read_fields).
_UNREAD_WHEN = {
    "filter_encoder.dimension": ("type", lambda v: v == "precomputed"),
    "filter_encoder.path": ("type", lambda v: v == "hashed_ngram"),
    "paths.corpus_source": ("corpus_tsv", bool),
    "paths.corpus_target": ("corpus_tsv", bool),
    "encoder.lstm_hidden": ("pooling", lambda v: v != "lstm"),
    "encoder.ffn_dim": ("num_blocks", lambda v: v == 0),
}


def _checked(hint, value, key: str):
    """`value` if it has type `hint`, with nested dataclasses built. JSON
    numbers are strict: an int field takes no bool or float, a float field
    takes a finite int or float but no bool (Python's json reads NaN and
    Infinity)."""
    if is_dataclass(hint):
        return _build(hint, value, key)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} {value!r} must be a list")
        return [_checked(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    if origin is types.UnionType:  # only `X | None` is used
        return None if value is None else _checked(args[0], value, key)
    if origin is Literal:
        check_value(key, value, hint, {})
        return value
    accepted = (int, float) if hint is float else hint
    if isinstance(value, accepted) and not isinstance(value, bool):
        if not isinstance(value, float) or math.isfinite(value):
            return value
    raise ConfigError(f"{key} {value!r} must be {_TYPE_NAMES[hint]}")


def _build(cls, data, context: str):
    """An instance of dataclass `cls` from a JSON object: its keys are fields
    of `cls`, each value has its field's type hint (see _checked), every field
    without a default is present, and no key is left unread (_UNREAD_WHEN)."""
    where = context or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = field_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    kwargs = {
        name: _checked(hints[name], value, f"{context}.{name}" if context else name)
        for name, value in data.items()
    }
    try:
        section = cls(**kwargs)
    except ValueError as exc:  # a rule across fields; a ConfigError names its own key
        raise ConfigError(f"{where}: {exc}") from exc
    for name, value in data.items():
        if value is not None and (setting := _unread_by(section, f"{context}.{name}")):
            raise ConfigError(f"{context}.{name} {value!r} is not read when "
                              f"{context}.{setting} is {getattr(section, setting)!r}")
    return section


def _unread_by(section, key: str) -> str | None:
    """The field of `section` whose value leaves `key` unread, if any."""
    setting, unread = _UNREAD_WHEN.get(key, ("", None))
    return setting if unread and unread(getattr(section, setting)) else None


def read_fields(section, context: str) -> dict:
    """The fields of dataclass instance `section` and their values, less the
    fields that _UNREAD_WHEN says its other values leave unread."""
    return {f.name: getattr(section, f.name) for f in fields(section)
            if not _unread_by(section, f"{context}.{f.name}")}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict. json.load would keep only the last value of
    a repeated key, so a repeat is a ConfigError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} is repeated in one object")
        doc[key] = value
    return doc


def load_run_config(path: str | os.PathLike, seed: int | None = None) -> RunConfig:
    """Read and check a run configuration. `seed`, when given, replaces the
    document's master seed before any value is checked. No output path may
    resolve to the config file itself or to any other file the config names."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    config = _build(RunConfig, doc, "")
    named = {"--config": path, **config.named_paths()}
    reject_overwrite({key: named[key] for key in OUTPUT_KEYS}, named)
    return config
