"""Run configuration: one JSON document drives the whole pipeline.

Unknown keys are rejected so typos fail loudly, and values are checked at
load, before any stage runs. All randomness flows from the single master seed
via named sub-streams; no stage takes a seed of its own.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, is_dataclass

from .encoder import EncoderConfig, EncoderError
from .evalharness import DEFAULT_HIDDEN, DEFAULT_LAMBDA_GRID
from .mining import MiningConfig, MiningError
from .numeric import check_seed
from .training import TrainConfig


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass
class FilterEncoderConfig:
    type: str = "hashed_ngram"  # hashed_ngram | precomputed
    dimension: int = 512
    path: str | None = None

    def __post_init__(self):
        if self.type not in ("hashed_ngram", "precomputed"):
            raise ConfigError(f"unknown filter encoder type {self.type!r}")
        if self.type == "precomputed" and not self.path:
            raise ConfigError("precomputed filter encoder needs a path")


@dataclass
class EvalTaskConfig:
    name: str
    kind: str
    arity: str
    train: str
    validation: str
    test: str


@dataclass
class EvalConfig:
    tasks: list[EvalTaskConfig] = field(default_factory=list)
    lambda_grid: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDA_GRID))
    hidden: int = DEFAULT_HIDDEN

    def __post_init__(self):
        if not self.lambda_grid:
            raise ValueError("lambda_grid must not be empty")


@dataclass
class PathsConfig:
    corpus_tsv: str | None = None
    corpus_source: str | None = None  # Moses-style pair of files
    corpus_target: str | None = None
    pairs: str = "pairs.tsv"
    checkpoint: str = "model.json"
    loss_csv: str = "loss.csv"
    eval_report: str = "results.csv"


@dataclass
class RunConfig:
    seed: int = 0
    min_count: int = 1  # vocabulary frequency cutoff
    paths: PathsConfig = field(default_factory=PathsConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    filter_encoder: FilterEncoderConfig = field(default_factory=FilterEncoderConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_seed(self.seed)
        if not (isinstance(self.min_count, int) and self.min_count >= 1):
            raise ValueError(f"min_count {self.min_count!r} must be an integer >= 1")


def _build(cls, data, context: str):
    """An instance of dataclass `cls` from a JSON object. Keys are the fields
    of `cls`; a field whose type is a dataclass, or a list of one, is built
    from its nested object(s) the same way."""
    where = context or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        path = f"{context}.{name}" if context else name
        kind = hints[name]
        if is_dataclass(kind):
            value = _build(kind, value, path)
        elif typing.get_origin(kind) is list and is_dataclass(typing.get_args(kind)[0]):
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list")
            item = typing.get_args(kind)[0]
            value = [_build(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, EncoderError, MiningError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_run_config(path: str | os.PathLike, seed: int | None = None) -> RunConfig:
    """Read and check a run configuration. `seed`, when given, replaces the
    document's master seed before any value is checked."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    return _build(RunConfig, doc, "")
