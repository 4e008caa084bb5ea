"""Run configuration: one JSON document drives the whole pipeline.

Unknown keys are rejected so typos fail loudly. All randomness flows from the
single master seed via named sub-streams.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .encoder import EncoderConfig, EncoderError
from .mining import MiningConfig, MiningError
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
    lambda_grid: list[float] = field(
        default_factory=lambda: [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    )
    hidden: int = 64


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


def _build(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object")
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError, EncoderError, MiningError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_run_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    known = {
        "seed",
        "min_count",
        "paths",
        "mining",
        "filter_encoder",
        "encoder",
        "training",
        "eval",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")

    eval_section = doc.get("eval", {})
    if not isinstance(eval_section, dict):
        raise ConfigError("eval: expected an object")
    task_docs = eval_section.pop("tasks", [])
    tasks = [_build(EvalTaskConfig, t, f"eval.tasks[{i}]") for i, t in enumerate(task_docs)]
    eval_config = _build(EvalConfig, eval_section, "eval")
    eval_config.tasks = tasks

    return RunConfig(
        seed=doc.get("seed", 0),
        min_count=doc.get("min_count", 1),
        paths=_build(PathsConfig, doc.get("paths", {}), "paths"),
        mining=_build(MiningConfig, doc.get("mining", {}), "mining"),
        filter_encoder=_build(
            FilterEncoderConfig, doc.get("filter_encoder", {}), "filter_encoder"
        ),
        encoder=_build(EncoderConfig, doc.get("encoder", {}), "encoder"),
        training=_build(TrainConfig, doc.get("training", {}), "training"),
        eval=eval_config,
    )
