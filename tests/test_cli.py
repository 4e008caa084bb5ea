import base64
import dataclasses
import errno
import functools
import hashlib
import importlib.util
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import sentenc.cli
import sentenc.encoder
from sentenc.cli import main
from sentenc.config import EvalTaskConfig, RunConfig, load_run_config
from sentenc.corpus import read_pairs
from sentenc.encoder import (
    PARAM_CEILING,
    SPECIAL_TOKENS,
    TENSOR_CEILING,
    EncoderConfig,
    param_count,
    param_shapes,
)
from sentenc.errors import ConfigError
from sentenc.training import STEP_CEILING


def write_config(tmp_path, **overrides):
    config = {
        "seed": 42,
        "paths": {
            "corpus_tsv": str(tmp_path / "corpus.tsv"),
            "pairs": str(tmp_path / "pairs.tsv"),
            "checkpoint": str(tmp_path / "model.json"),
            "loss_csv": str(tmp_path / "loss.csv"),
            "eval_report": str(tmp_path / "results.csv"),
        },
        "mining": {"threshold": 0.0},
        "filter_encoder": {"dimension": 64},
        "encoder": {
            "embed_dim": 8,
            "num_blocks": 1,
            "ffn_dim": 16,
            "pooling": "lstm",
            "lstm_hidden": 12,
            "max_len": 16,
        },
        "training": {"batch_size": 4, "epochs": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _file_bytes(directory):
    """Every file under `directory`, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture
def fixture_corpus(tmp_path):
    # 12 aligned pairs over 3 repeated sources (4 targets each)
    lines = [
        f"source sentence {s}\ttarget {s} variant {t}"
        for s in range(3)
        for t in range(4)
    ]
    (tmp_path / "corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path


# an eval task whose files need not exist: `mine` loads the config but not the tasks
_TASK = {
    "name": "t",
    "kind": "classification",
    "arity": "single",
    "train": "t.train.tsv",
    "validation": "t.validation.tsv",
    "test": "t.test.tsv",
}


# configs that load as JSON but are refused by every command
_CLS_WITHOUT_BLOCKS = {"encoder": {"pooling": "cls", "num_blocks": 0}}
_TSV_AND_MOSES = {"paths": {"corpus_source": "s.txt", "corpus_target": "t.txt"}}
_ONE_MOSES_PATH = {"paths": {"corpus_tsv": None, "corpus_source": "s.txt"}}
_PRECOMPUTED = {"type": "precomputed", "path": "vectors.tsv"}

# the line a key gets that its section leaves unread; write_config's encoder
# sets ffn_dim 16 and lstm_hidden 12, which _CLS_WITHOUT_BLOCKS leaves unread
_FFN_DIM_UNREAD = "encoder.ffn_dim 16 is not read when encoder.num_blocks is 0"
_MOSES_UNREAD = "paths.corpus_source 's.txt' is not read when paths.corpus_tsv is "
_HASHED_NGRAM_PATH_UNREAD = (
    "filter_encoder.path 'vectors.tsv' is not read when filter_encoder.type is 'hashed_ngram'"
)


def _dimension_unread(dimension):
    return (f"filter_encoder.dimension {dimension} is not read when "
            "filter_encoder.type is 'precomputed'")


def _lstm_hidden_unread(pooling):
    return f"encoder.lstm_hidden 12 is not read when encoder.pooling is '{pooling}'"


class TestMineCommand:
    def test_summary_counts_match_hand_count(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "input pairs:        12" in out
        assert "unpairable lines:   0" in out
        assert "filtered survivors: 12" in out
        assert "encoder failures:   0" in out
        assert "groups >= 2:        3" in out
        assert "emitted pairs:      6" in out
        assert len(read_pairs(fixture_corpus / "pairs.tsv")) == 6

    def test_unpairable_lines_are_counted_and_leave_pairs_alone(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        capsys.readouterr()
        pairs = (fixture_corpus / "pairs.tsv").read_bytes()
        # three lines of two one-target sources, ahead of every pairable source
        corpus = fixture_corpus / "corpus.tsv"
        lone = "lone source\tlone target\n" * 2 + "other lone\tqwxz vbnm\n"
        corpus.write_text(lone + corpus.read_text(encoding="utf-8"), encoding="utf-8")
        (fixture_corpus / "pairs.tsv").unlink()
        assert main(["mine", "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines()[:6] == [
            "input pairs:        15",
            "unpairable lines:   3",
            "filtered survivors: 12",
            "encoder failures:   0",
            "groups >= 2:        3",
            "emitted pairs:      6",
        ]
        assert (fixture_corpus / "pairs.tsv").read_bytes() == pairs

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 PiB for an array", ""])
    def test_memory_error_exits_1_with_one_line(self, fixture_corpus, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(sentenc.cli, "mine", exhausted)
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"I/O error: out of memory{': ' * bool(message)}{message}\n"
        assert not (fixture_corpus / "pairs.tsv").exists()

    def test_moses_pair_mines_like_one_tsv(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        tsv_out = capsys.readouterr().out
        tsv_pairs = (fixture_corpus / "pairs.tsv").read_bytes()

        lines = (fixture_corpus / "corpus.tsv").read_text(encoding="utf-8").splitlines()
        sides = [line.split("\t") for line in lines]
        for i, name in enumerate(("source.txt", "target.txt")):
            text = "".join(f"{side[i]}\n" for side in sides)
            (fixture_corpus / name).write_text(text, encoding="utf-8")
        (fixture_corpus / "pairs.tsv").unlink()
        config = write_config(
            fixture_corpus,
            paths={
                "corpus_tsv": None,
                "corpus_source": str(fixture_corpus / "source.txt"),
                "corpus_target": str(fixture_corpus / "target.txt"),
            },
        )
        assert main(["mine", "--config", str(config)]) == 0
        assert capsys.readouterr().out == tsv_out
        assert (fixture_corpus / "pairs.tsv").read_bytes() == tsv_pairs

    def test_threshold_above_one_emits_nothing(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus, mining={"threshold": 1.01})
        assert main(["mine", "--config", str(config)]) == 0
        assert read_pairs(fixture_corpus / "pairs.tsv") == []

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path)  # corpus.tsv never written
        assert main(["mine", "--config", str(config)]) == 1
        assert "corpus.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, argv, named",
        [
            pytest.param({"mining": {"thresold": 0.5}}, [], "['thresold']", id="unknown_key"),
            pytest.param({"encoder": {"pooling": "bogus"}}, [], "'bogus'", id="bogus_pooling"),
            pytest.param({"encoder": {"pooling": ["lstm"]}}, [],
                         "encoder.pooling ['lstm'] must be one of 'cls', 'mean', 'max', 'lstm'",
                         id="list_pooling"),
            pytest.param({"eval": {"tasks": [{**_TASK, "kind": ["regression"]}]}}, [],
                         "eval.tasks[0].kind ['regression'] must be one of", id="list_task_kind"),
            pytest.param({"mining": {"threshold": -1}}, [], "threshold", id="negative_threshold"),
            pytest.param({"mining": {"seed": 123}}, [], "mining: unknown keys ['seed']",
                         id="mining_seed"),
            pytest.param({"mining": {"min_group_size": 2}}, [],
                         "mining: unknown keys ['min_group_size']", id="min_group_size"),
            pytest.param({"training": {"seed": 123}}, [], "training: unknown keys ['seed']",
                         id="training_seed"),
            pytest.param({"training": {"beta1": 0.5}}, [], "training: unknown keys ['beta1']",
                         id="beta1"),
            pytest.param({"training": {"beta2": 0.999}}, [],
                         "training: unknown keys ['beta2']", id="beta2"),
            pytest.param({"training": {"eps": 1e-8}}, [], "training: unknown keys ['eps']",
                         id="eps"),
            pytest.param({"seed": -5}, [], "seed -5", id="negative_seed"),
            pytest.param({"seed": "abc"}, [], "seed 'abc'", id="string_seed"),
            pytest.param({"seed": 2**70}, [], f"seed {2**70}", id="seed_over_64_bits"),
            pytest.param({}, ["--seed", "-5"], "seed -5", id="negative_seed_flag"),
            pytest.param({}, ["--threads", "0"], "--threads 0 must be at least 1",
                         id="zero_threads"),
            pytest.param({}, ["--threads", "-2"], "--threads -2 must be at least 1",
                         id="negative_threads"),
            pytest.param({"eval": {"lambda_grid": []}}, [], "lambda_grid", id="empty_lambda_grid"),
            pytest.param({"min_count": "x"}, [], "min_count 'x'", id="string_min_count"),
            pytest.param({"training": {"batch_size": 1}}, [], "batch_size 1", id="batch_size_1"),
            pytest.param({"training": {"epochs": -1}}, [], "epochs -1", id="negative_epochs"),
            pytest.param({"paths": {"pairs": 1}}, [], "paths.pairs 1", id="int_path"),
            pytest.param({"paths": {"loss_csv": True}}, [], "paths.loss_csv True", id="bool_path"),
            pytest.param({"encoder": {"embed_dim": 2.5}}, [], "encoder.embed_dim 2.5",
                         id="float_embed_dim"),
            pytest.param({"filter_encoder": {"dimension": "512"}}, [],
                         "filter_encoder.dimension '512'", id="string_dimension"),
            pytest.param({"filter_encoder": {"dimension": 4}}, [], "dimension 4",
                         id="small_dimension"),
            pytest.param({"filter_encoder": {"path": "vectors.tsv"}}, [],
                         _HASHED_NGRAM_PATH_UNREAD, id="hashed_ngram_path"),
            pytest.param({"eval": {"hidden": 0}}, [], "hidden 0", id="zero_hidden"),
            pytest.param({"eval": {"lambda_grid": ["a"]}}, [], "eval.lambda_grid[0] 'a'",
                         id="string_lambda"),
            pytest.param({"eval": {"lambda_grid": [-1.0]}}, [],
                         "eval.lambda_grid[0] -1.0 must be >= 0",
                         id="negative_lambda"),
            pytest.param({"eval": {"tasks": [{**_TASK, "kind": "bogus"}]}}, [],
                         "eval.tasks[0].kind 'bogus'", id="bogus_task_kind"),
            pytest.param({"eval": {"tasks": [{**_TASK, "arity": "bogus"}]}}, [],
                         "eval.tasks[0].arity 'bogus'", id="bogus_task_arity"),
            pytest.param({"eval": {"tasks": [{k: v for k, v in _TASK.items() if k != "test"}]}},
                         [], "missing keys ['test']", id="task_without_test"),
            pytest.param({"min_count": True}, [], "min_count True", id="bool_min_count"),
            pytest.param({"training": {"temperature": float("nan")}}, [],
                         "training.temperature nan", id="nan_temperature"),
            pytest.param({"eval": {"lambda_grid": [float("inf")]}}, [],
                         "eval.lambda_grid[0] inf", id="infinite_lambda"),
            pytest.param({"training": {"weight_decay": -1.0}}, [], "weight_decay -1.0",
                         id="negative_weight_decay"),
            pytest.param(_CLS_WITHOUT_BLOCKS, [], _FFN_DIM_UNREAD, id="cls_without_blocks"),
            pytest.param(_TSV_AND_MOSES, [], _MOSES_UNREAD, id="tsv_and_moses"),
            pytest.param(_ONE_MOSES_PATH, [],
                         "corpus_source and corpus_target must be set together",
                         id="one_moses_path"),
            pytest.param({"eval": {"tasks": [{**_TASK, "name": "cluster,half"}]}}, [],
                         "task name 'cluster,half'", id="comma_task_name"),
            pytest.param({"eval": {"tasks": [{**_TASK, "name": 'say "hi"'}]}}, [],
                         "task name 'say \"hi\"'", id="quote_task_name"),
            pytest.param({"eval": {"tasks": [{**_TASK, "name": "a\rb"}]}}, [],
                         "task name 'a\\rb'", id="cr_task_name"),
            pytest.param({"eval": {"tasks": [{**_TASK, "name": "a\nb"}]}}, [],
                         "task name 'a\\nb'", id="lf_task_name"),
            pytest.param({"eval": {"tasks": [{**_TASK, "name": ""}]}}, [],
                         "task name ''", id="empty_task_name"),
            pytest.param({"eval": {"tasks": [_TASK, {**_TASK, "kind": "regression"}]}}, [],
                         "task name 't'", id="repeated_task_name"),
            pytest.param({"eval": {"lambda_grid": 3}}, [], "eval.lambda_grid 3 must be a list",
                         id="scalar_lambda_grid"),
            pytest.param({"min_count": 0}, [], "min_count 0", id="zero_min_count"),
            pytest.param({"filter_encoder": {"type": "precomputed"}}, [],
                         "precomputed filter encoder needs a path", id="precomputed_without_path"),
            pytest.param({"filter_encoder": {**_PRECOMPUTED, "dimension": 4}}, [],
                         _dimension_unread(4), id="precomputed_small_dimension"),
            pytest.param({"filter_encoder": {**_PRECOMPUTED, "dimension": 512}}, [],
                         _dimension_unread(512), id="precomputed_dimension"),
            pytest.param({"encoder": {"embed_dim": 0}}, [], "encoder.embed_dim 0 must be >= 1",
                         id="zero_embed_dim"),
            pytest.param({"encoder": {"num_blocks": -1}}, [], "encoder.num_blocks -1 must be >= 0",
                         id="negative_num_blocks"),
            pytest.param({"encoder": {"max_len": 1}}, [], "encoder.max_len 1 must be >= 2",
                         id="max_len_1"),
            pytest.param({"training": {"warmup_ratio": 1.5}}, [],
                         "training.warmup_ratio 1.5 must be <= 1",
                         id="warmup_ratio_above_1"),
            pytest.param({"training": {"peak_lr": 0}}, [], "training.peak_lr 0 must be > 0",
                         id="zero_peak_lr"),
            pytest.param({"training": {"temperature": 0}}, [],
                         "training.temperature 0 must be > 0",
                         id="zero_temperature"),
            pytest.param({"paths": {"corpus_tsv": None}}, [],
                         "config must set paths.corpus_tsv or both Moses paths", id="no_corpus"),
        ],
    )
    def test_unknown_config_key_exits_2(self, fixture_corpus, capsys, override, argv, named):
        config = write_config(fixture_corpus, **override)
        assert main(["mine", "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err
        assert not (fixture_corpus / "pairs.tsv").exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            pytest.param(None, "cannot read config", id="missing_file"),
            pytest.param("{", "is not valid JSON", id="invalid_json"),
            pytest.param("[]", "top level: expected an object", id="top_level_array"),
            pytest.param('{"training": {"epochs": 1}, "training": {"epochs": 0}}',
                         "key 'training' is repeated", id="repeated_top_level_key"),
            pytest.param('{"training": {"epochs": 1, "epochs": 0}}', "key 'epochs' is repeated",
                         id="repeated_nested_key"),
        ],
    )
    def test_unloadable_config_exits_2(self, tmp_path, capsys, content, named):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        assert main(["mine", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "output, other",
        [
            ("paths.pairs", "paths.corpus_tsv"),
            ("paths.pairs", "paths.checkpoint"),
            ("paths.checkpoint", "paths.loss_csv"),
            ("paths.loss_csv", "paths.eval_report"),
            ("paths.eval_report", "paths.corpus_source"),
            ("paths.checkpoint", "paths.corpus_target"),
            ("paths.pairs", "filter_encoder.path"),
            ("paths.loss_csv", "eval.tasks[0].train"),
            ("paths.eval_report", "eval.tasks[0].validation"),
            ("paths.checkpoint", "eval.tasks[0].test"),
            ("paths.pairs", "--config"),
        ],
    )
    def test_colliding_paths_exit_2(self, fixture_corpus, capsys, output, other):
        """An output spelled differently from another file the config names
        but resolving to it is refused before that file is touched."""
        shared = fixture_corpus / "shared.tsv"
        shared.write_bytes((fixture_corpus / "corpus.tsv").read_bytes())
        overrides = {
            "paths": {},
            "eval": {"tasks": [{**_TASK, **{s: str(fixture_corpus / f"t.{s}.tsv")
                                            for s in ("train", "validation", "test")}}]},
        }
        if other in ("paths.corpus_source", "paths.corpus_target"):
            overrides["paths"].update(
                corpus_tsv=None,
                corpus_source=str(fixture_corpus / "source.txt"),
                corpus_target=str(fixture_corpus / "target.txt"),
            )
        if other == "filter_encoder.path":
            overrides["filter_encoder"] = {
                "type": "precomputed", "path": str(shared), "dimension": None
            }
        elif other.startswith("eval."):
            overrides["eval"]["tasks"][0][other.rsplit(".", 1)[1]] = str(shared)
        elif other != "--config":
            overrides["paths"][other.split(".")[1]] = str(shared)
        target = "config.json" if other == "--config" else "shared.tsv"
        overrides["paths"][output.split(".")[1]] = str(fixture_corpus / "sub" / ".." / target)
        config = write_config(fixture_corpus, **overrides)
        written = config.read_bytes()
        assert main(["mine", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{output} and {other} name the same file" in err
        assert shared.read_bytes() == (fixture_corpus / "corpus.tsv").read_bytes()
        assert config.read_bytes() == written
        assert not (fixture_corpus / "pairs.tsv").exists()

    def test_malformed_precomputed_file_exits_1(self, fixture_corpus, capsys):
        vectors = fixture_corpus / "vectors.tsv"
        config = write_config(
            fixture_corpus,
            filter_encoder={"type": "precomputed", "path": str(vectors), "dimension": None},
        )
        for content in ("a sentence without a vector\n", "hello\t1 nan 3\n", "hello\t1 x 3\n"):
            vectors.write_text(content, encoding="utf-8")
            assert main(["mine", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith("I/O error:") and err.count("\n") == 1
            assert "vectors.tsv:1" in err

    def test_conflicting_precomputed_duplicate_exits_1(self, fixture_corpus, capsys):
        vectors = fixture_corpus / "vectors.tsv"
        vectors.write_text("hello world\t1 2 3\nhello   world\t4 5 6\n", encoding="utf-8")
        config = write_config(
            fixture_corpus,
            filter_encoder={"type": "precomputed", "path": str(vectors), "dimension": None},
        )
        assert main(["mine", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert "vectors.tsv:2" in err and "vectors.tsv:1" in err
        assert not (fixture_corpus / "pairs.tsv").exists()


    def test_overflowing_precomputed_rows_mine_quietly(self, fixture_corpus):
        """Rows whose square norm overflows float64 mine to the same pairs as
        the same directions at unit scale, with nothing on stderr."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        vectors = fixture_corpus / "vectors.tsv"
        config = write_config(
            fixture_corpus,
            filter_encoder={"type": "precomputed", "path": str(vectors), "dimension": None},
        )
        runs = []
        for scale in (1e200, 1.0):
            # targets of source 2 point away from their source and are filtered
            rows = [f"source sentence {s}\t{3 * scale!r} {-4 * scale!r}" for s in range(3)]
            rows += [f"target {s} variant {t}\t{'-3 4' if s == 2 else '3 -4'}"
                     for s in range(3) for t in range(4)]
            vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "sentenc.cli", "mine", "--config", str(config)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stderr == ""
            runs.append((proc.stdout, (fixture_corpus / "pairs.tsv").read_bytes()))
        assert "filtered survivors: 8" in runs[0][0]
        assert runs[0] == runs[1]

    def test_empty_precomputed_vector_exits_1(self, fixture_corpus, capsys):
        vectors = fixture_corpus / "vectors.tsv"
        rows = (fixture_corpus / "corpus.tsv").read_text(encoding="utf-8").splitlines()
        sentences = sorted({side for row in rows for side in row.split("\t")})
        vectors.write_text("".join(f"{s}\t\n" for s in sentences), encoding="utf-8")
        config = write_config(
            fixture_corpus,
            filter_encoder={"type": "precomputed", "path": str(vectors), "dimension": None},
        )
        assert main(["mine", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert "vectors.tsv:1: empty vector" in err
        assert not (fixture_corpus / "pairs.tsv").exists()


@pytest.mark.parametrize("command", ["mine", "train", "encode", "eval"])
@pytest.mark.parametrize(
    "override, named",
    [
        pytest.param({"encoder": {"pooling": "mean"}}, _lstm_hidden_unread("mean"),
                     id="lstm_hidden_under_mean"),
        pytest.param({"encoder": {"pooling": "cls"}}, _lstm_hidden_unread("cls"),
                     id="lstm_hidden_under_cls"),
        pytest.param({"encoder": {"pooling": "max"}}, _lstm_hidden_unread("max"),
                     id="lstm_hidden_under_max"),
        pytest.param({"encoder": {"num_blocks": 0}}, _FFN_DIM_UNREAD, id="ffn_dim_without_blocks"),
        pytest.param(_CLS_WITHOUT_BLOCKS, _FFN_DIM_UNREAD, id="cls_without_blocks"),
        pytest.param({"filter_encoder": {"path": "vectors.tsv"}}, _HASHED_NGRAM_PATH_UNREAD,
                     id="hashed_ngram_path"),
        pytest.param({"filter_encoder": {**_PRECOMPUTED, "dimension": 4}}, _dimension_unread(4),
                     id="precomputed_small_dimension"),
        pytest.param({"filter_encoder": {**_PRECOMPUTED, "dimension": 512}},
                     _dimension_unread(512), id="precomputed_dimension"),
        pytest.param(_TSV_AND_MOSES, _MOSES_UNREAD, id="tsv_and_moses"),
        pytest.param({"paths": {"corpus_source": "s.txt"}}, _MOSES_UNREAD,
                     id="tsv_and_one_moses_path"),
    ],
)
def test_unread_key_exits_2_for_every_command(fixture_corpus, capsys, command, override, named):
    config = write_config(fixture_corpus, **override)
    argv = [command, "--config", str(config)]
    if command == "encode":
        (fixture_corpus / "input.txt").write_text("target 0 variant 1\n", encoding="utf-8")
        argv += ["--input", str(fixture_corpus / "input.txt"),
                 "--output", str(fixture_corpus / "emb.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err
    assert sorted(p.name for p in fixture_corpus.iterdir()) == sorted(
        ["config.json", "corpus.tsv"] + ["input.txt"] * (command == "encode")
    )


_BLOCKS = [("cls", 1), ("mean", 0), ("mean", 1), ("max", 0), ("max", 1), ("lstm", 0), ("lstm", 1)]


@pytest.mark.parametrize("key, value", [("embed_dim", 24), ("ffn_dim", 40), ("lstm_hidden", 20)])
@pytest.mark.parametrize("pooling, num_blocks", _BLOCKS)
def test_no_encoder_knob_is_accepted_and_ignored(tmp_path, pooling, num_blocks, key, value):
    """A non-default encoder value either changes the model's shapes or is
    refused at load; it is never stored and then ignored."""

    def shapes(**extra):
        path = tmp_path / "config.json"
        encoder = {"pooling": pooling, "num_blocks": num_blocks, **extra}
        path.write_text(json.dumps({"encoder": encoder}), encoding="utf-8")
        config = load_run_config(path).encoder
        return param_shapes(config, 10), config.output_dim

    default = shapes()
    try:
        changed = shapes(**{key: value})
    except ConfigError:
        return
    assert changed != default


def test_cls_without_blocks_is_refused_at_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"encoder": {"pooling": "cls", "num_blocks": 0}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"encoder.pooling 'cls' needs encoder.num_blocks >= 1"):
        load_run_config(path)


@pytest.mark.parametrize("field, value, message", [
    ("kind", "bogus", "eval.tasks['t'].kind 'bogus' must be one of 'classification', 'regression'"),
    ("arity", "x", "eval.tasks['t'].arity 'x' must be one of 'single', 'pair'"),
])
def test_library_built_eval_task_is_checked(field, value, message):
    """An EvalTaskConfig built outside a config gets config load's one-line
    check; it names the task, since only config load knows its index."""
    with pytest.raises(ConfigError) as info:
        EvalTaskConfig(**{**_TASK, field: value})
    assert str(info.value) == message


def test_second_config_load_resolves_no_type_hints(tmp_path, monkeypatch):
    """Each config dataclass's field hints are resolved once per process."""
    path = write_config(tmp_path, eval={"tasks": [_TASK]})
    load_run_config(path)
    calls = []
    get_type_hints = typing.get_type_hints

    def counted(*args, **kwargs):
        calls.append(args)
        return get_type_hints(*args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counted)
    assert load_run_config(path).eval.tasks[0].kind == "classification"
    assert calls == []


def _declarations():
    """(key, element type, whether the field is a list, bound name, bound) for
    each bound that a field of RunConfig, or of a section it nests, declares
    in its metadata."""
    def walk(cls, prefix):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if dataclasses.is_dataclass(hint):
                yield from walk(hint, f"{prefix}{f.name}.")
            kind = float if float in (hint, *typing.get_args(hint)) else int
            for rule, bound in f.metadata.items():
                yield f"{prefix}{f.name}", kind, typing.get_origin(hint) is list, rule, bound

    return list(walk(RunConfig, ""))


_SIGNS = {"min": ">=", "gt": ">", "max": "<="}


def _edges(kind, rule, bound):
    """The value just outside a declared bound and the nearest value within it."""
    below, above = (bound - 1, bound + 1) if kind is int else (
        math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
    return {"min": (below, kind(bound)), "gt": (kind(bound), above),
            "max": (above, kind(bound))}[rule]


def _set_key(key, value, lists):
    """The config override that sets dotted `key` to `value`, as a one-element
    list for a list field."""
    section, _, name = key.rpartition(".")
    value = [value] if lists else value
    return {section: {name: value}} if section else {key: value}


_DECLARED = [pytest.param(*d, id=f"{d[0]}-{d[3]}") for d in _declarations()]


@pytest.mark.parametrize("key, kind, lists, rule, bound", _DECLARED)
def test_value_outside_a_declared_bound_exits_2(fixture_corpus, capsys, key, kind, lists, rule,
                                                bound):
    outside, _ = _edges(kind, rule, bound)
    config = write_config(fixture_corpus, **_set_key(key, outside, lists))
    files = _file_bytes(fixture_corpus)
    assert main(["mine", "--config", str(config)]) == 2
    shown = f"{key}[0]" if lists else key
    assert capsys.readouterr().err == (
        f"config error: {shown} {outside!r} must be {_SIGNS[rule]} {bound}\n")
    assert _file_bytes(fixture_corpus) == files


@pytest.mark.parametrize("key, kind, lists, rule, bound", _DECLARED)
def test_value_at_a_declared_bound_loads(tmp_path, key, kind, lists, rule, bound):
    _, within = _edges(kind, rule, bound)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_set_key(key, within, lists)), encoding="utf-8")
    value = functools.reduce(getattr, key.split("."), load_run_config(path))
    assert value == ([within] if lists else within)


def test_readme_range_table_matches_the_declarations():
    """README's config section lists each declared range: key, default, bounds."""
    defaults = RunConfig()
    rows = []
    for key, group in itertools.groupby(_declarations(), key=lambda d: d[0]):
        default = functools.reduce(getattr, key.split("."), defaults)
        bounds = ", ".join(f"`{_SIGNS[rule]} {bound}`" for *_, rule, bound in group)
        rows.append(f"| `{key}` | `{default!r}` | {bounds} |")
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| key | default | range |") + 2
    assert list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:])) == rows


def _alarm(signum, frame):
    raise TimeoutError("the command ran past its alarm")


# each size is far beyond a 47-bit address space, so numpy refuses it at once
# if a guard is missing; num_blocks 2**50 would loop in param_shapes instead,
# and epochs 2**50 could never train: an epoch takes at least one step
@pytest.mark.parametrize("command", ["mine", "train", "encode", "eval"])
@pytest.mark.parametrize(
    "override, named",
    [
        pytest.param({"filter_encoder": {"dimension": 2**50}},
                     f"filter_encoder.dimension {2**50} must be <= {PARAM_CEILING}",
                     id="filter_dimension"),
        pytest.param({"encoder": {"num_blocks": 2**50}},
                     "parameters in the smallest encoder (a 2-token vocabulary) exceed the "
                     f"ceiling of {PARAM_CEILING}", id="num_blocks"),
        pytest.param({"eval": {"hidden": 2**50}},
                     f"{3 * 2**50 + 1} parameters in the smallest probe (1 input, 1 output) "
                     f"exceed the ceiling of {PARAM_CEILING}", id="eval_hidden"),
        pytest.param({"training": {"epochs": 2**50}},
                     f"training.epochs {2**50} must be <= {STEP_CEILING}", id="epochs"),
    ],
)
def test_oversized_setting_exits_2_at_load(fixture_corpus, capsys, command, override, named):
    config = write_config(fixture_corpus, **override)
    argv = [command, "--config", str(config)]
    if command == "encode":
        (fixture_corpus / "input.txt").write_text("target 0 variant 1\n", encoding="utf-8")
        argv += ["--input", str(fixture_corpus / "input.txt"),
                 "--output", str(fixture_corpus / "emb.tsv")]
    files = _file_bytes(fixture_corpus)
    assert _main_under_alarm(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err
    assert _file_bytes(fixture_corpus) == files


def _main_under_alarm(argv) -> int:
    """main(argv), failed by an alarm after 2 s: a refusal takes milliseconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(2)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# 10**8 one-wide blocks hold 12 values each, under PARAM_CEILING, but would
# name 1.2e9 tensors; they are only counted, never built
_MANY_BLOCKS = {"embed_dim": 1, "num_blocks": 10**8, "ffn_dim": 1, "lstm_hidden": 1}


@pytest.mark.parametrize("command", ["mine", "train", "encode", "eval"])
def test_tensor_count_over_the_ceiling_exits_2_at_load(fixture_corpus, capsys, command):
    assert param_count(EncoderConfig(**_MANY_BLOCKS), len(SPECIAL_TOKENS)) < PARAM_CEILING
    config = write_config(fixture_corpus, encoder=_MANY_BLOCKS)
    argv = [command, "--config", str(config)]
    if command == "encode":
        (fixture_corpus / "input.txt").write_text("target 0 variant 1\n", encoding="utf-8")
        argv += ["--input", str(fixture_corpus / "input.txt"),
                 "--output", str(fixture_corpus / "emb.tsv")]
    files = _file_bytes(fixture_corpus)
    assert _main_under_alarm(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    tensors = 12 * 10**8 + 3  # the embedding, 12 a block and the LSTM's two
    assert f"100000000 blocks make {tensors} tensors, over the ceiling of {TENSOR_CEILING}" in err
    assert _file_bytes(fixture_corpus) == files


def test_tensor_count_at_the_ceiling_loads(tmp_path, monkeypatch):
    """Three lstm-pooled blocks name 39 tensors: the embedding, 12 a block
    and the LSTM's two."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"encoder": {"num_blocks": 3}}), encoding="utf-8")
    assert len(param_shapes(load_run_config(path).encoder, len(SPECIAL_TOKENS))) == 39
    monkeypatch.setattr(sentenc.encoder, "TENSOR_CEILING", 39)
    assert load_run_config(path).encoder.num_blocks == 3
    monkeypatch.setattr(sentenc.encoder, "TENSOR_CEILING", 38)
    with pytest.raises(ConfigError, match="3 blocks make 39 tensors, over the ceiling of 38"):
        load_run_config(path)


def test_smallest_encoder_at_the_ceiling_loads(tmp_path, monkeypatch):
    """The load-time bound counts the model of a vocabulary of the special
    tokens alone: exactly the ceiling loads, one more parameter does not."""
    encoder = {"embed_dim": 8, "num_blocks": 3, "ffn_dim": 8, "lstm_hidden": 8}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"encoder": encoder, "eval": {"hidden": 1}}), encoding="utf-8")
    smallest = param_count(EncoderConfig(**encoder), len(SPECIAL_TOKENS))
    monkeypatch.setattr(sentenc.encoder, "PARAM_CEILING", smallest)
    assert load_run_config(path).encoder.num_blocks == 3
    monkeypatch.setattr(sentenc.encoder, "PARAM_CEILING", smallest - 1)
    with pytest.raises(ConfigError, match=f"{smallest} parameters in the smallest encoder"):
        load_run_config(path)


def test_smallest_probe_at_the_ceiling_loads(tmp_path, monkeypatch):
    """The smallest probe has one input and one output: 3 * hidden + 1 values."""
    path = tmp_path / "config.json"
    encoder = {"embed_dim": 1, "num_blocks": 0, "pooling": "mean"}  # 2 parameters
    path.write_text(json.dumps({"encoder": encoder, "eval": {"hidden": 40}}), encoding="utf-8")
    monkeypatch.setattr(sentenc.encoder, "PARAM_CEILING", 121)
    assert load_run_config(path).eval.hidden == 40
    monkeypatch.setattr(sentenc.encoder, "PARAM_CEILING", 120)
    with pytest.raises(ConfigError, match="121 parameters in the smallest probe"):
        load_run_config(path)


SYNTHETIC_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_pipeline.py"


def _synthetic_pipeline():
    spec = importlib.util.spec_from_file_location("run_synthetic_pipeline", SYNTHETIC_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSyntheticPipelineMiningBytes:
    """`mine` as scripts/run_synthetic_pipeline.py runs it; pairs.tsv depends
    only on the filter arithmetic, not on BLAS, so its bytes are pinned."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (2, "a889dfd55fc3e42e7a070494de7e49cc8a18a6c9435cfeca501462eab9319cf2"),
            (7, "f6a05376de81e08456bc1fe06acbaf493bed8dd14dfdde05547102b31899c028"),
        ],
    )
    def test_pairs_sha256(self, tmp_path, seed, digest):
        config = _synthetic_pipeline().build_workdir(tmp_path, seed)
        assert main(["mine", "--config", str(config)]) == 0
        assert hashlib.sha256((tmp_path / "pairs.tsv").read_bytes()).hexdigest() == digest


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

_MINE_SUMMARY = ("input pairs:        {}\nunpairable lines:   {}\nfiltered survivors: {}\n"
                 "encoder failures:   {}\ngroups >= 2:        {}\nemitted pairs:      {}\n"
                 "skipped lines:      {}\n")


class TestBenchmarkWorkloadMiningBytes:
    """`mine` on each benchmark workload at seed 7: the sha256 of pairs.tsv and
    the summary it prints, as the filter gave them when it scored 64 pairs
    per cosine call."""

    @pytest.mark.parametrize(
        "name, digest, counts",
        [
            ("desk", "06aa766a2c2666e6829c23e6a15c371eddd319b3e724b96846783d95421a59cc",
             (1800, 1500, 300, 0, 50, 150, 0)),
            ("mine-wide", "bac3333ca23d77f8ca43892fa118ab316ba77d094a77cf252e94c0a221356ca1",
             (11768, 294, 10568, 0, 2086, 5541, 337)),
            ("encode-ragged", "290ad8f326b07e3785f63cd5771c0ad20797099606d5b4e7e2213e131c089066",
             (2520, 2400, 120, 0, 40, 80, 0)),
        ],
    )
    def test_pairs_sha256_and_summary(self, tmp_path, monkeypatch, capsys, name, digest, counts):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        workloads.generate(name, 7, str(tmp_path))
        assert main(["mine", "--config", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().out == _MINE_SUMMARY.format(*counts)
        pairs = (tmp_path / "out" / "pairs.tsv").read_bytes()
        assert hashlib.sha256(pairs).hexdigest() == digest


def test_synthetic_pipeline_script_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SYNTHETIC_SCRIPT), "--workdir", str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("pairs.tsv", "model.json", "loss.csv", "embeddings.tsv", "results.csv"):
        assert (tmp_path / name).stat().st_size > 0, name


class TestTrainCommand:
    def test_zero_epochs_checkpoint_equals_init(self, fixture_corpus):
        config = write_config(fixture_corpus, training={"epochs": 0})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        loss_csv = (fixture_corpus / "loss.csv").read_text(encoding="utf-8")
        assert loss_csv == "step,epoch,lr,loss\n"

        from sentenc.corpus import read_pairs as rp
        from sentenc.encoder import build_vocabulary, init_model, load_model
        from sentenc.numeric import SeededRng
        import numpy as np

        saved = load_model(fixture_corpus / "model.json")
        pairs = rp(fixture_corpus / "pairs.tsv")
        vocab = build_vocabulary([p.a for p in pairs] + [p.b for p in pairs], 1)
        fresh = init_model(saved.config, vocab, SeededRng(42).substream("init"))
        for name, tensor in fresh.params.items():
            assert np.array_equal(saved.params[name], tensor)

    def test_same_seed_gives_identical_loss_csv(self, fixture_corpus):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        first = (fixture_corpus / "loss.csv").read_bytes()
        assert main(["train", "--config", str(config)]) == 0
        assert (fixture_corpus / "loss.csv").read_bytes() == first

    def test_failed_write_keeps_previous_artifact(self, fixture_corpus, capsys, monkeypatch):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = (fixture_corpus / "model.json").read_bytes()

        # blocks of 24 bytes, so the model is written in many of them
        monkeypatch.setattr(sentenc.encoder, "SAVE_BLOCK_BYTES", 24)
        b64encode = sentenc.encoder.base64.b64encode
        calls = []

        def encode_then_fail(block):
            # the head and one block are written when the disk fills up
            calls.append(len(block))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return b64encode(block)

        monkeypatch.setattr(sentenc.encoder.base64, "b64encode", encode_then_fail)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--seed", "7"]) == 1
        assert calls == [24, 24]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert (fixture_corpus / "model.json").read_bytes() == checkpoint
        assert list(fixture_corpus.glob("*.tmp")) == []

    @pytest.mark.parametrize("key", ["embed_dim", "lstm_hidden", "ffn_dim"])
    def test_oversized_width_exits_2_before_allocating(self, fixture_corpus, capsys, key):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        config = write_config(fixture_corpus, encoder={key: 2**50})
        files = _file_bytes(fixture_corpus)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"exceed the ceiling of {PARAM_CEILING}" in err
        assert _file_bytes(fixture_corpus) == files

    def test_step_count_over_the_ceiling_exits_2_before_step_1(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        # the most epochs config load accepts
        config = write_config(fixture_corpus, training={"epochs": STEP_CEILING})
        files = _file_bytes(fixture_corpus)
        capsys.readouterr()
        assert _main_under_alarm(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        # 6 mined pairs in batches of 4 make 2 batches an epoch
        assert (f"training.epochs {STEP_CEILING} of 2 batches make {2 * STEP_CEILING} steps, "
                f"over the ceiling of {STEP_CEILING}") in err
        assert _file_bytes(fixture_corpus) == files

    def test_overflow_exits_3(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus, training={"peak_lr": 1e3})
        assert main(["mine", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("training diverged:") and err.count("\n") == 1
        assert not (fixture_corpus / "model.json").exists()

    def test_malformed_pairs_row_exits_1(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        (fixture_corpus / "pairs.tsv").write_text(
            "one a\tone b\nno tab here\ntwo a\ttwo b\n", encoding="utf-8"
        )
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert "pairs.tsv" in err
        assert not (fixture_corpus / "model.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            pytest.param(_CLS_WITHOUT_BLOCKS, id="cls_without_blocks"),
            pytest.param(_TSV_AND_MOSES, id="tsv_and_moses"),
            pytest.param(_ONE_MOSES_PATH, id="one_moses_path"),
        ],
    )
    def test_bad_config_exits_2_before_training(self, fixture_corpus, capsys, override):
        assert main(["mine", "--config", str(write_config(fixture_corpus))]) == 0
        capsys.readouterr()
        config = write_config(fixture_corpus, **override)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (fixture_corpus / "model.json").exists()

    @pytest.mark.parametrize(
        "rows, count",
        [pytest.param("", 0, id="no_pairs"), pytest.param("one a\tone b\n", 1, id="one_pair")],
    )
    def test_fewer_than_two_pairs_exits_1(self, fixture_corpus, capsys, rows, count):
        config = write_config(fixture_corpus)
        (fixture_corpus / "pairs.tsv").write_text(rows, encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert f"pairs.tsv holds {count} training pairs" in err
        assert not (fixture_corpus / "model.json").exists()
        assert not (fixture_corpus / "loss.csv").exists()

    def test_loss_row_count(self, fixture_corpus):
        config = write_config(fixture_corpus, training={"epochs": 3, "batch_size": 4})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        rows = (fixture_corpus / "loss.csv").read_text(encoding="utf-8").splitlines()
        # 6 mined pairs, K=4 -> 2 batches per epoch, 3 epochs
        assert len(rows) - 1 == 6


class TestEncodeCommand:
    @pytest.fixture
    def trained(self, fixture_corpus):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        return config

    def test_line_counts_and_dimension(self, fixture_corpus, trained):
        inp = fixture_corpus / "input.txt"
        inp.write_text("\n".join(f"target {i} variant 0" for i in range(5)) + "\n")
        out = fixture_corpus / "emb.tsv"
        assert main(
            ["encode", "--config", str(trained), "--input", str(inp), "--output", str(out)]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        for line in lines:
            sentence, vec = line.split("\t")
            assert len(vec.split()) == 12  # lstm_hidden

    def test_reencoding_is_identical(self, fixture_corpus, trained):
        inp = fixture_corpus / "input.txt"
        inp.write_text("target 0 variant 1\n")
        out1 = fixture_corpus / "e1.tsv"
        out2 = fixture_corpus / "e2.tsv"
        for out in (out1, out2):
            assert main(
                ["encode", "--config", str(trained), "--input", str(inp), "--output", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_match_newline_separated_lines(self, fixture_corpus, trained, capsys):
        inp = fixture_corpus / "input.txt"
        inp.write_text("first\x0cline with\u2028breaks\nsecond line\n", encoding="utf-8")
        out = fixture_corpus / "emb.tsv"
        capsys.readouterr()
        assert main(
            ["encode", "--config", str(trained), "--input", str(inp), "--output", str(out)]
        ) == 0
        assert "encoded 2 sentences" in capsys.readouterr().out
        rows = out.read_text(encoding="utf-8").split("\n")
        assert rows[-1] == ""
        assert [row.split("\t")[0] for row in rows[:-1]] == [
            "first\x0cline with\u2028breaks",
            "second line",
        ]

    @pytest.mark.parametrize(
        "key, name",
        [("--input", "input.txt"), ("paths.checkpoint", "model.json"),
         ("paths.corpus_tsv", "corpus.tsv"), ("--config", "config.json")],
    )
    def test_output_over_a_named_file_exits_2(self, fixture_corpus, trained, capsys, key, name):
        inp = fixture_corpus / "input.txt"
        inp.write_text("target 0 variant 1\n")
        before = (fixture_corpus / name).read_bytes()
        out = fixture_corpus / "sub" / ".." / name
        capsys.readouterr()
        assert main(
            ["encode", "--config", str(trained), "--input", str(inp), "--output", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"--output and {key} name the same file" in err
        assert (fixture_corpus / name).read_bytes() == before

    def test_missing_input_exits_1(self, fixture_corpus, trained):
        assert main(
            [
                "encode",
                "--config",
                str(trained),
                "--input",
                str(fixture_corpus / "nope.txt"),
                "--output",
                str(fixture_corpus / "o.tsv"),
            ]
        ) == 1


def _truncate(doc, text):
    return text[: len(text) // 2]


def _floats(params):
    return np.frombuffer(base64.b64decode(params), dtype="<f8")


def _b64(values):
    return base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _per_tensor(doc, data):
    """The parameters as one {"shape", "data"} entry per tensor, each tensor's
    values written by `data`, as formats 1 and 2 stored them."""
    flat, offset, params = _floats(doc["params"]), 0, {}
    for name, shape in param_shapes(EncoderConfig(**doc["config"]), len(doc["vocab"])).items():
        size = math.prod(shape)
        params[name] = {"shape": list(shape), "data": data(flat[offset : offset + size])}
        offset += size
    doc["params"] = params
    return doc


def _list_format(doc, text):
    """The format-1 layout: no "format" field, data as a list of floats."""
    del doc["format"]
    return json.dumps(_per_tensor(doc, lambda values: values.tolist()))


def _format_2(doc, text):
    """The format-2 layout: base64 data per tensor."""
    doc["format"] = 2
    return json.dumps(_per_tensor(doc, _b64))


def _wrong_byte_count(doc, text):
    doc["params"] = _b64(_floats(doc["params"])[:-1])
    return json.dumps(doc)


def _extra_token(doc, text):
    """A vocabulary one token longer than the parameters' embedding."""
    doc["vocab"].append("zebra")
    return json.dumps(doc)


def _nan_param(doc, text):
    values = _floats(doc["params"]).copy()
    values[0] = np.nan
    doc["params"] = _b64(values)
    return json.dumps(doc)


def _not_base64(doc, text):
    doc["params"] = "*" + doc["params"][1:]
    return json.dumps(doc)


def _max_len_fraction(doc, text):
    doc["config"]["max_len"] = 2.5
    return json.dumps(doc)


def _max_len_missing(doc, text):
    del doc["config"]["max_len"]
    return json.dumps(doc)


def _lstm_hidden_unread(doc, text):
    """A mean-pooling model whose config still stores lstm_hidden."""
    shapes = param_shapes(EncoderConfig(**doc["config"]), len(doc["vocab"]))
    lstm_size = sum(math.prod(shapes[name]) for name in ("lstm.w", "lstm.b"))
    doc["config"]["pooling"] = "mean"
    doc["params"] = _b64(_floats(doc["params"])[:-lstm_size])
    return json.dumps(doc)


def _repeated_key(doc, text):
    return text.replace('"config": {', '"config": {"max_len": 3, ', 1)


def _integer_token(doc, text):
    doc["vocab"][-1] = 7
    return json.dumps(doc)


# more blocks than a checkpoint's parameter bytes could hold
HUGE_BLOCKS = 10**8


def _huge_block_count(doc, text):
    doc["config"]["num_blocks"] = HUGE_BLOCKS
    doc["params"] = _b64(np.zeros(3))
    return json.dumps(doc)


class TestBadCheckpoint:
    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(_truncate, "malformed checkpoint", id="truncated_json"),
            pytest.param(_list_format, "has format 1;", id="list_format"),
            pytest.param(_format_2, "has format 2;", id="format_2"),
            pytest.param(_wrong_byte_count, "parameter bytes", id="wrong_byte_count"),
            pytest.param(_extra_token, "parameter bytes", id="extra_token"),
            pytest.param(_not_base64, "malformed checkpoint", id="not_base64"),
            pytest.param(_nan_param, "non-finite parameters", id="nan_param"),
            pytest.param(_max_len_fraction, "encoder.max_len 2.5 must be an integer",
                         id="max_len_fraction"),
            pytest.param(_max_len_missing, "config lacks keys ['max_len']", id="max_len_missing"),
            pytest.param(_lstm_hidden_unread,
                         "encoder.lstm_hidden 12 is not read when encoder.pooling is 'mean'",
                         id="lstm_hidden_unread"),
            pytest.param(_repeated_key, "key 'max_len' is repeated", id="repeated_key"),
            pytest.param(_integer_token, "vocabulary tokens must be a list of distinct strings",
                         id="integer_token"),
            pytest.param(_huge_block_count, "100000000 blocks in 24 parameter bytes",
                         id="huge_block_count"),
        ],
    )
    def test_exits_1_with_one_line(self, fixture_corpus, capsys, monkeypatch, command, corrupt,
                                   message):
        # the task's files are never read: the corrupt checkpoint fails first
        config = write_config(fixture_corpus, eval={"tasks": [_TASK]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        laid_out = []  # the block counts load_model asks param_shapes for

        def spy_shapes(encoder_config, vocab_size):
            laid_out.append(encoder_config.num_blocks)
            # HUGE_BLOCKS is never laid out, even by a load_model that asks
            if encoder_config.num_blocks == HUGE_BLOCKS:
                return {}
            return param_shapes(encoder_config, vocab_size)

        monkeypatch.setattr(sentenc.encoder, "param_shapes", spy_shapes)
        checkpoint = fixture_corpus / "model.json"
        text = checkpoint.read_text(encoding="utf-8")
        checkpoint.write_text(corrupt(json.loads(text), text), encoding="utf-8")
        inp = fixture_corpus / "input.txt"
        inp.write_text("target 0 variant 1\n")
        argv = [command, "--config", str(config)]
        if command == "encode":
            argv += ["--input", str(inp), "--output", str(fixture_corpus / "o.tsv")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert message in err
        assert HUGE_BLOCKS not in laid_out


_EVEN = ["even"] * 30


class TestEvalCommand:
    @staticmethod
    def _write_task(tmp_path, name, kind="classification"):
        rows = []
        for i in range(30):
            if kind == "classification":
                label = "even" if i % 2 == 0 else "odd"
            else:
                label = str(float(i % 5))
            rows.append(f"{label}\ttarget {i % 3} variant {i % 4}")
        for split in ("train", "validation", "test"):
            (tmp_path / f"{name}.{split}.tsv").write_text(
                "\n".join(rows) + "\n", encoding="utf-8"
            )
        return {
            "name": name,
            "kind": kind,
            "arity": "single",
            "train": str(tmp_path / f"{name}.train.tsv"),
            "validation": str(tmp_path / f"{name}.validation.tsv"),
            "test": str(tmp_path / f"{name}.test.tsv"),
        }

    def test_no_tasks_exits_2_before_reading_a_file(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)  # no checkpoint either: none is read
        assert main(["eval", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "config must set at least one task in eval.tasks" in err
        assert not (fixture_corpus / "results.csv").exists()

    def test_oversized_probe_exits_2_before_allocating(self, fixture_corpus, capsys):
        task = self._write_task(fixture_corpus, "taskA")
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        write_config(fixture_corpus, eval={"tasks": [task], "hidden": 2**50})
        files = _file_bytes(fixture_corpus)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"exceed the ceiling of {PARAM_CEILING}" in err
        assert _file_bytes(fixture_corpus) == files

    @pytest.mark.parametrize("l2", [1e200, 1e308])
    def test_overflowing_probe_fit_exits_3(self, fixture_corpus, capsys, l2):
        """A lambda so large that a fit overflows is a divergence that names
        the task and the lambda, not a RuntimeWarning or an unnamed step."""
        task = self._write_task(fixture_corpus, "taskA")
        config = write_config(fixture_corpus, eval={"tasks": [task], "lambda_grid": [l2]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        assert captured.err.startswith(f"training diverged: eval task taskA, lambda {l2!r}: ")
        assert captured.err.count("\n") == 1
        assert not (fixture_corpus / "results.csv").exists()

    def test_two_tasks_ordered_rows_and_metrics(self, fixture_corpus):
        t1 = self._write_task(fixture_corpus, "taskA", "classification")
        t2 = self._write_task(fixture_corpus, "taskB", "regression")
        config = write_config(
            fixture_corpus,
            eval={"tasks": [t1, t2], "lambda_grid": [1e-3], "hidden": 8},
        )
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 0
        lines = (fixture_corpus / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "task,metric,value,lambda"
        assert lines[1].startswith("taskA,accuracy,")
        assert lines[2].startswith("taskB,spearman,")

    @pytest.mark.parametrize(
        "kind, row, named",
        [
            pytest.param("classification", "\ttarget 0 variant 0", "empty class label",
                         id="empty_label"),
            pytest.param("regression", "nan\ttarget 0 variant 0", "non-finite score",
                         id="nan_score"),
            pytest.param("classification", "even\t  ", "empty sentence field",
                         id="empty_sentence"),
        ],
    )
    def test_bad_eval_row_exits_1(self, fixture_corpus, capsys, kind, row, named):
        task = self._write_task(fixture_corpus, "taskA", kind)
        path = fixture_corpus / "taskA.validation.tsv"
        path.write_text(row + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        config = write_config(fixture_corpus, eval={"tasks": [task]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert f"taskA.validation.tsv:1: {named}" in err
        assert not (fixture_corpus / "results.csv").exists()

    def test_blank_lines_leave_results_unchanged(self, fixture_corpus):
        task = self._write_task(fixture_corpus, "taskA")
        config = write_config(fixture_corpus, eval={"tasks": [task], "lambda_grid": [1e-3]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 0
        results = (fixture_corpus / "results.csv").read_bytes()
        for split in ("train", "validation", "test"):
            path = fixture_corpus / f"taskA.{split}.tsv"
            rows = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n" + "\n  \n\t\n".join(rows) + "\n\n", encoding="utf-8")
        assert main(["eval", "--config", str(config)]) == 0
        assert (fixture_corpus / "results.csv").read_bytes() == results

    def test_empty_split_exits_1(self, fixture_corpus, capsys):
        task = self._write_task(fixture_corpus, "taskA")
        (fixture_corpus / "taskA.test.tsv").write_text("", encoding="utf-8")
        config = write_config(fixture_corpus, eval={"tasks": [task]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1

    @staticmethod
    def _relabel(path, labels):
        """Give the split's first len(labels) rows these labels; drop the rest."""
        texts = [row.split("\t", 1)[1] for row in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(f"{y}\t{t}\n" for y, t in zip(labels, texts)), encoding="utf-8")

    # one label throughout, so no split holds a class the train split lacks
    @pytest.mark.parametrize(
        "kind, labels",
        [
            ("classification", {"train": ["even"], "validation": _EVEN, "test": _EVEN}),
            ("classification", {"train": _EVEN, "validation": _EVEN, "test": _EVEN}),
            ("regression", {"validation": ["1.0"] * 30}),  # constant validation scores
            ("regression", {"test": ["1.0"] * 30}),
            ("regression", {"test": ["1.0"]}),
            ("regression", {"validation": ["1.0"]}),
        ],
        ids=[
            "one-train-row",
            "one-label",
            "constant-validation",
            "constant-test",
            "one-test-row",
            "one-validation-row",
        ],
    )
    def test_degenerate_task_exits_1_naming_it(self, fixture_corpus, capsys, kind, labels):
        task = self._write_task(fixture_corpus, "taskA", kind)
        for split, split_labels in labels.items():
            self._relabel(fixture_corpus / f"taskA.{split}.tsv", split_labels)
        config = write_config(fixture_corpus, eval={"tasks": [task], "lambda_grid": [1e-3]})
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error: task taskA:") and err.count("\n") == 1
        assert not (fixture_corpus / "results.csv").exists()
