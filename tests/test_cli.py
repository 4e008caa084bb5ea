import errno
import json

import pytest

import sentenc.encoder
from sentenc.cli import main
from sentenc.corpus import read_pairs


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


class TestMineCommand:
    def test_summary_counts_match_hand_count(self, fixture_corpus, capsys):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "input pairs:        12" in out
        assert "filtered survivors: 12" in out
        assert "encoder failures:   0" in out
        assert "groups >= 2:        3" in out
        assert "emitted pairs:      6" in out
        assert len(read_pairs(fixture_corpus / "pairs.tsv")) == 6

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
            pytest.param({"eval": {"hidden": 0}}, [], "hidden 0", id="zero_hidden"),
            pytest.param({"eval": {"lambda_grid": ["a"]}}, [], "eval.lambda_grid[0] 'a'",
                         id="string_lambda"),
            pytest.param({"eval": {"lambda_grid": [-1.0]}}, [], "lambda_grid [-1.0]",
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

    def test_malformed_precomputed_file_exits_1(self, fixture_corpus, capsys):
        vectors = fixture_corpus / "vectors.tsv"
        config = write_config(
            fixture_corpus, filter_encoder={"type": "precomputed", "path": str(vectors)}
        )
        for content in ("a sentence without a vector\n", "hello\t1 nan 3\n"):
            vectors.write_text(content, encoding="utf-8")
            assert main(["mine", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith("I/O error:") and err.count("\n") == 1
            assert "vectors.tsv:1" in err


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

        def dump_then_fail(doc, handle):
            handle.write('{"config": ')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sentenc.encoder.json, "dump", dump_then_fail)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("I/O error:") and err.count("\n") == 1
        assert (fixture_corpus / "model.json").read_bytes() == checkpoint
        assert list(fixture_corpus.glob("*.tmp")) == []

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


def _per_gate_lstm(doc, text):
    """The layout before the gates were fused: lstm.w{i,f,o,g}, lstm.b{i,f,o,g}."""
    params = doc["params"]
    h = params["lstm.b"]["shape"][0] // 4
    w, b = params.pop("lstm.w"), params.pop("lstm.b")
    row = w["shape"][1]
    for k, gate in enumerate("ifog"):
        data = w["data"][k * h * row : (k + 1) * h * row]
        params[f"lstm.w{gate}"] = {"shape": [h, row], "data": data}
        params[f"lstm.b{gate}"] = {"shape": [h], "data": b["data"][k * h : (k + 1) * h]}
    return json.dumps(doc)


def _short_embed(doc, text):
    embed = doc["params"]["embed"]
    rows, dim = embed["shape"]
    doc["params"]["embed"] = {"shape": [rows - 1, dim], "data": embed["data"][dim:]}
    return json.dumps(doc)


class TestBadCheckpoint:
    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize(
        "corrupt",
        [_truncate, _per_gate_lstm, _short_embed],
        ids=["truncated_json", "per_gate_lstm", "wrong_embed_shape"],
    )
    def test_exits_1_with_one_line(self, fixture_corpus, capsys, command, corrupt):
        config = write_config(fixture_corpus)
        assert main(["mine", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
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
