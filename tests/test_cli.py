import json

import pytest

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
        "override",
        [
            {"mining": {"thresold": 0.5}},
            {"encoder": {"pooling": "bogus"}},
            {"mining": {"threshold": -1}},
        ],
        ids=["unknown_key", "bogus_pooling", "negative_threshold"],
    )
    def test_unknown_config_key_exits_2(self, fixture_corpus, capsys, override):
        config = write_config(fixture_corpus, **override)
        assert main(["mine", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


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
