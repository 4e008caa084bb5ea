"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sentenc.cli import main as cli_main
from sentenc.corpus import AlignedPair, ParaphrasePair
from sentenc.encoder import (
    EncoderConfig,
    build_vocabulary,
    encode,
    finite_difference_grad,
    init_model,
    load_model,
    save_model,
)
from sentenc.evalharness import EvalTask, evaluate, spearman
from sentenc.mining import (
    MiningConfig,
    SentenceGroup,
    generate_pairs,
    hashed_ngram_encoder,
    mine,
)
from sentenc.numeric import SeededRng
from sentenc.synthetic import make_clustered_corpus
from sentenc.training import (
    TrainConfig,
    batch_loss_and_grads,
    mnr_loss,
    mnr_loss_grad,
    similarity_matrix,
    train,
)
from sentenc.corpus import EvalRecord

REPORT = "[acceptance] criterion {n}: {status} ({detail})"


def report(n, ok, detail):
    print(REPORT.format(n=n, status="PASS" if ok else "FAIL", detail=detail))
    assert ok


TOY_TEXTS = [
    "the cat sat down",
    "a dog ran fast",
    "birds fly very high",
    "fish swim deep today",
    "cats sit down often",
    "dogs run far away",
    "birds soar up there",
    "fish dive low now",
]


def toy_model(pooling, seed=3):
    vocab = build_vocabulary(TOY_TEXTS)
    cfg = EncoderConfig(
        embed_dim=8, num_blocks=1, ffn_dim=16, pooling=pooling, lstm_hidden=16, max_len=8
    )
    return init_model(cfg, vocab, SeededRng(seed).substream("init"))


def test_criterion_1_gradient_correctness():
    start = time.time()
    pairs = [ParaphrasePair(TOY_TEXTS[i], TOY_TEXTS[i + 4]) for i in range(4)]
    worst_overall = 0.0
    for pooling in ("cls", "mean", "max", "lstm"):
        model = toy_model(pooling)
        _, analytic = batch_loss_and_grads(pairs, model, 1.0)

        def loss_fn(m):
            a, b = encode([p.a for p in pairs], m), encode([p.b for p in pairs], m)
            return mnr_loss(similarity_matrix(a, b, 1.0)[0])

        numeric = finite_difference_grad(loss_fn, model, 1e-5)
        worst = 0.0
        for name in model.params:
            a, n = analytic[name], numeric[name]
            mask = (np.abs(a) + np.abs(n)) >= 1e-8
            if mask.any():
                rel = np.abs(a - n)[mask] / (np.abs(a) + np.abs(n))[mask]
                worst = max(worst, float(rel.max()))
        assert worst < 1e-3, f"{pooling}: max relative error {worst}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - start
    report(
        1,
        worst_overall < 1e-3 and elapsed < 60,
        f"max rel err {worst_overall:.2e} over 4 poolings in {elapsed:.1f}s",
    )


def test_criterion_2_loss_algebra():
    assert mnr_loss(np.array([[1.7]])) == 0.0
    for k in (2, 4, 8, 64):
        assert abs(mnr_loss(np.full((k, k), 0.31)) - math.log(k)) <= 1e-12
    rng = SeededRng(17)
    min_loss, max_row_sum = np.inf, 0.0
    for i in range(1000):
        k = 1 + i % 8
        s = rng.uniform(-4, 4, (k, k))
        min_loss = min(min_loss, mnr_loss(s))
        max_row_sum = max(max_row_sum, float(np.abs(mnr_loss_grad(s).sum(axis=1)).max()))
    report(
        2,
        min_loss >= 0.0 and max_row_sum <= 1e-12,
        f"min loss {min_loss:.2e}, worst grad row sum {max_row_sum:.2e}",
    )


def test_criterion_3_mining_properties():
    rng = SeededRng(29)
    for trial in range(1000):
        n = 2 + rng.integers(0, 9)
        targets = [f"sentence {trial} {i}" for i in range(n)]
        out = generate_pairs(SentenceGroup("s", targets), SeededRng(rng.integers(0, 2**32)))
        assert len(out) == math.ceil(n / 2)
        assert {p.a for p in out} | {p.b for p in out} == set(targets)
        assert all(p.a != p.b for p in out)

    enc = hashed_ngram_encoder(128)
    words = ["kot", "pies", "dom", "las", "noc", "dzien", "woda", "ogien"]
    for trial in range(100):
        corpus_rng = SeededRng(1000 + trial)
        corpus = [
            AlignedPair(
                " ".join(corpus_rng.shuffle(words)[:3]),
                " ".join(corpus_rng.shuffle(words)[:3]),
            )
            for _ in range(30)
        ]
        low = mine(corpus, enc, MiningConfig(threshold=0.2, seed=trial))
        high = mine(corpus, enc, MiningConfig(threshold=0.6, seed=trial))
        # every pair mineable at the higher threshold comes from a kept subset
        high_sents = {s for p in high for s in (p.a, p.b)}
        low_sents = {s for p in low for s in (p.a, p.b)}
        assert high_sents <= low_sents

    corpus = make_clustered_corpus(10, 4, seed=3)
    runs = [mine(corpus, enc, MiningConfig(threshold=0.2, seed=5)) for _ in range(2)]
    assert runs[0] == runs[1]
    report(3, True, "coverage/count/self-pair x1000, monotonicity x100, determinism")


def _spearman_oracle(x, y):
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [Fraction(0)] * len(values)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = Fraction(i + j, 2) + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return float(cov) / math.sqrt(float(vx) * float(vy))


def test_criterion_4_spearman_oracle():
    rng = SeededRng(31)
    worst = 0.0
    for _ in range(100):
        # small integer range forces plenty of ties
        x = [rng.integers(0, 12) for _ in range(50)]
        y = [rng.integers(0, 12) for _ in range(50)]
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        worst = max(worst, abs(spearman(x, y) - _spearman_oracle(x, y)))
    assert worst <= 1e-12
    xs = [0.5, 1.25, 3.0, 9.5, 11.0]
    assert spearman(xs, [v**2 for v in xs]) == 1.0
    assert spearman(xs, [-v for v in xs]) == -1.0
    report(4, True, f"100 tied-input oracles within {worst:.1e}; exact +/-1 endpoints")


def test_criterion_5_end_to_end_training():
    start = time.time()
    corpus = make_clustered_corpus(50, 6, seed=2)
    enc = hashed_ngram_encoder(512)
    pairs = mine(corpus, enc, MiningConfig(threshold=0.25, seed=7))
    assert len(pairs) == 150  # ceil(6/2) pairs per cluster

    rng = SeededRng(13)
    shuffled = rng.substream("split").shuffle(pairs)
    heldout, train_pairs = shuffled[:32], shuffled[32:]
    vocab = build_vocabulary([p.a for p in pairs] + [p.b for p in pairs])
    model = init_model(EncoderConfig(), vocab, rng.substream("init"))
    history = train(train_pairs, model, TrainConfig(batch_size=16, epochs=3, seed=5))

    first = np.mean([h.loss for h in history if h.epoch == 0])
    last = np.mean([h.loss for h in history if h.epoch == 2])
    assert last < first

    correct = total = 0
    for i in range(0, len(heldout) - 15, 16):
        chunk = heldout[i : i + 16]
        a = encode([p.a for p in chunk], model)
        b = encode([p.b for p in chunk], model)
        sims = (a / np.linalg.norm(a, axis=1, keepdims=True)) @ (
            b / np.linalg.norm(b, axis=1, keepdims=True)
        ).T
        correct += int((sims.argmax(axis=1) == np.arange(16)).sum())
        total += 16
    accuracy = correct / total
    elapsed = time.time() - start
    report(
        5,
        last < first and accuracy >= 0.80 and elapsed < 300,
        f"loss {first:.3f}->{last:.3f}, retrieval top-1 {accuracy:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_dimension_independence():
    vocab = build_vocabulary(TOY_TEXTS)
    for hidden in (64, 128, 256):
        cfg = EncoderConfig(embed_dim=32, ffn_dim=32, pooling="lstm", lstm_hidden=hidden)
        model = init_model(cfg, vocab, SeededRng(1).substream("init"))
        assert encode([TOY_TEXTS[0]], model).shape == (1, hidden)
    for pooling in ("cls", "mean", "max"):
        cfg = EncoderConfig(embed_dim=32, ffn_dim=32, pooling=pooling, lstm_hidden=64)
        model = init_model(cfg, vocab, SeededRng(1).substream("init"))
        assert encode([TOY_TEXTS[0]], model).shape == (1, 32)
    report(6, True, "lstm output dim in {64,128,256}; cls/mean/max dim 32")


def _pipeline_config(tmp_path, tag):
    root = tmp_path / tag
    root.mkdir()
    corpus = make_clustered_corpus(10, 4, seed=6)
    with open(root / "corpus.tsv", "w", encoding="utf-8") as f:
        for p in corpus:
            f.write(f"{p.source}\t{p.target}\n")
    task_rows = [
        f"{'even' if i % 2 == 0 else 'odd'}\t{corpus[i % len(corpus)].target}"
        for i in range(24)
    ]
    for split in ("train", "validation", "test"):
        (root / f"task.{split}.tsv").write_text("\n".join(task_rows) + "\n")
    config = {
        "seed": 99,
        "paths": {
            "corpus_tsv": str(root / "corpus.tsv"),
            "pairs": str(root / "pairs.tsv"),
            "checkpoint": str(root / "model.json"),
            "loss_csv": str(root / "loss.csv"),
            "eval_report": str(root / "results.csv"),
        },
        "mining": {"threshold": 0.25},
        "filter_encoder": {"dimension": 128},
        "encoder": {
            "embed_dim": 8,
            "num_blocks": 1,
            "ffn_dim": 16,
            "pooling": "lstm",
            "lstm_hidden": 12,
            "max_len": 16,
        },
        "training": {"batch_size": 8, "epochs": 1},
        "eval": {
            "lambda_grid": [1e-3, 1e-2],
            "hidden": 8,
            "tasks": [
                {
                    "name": "parity",
                    "kind": "classification",
                    "arity": "single",
                    "train": str(root / "task.train.tsv"),
                    "validation": str(root / "task.validation.tsv"),
                    "test": str(root / "task.test.tsv"),
                }
            ],
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return root, cfg_path


def test_criterion_7_pipeline_determinism(tmp_path):
    outputs = {}
    for tag, threads in (("run1", "1"), ("run4", "4")):
        root, cfg = _pipeline_config(tmp_path, tag)
        for cmd in ("mine", "train", "eval"):
            assert cli_main([cmd, "--config", str(cfg), "--threads", threads]) == 0
        inp = root / "inp.txt"
        inp.write_text("the zebra stood near the old river all day\n")
        assert (
            cli_main(
                [
                    "encode",
                    "--config",
                    str(cfg),
                    "--threads",
                    threads,
                    "--input",
                    str(inp),
                    "--output",
                    str(root / "emb.tsv"),
                ]
            )
            == 0
        )
        outputs[tag] = {
            name: (root / name).read_bytes()
            for name in ("pairs.tsv", "loss.csv", "emb.tsv", "results.csv")
        }
    assert outputs["run1"] == outputs["run4"]
    report(7, True, "pairs/loss/embeddings/results byte-identical, threads 1 vs 4")


def test_criterion_8_checkpoint_fidelity(tmp_path):
    model = toy_model("lstm", seed=21)
    rng = SeededRng(22)
    words = [t for text in TOY_TEXTS for t in text.split()]
    sentences = [
        " ".join(rng.shuffle(words)[: 3 + rng.integers(0, 4)]) for _ in range(100)
    ]
    before = encode(sentences, model)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    after = encode(sentences, loaded)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    report(8, True, "100 random sentences bit-exact after save/load")


def test_criterion_9_eval_harness_sanity():
    vocab = build_vocabulary([f"word{i}" for i in range(30)])
    cfg = EncoderConfig(embed_dim=8, num_blocks=0, ffn_dim=8, pooling="mean", max_len=8)
    model = init_model(cfg, vocab, SeededRng(11).substream("init"))
    params_before = {k: v.copy() for k, v in model.params.items()}

    # labels are a deterministic function of one embedding coordinate
    sentences = [f"word{i % 30} word{(i * 7) % 30} word{(i * 13) % 30}" for i in range(150)]
    values = encode(sentences, model)[:, 0]
    median = float(np.median(values))
    records = [
        EvalRecord("hi" if v > median else "lo", (s,))
        for s, v in zip(sentences, values)
        if abs(v - median) >= 0.1 * values.std()
    ]
    third = len(records) // 3
    task = EvalTask(
        "coord", "classification", "single",
        records[:third], records[third : 2 * third], records[2 * third :],
    )
    result = evaluate(model, task, lambda_grid=[1e-4, 1e-3], seed=3)
    assert result.value == 1.0

    # label-randomized 4-class task stays near chance
    accs = []
    for seed in range(5):
        rng = SeededRng(seed).substream("labels")
        rand_records = [
            EvalRecord(f"c{rng.integers(0, 4)}", (s,)) for s in sentences + sentences[:90]
        ]
        null_task = EvalTask(
            "null", "classification", "single",
            rand_records[:80], rand_records[80:160], rand_records[160:],
        )
        accs.append(evaluate(model, null_task, lambda_grid=[1e-2], seed=seed).value)
    mean_acc = float(np.mean(accs))
    assert abs(mean_acc - 0.25) <= 0.1

    for name, tensor in params_before.items():
        assert np.array_equal(model.params[name], tensor)
    report(
        9,
        True,
        f"coordinate task 1.0; null task {mean_acc:.3f} vs 0.25; encoder frozen",
    )
