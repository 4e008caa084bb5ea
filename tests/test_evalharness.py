from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentenc import evalharness
from sentenc.corpus import EvalRecord
from sentenc.encoder import EncoderConfig, build_vocabulary, init_model
from sentenc.evalharness import (
    EvalError,
    EvalTask,
    _average_ranks,
    accuracy,
    evaluate,
    featurize,
    predict,
    spearman,
    train_probe,
)
from sentenc.numeric import SeededRng


def reference_ranks(values):
    """Average ranks as exact fractions, by walking runs of equal values."""
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


def rank_then_pearson_oracle(x, y):
    """Exact Spearman via average ranks and Pearson in rational arithmetic."""
    rx, ry = reference_ranks(list(x)), reference_ranks(list(y))
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return float(cov) / (float(vx) ** 0.5 * float(vy) ** 0.5)


def small_encoder(pooling="mean", seed=3):
    vocab = build_vocabulary([f"word{i}" for i in range(30)])
    cfg = EncoderConfig(
        embed_dim=8, num_blocks=0, ffn_dim=8, pooling=pooling, lstm_hidden=8, max_len=8
    )
    return init_model(cfg, vocab, SeededRng(seed).substream("init"))


class TestFeaturize:
    def test_pair_dimension_is_4x(self):
        model = small_encoder()
        rec = EvalRecord("x", ("word1 word2", "word3"))
        assert featurize([rec], model).shape == (1, 32)

    def test_identical_pair_has_zero_abs_diff_block(self):
        model = small_encoder()
        rec = EvalRecord("x", ("word1 word2", "word1 word2"))
        feats = featurize([rec], model)
        assert np.all(feats[0, 16:24] == 0.0)

    @pytest.mark.parametrize("pooling", ["mean", "lstm"])
    def test_pairs_match_sides_encoded_apart(self, pooling):
        from sentenc.encoder import encode

        model = small_encoder(pooling)
        words = [f"word{i}" for i in range(30)]
        records = [
            EvalRecord("x", (" ".join(words[i : i + 1 + i % 5]), " ".join(words[i % 7 : 9])))
            for i in range(20)
        ]
        u = encode([r.sentences[0] for r in records], model)
        v = encode([r.sentences[1] for r in records], model)
        want = np.concatenate([u, v, np.abs(u - v), u * v], axis=1)
        assert np.abs(featurize(records, model) - want).max() <= 1e-12

    def test_single_is_embedding_verbatim(self):
        from sentenc.encoder import encode

        model = small_encoder()
        rec = EvalRecord("x", ("word5 word6",))
        assert np.array_equal(featurize([rec], model), encode(["word5 word6"], model))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_none_correct(self):
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            accuracy(["a"], ["a", "b"])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30), st.integers(0, 100))
    def test_joint_permutation_invariant(self, pairs, seed):
        preds = [p for p, _ in pairs]
        labels = [l for _, l in pairs]
        perm = SeededRng(seed).shuffle(range(len(pairs)))
        assert accuracy(preds, labels) == accuracy(
            [preds[i] for i in perm], [labels[i] for i in perm]
        )


class TestSpearman:
    def test_monotone_is_one(self):
        x = [1.0, 2.5, 7.0, 11.0]
        assert spearman(x, [v**3 for v in x]) == 1.0

    def test_antitone_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [-v for v in x]) == -1.0

    def test_tied_example_against_oracle(self):
        for x, y in [
            ([1, 2, 2, 4], [1, 3, 2, 4]),
            # -0.0 and 0.0 tie with each other
            ([0.0, -0.0, 1.5, -0.0, -2.0, 1.5, 0.0], [-0.0, 3.0, 0.0, 3.0, -1.0, 0.0, 2.0]),
        ]:
            assert spearman(x, y) == pytest.approx(rank_then_pearson_oracle(x, y), abs=1e-12)

    def test_constant_input_is_error(self):
        with pytest.raises(EvalError):
            spearman([1, 1, 1], [1, 2, 3])

    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0]), min_size=1, max_size=40))
    def test_average_ranks_equal_reference(self, values):
        ranks = _average_ranks(np.array(values))
        assert ranks.tolist() == [float(r) for r in reference_ranks(values)]

    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=40),
        st.lists(st.integers(0, 9), min_size=2, max_size=40),
    )
    @settings(max_examples=150)
    def test_matches_rational_oracle(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if n < 2 or len(set(x)) == 1 or len(set(y)) == 1:
            return
        assert spearman(x, y) == pytest.approx(rank_then_pearson_oracle(x, y), abs=1e-12)

    @given(st.lists(st.integers(0, 9), min_size=2, max_size=20))
    def test_symmetry(self, x):
        y = [v + i % 3 for i, v in enumerate(x)]
        if len(set(x)) == 1 or len(set(y)) == 1:
            return
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)

    def test_invariance_under_monotone_transform(self):
        x = [3, 1, 4, 1, 5, 9, 2, 6]
        y = [2, 7, 1, 8, 2, 8, 1, 8]
        assert spearman([2.0**v for v in x], y) == spearman(x, y)


class TestTrainProbe:
    @staticmethod
    def _separable():
        rng = SeededRng(5)
        x0 = rng.uniform(-1, 0, (40, 2)) + np.array([-2.0, 0.0])
        x1 = rng.uniform(0, 1, (40, 2)) + np.array([2.0, 0.0])
        features = np.vstack([x0, x1])
        labels = ["neg"] * 40 + ["pos"] * 40
        return features, labels

    def test_separable_reaches_full_train_accuracy(self):
        features, labels = self._separable()
        probe = train_probe(features, labels, "classification", hidden=16, l2=1e-4, seed=1)
        assert accuracy(predict(probe, features), labels) == 1.0

    def test_huge_l2_crushes_weights(self):
        features, labels = self._separable()
        probe = train_probe(features, labels, "classification", hidden=16, l2=1e6, seed=1)
        assert np.linalg.norm(probe.params["w1"]) < 1e-2

    def test_deterministic(self):
        features, labels = self._separable()
        a = train_probe(features, labels, "classification", hidden=8, l2=1e-3, seed=9)
        b = train_probe(features, labels, "classification", hidden=8, l2=1e-3, seed=9)
        assert np.array_equal(a.params["w1"], b.params["w1"])
        assert np.array_equal(a.params["w2"], b.params["w2"])

    def test_single_class_is_error(self):
        features = np.ones((4, 2))
        with pytest.raises(EvalError):
            train_probe(features, ["a"] * 4, "classification")

    def test_regression_fits_linear_target(self):
        rng = SeededRng(8)
        x = rng.uniform(-1, 1, (60, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        probe = train_probe(x, y, "regression", hidden=16, l2=1e-4, seed=2)
        preds = predict(probe, x)
        assert spearman(preds, y) > 0.95


def coordinate_task(model, n=120, coord=0):
    """Labels are a deterministic threshold on one embedding coordinate,
    with a margin band removed around the threshold."""
    from sentenc.encoder import encode

    sentences = [f"word{i % 30} word{(i * 7) % 30} word{(i * 13) % 30}" for i in range(n)]
    values = encode(sentences, model)[:, coord]
    median = float(np.median(values))
    spread = values.std()
    records = []
    for s, v in zip(sentences, values):
        if abs(v - median) < 0.1 * spread:
            continue
        records.append(EvalRecord("hi" if v > median else "lo", (s,)))
    third = len(records) // 3
    return EvalTask("coord", "classification", records[:third], records[third : 2 * third], records[2 * third :])


class TestEvaluate:
    def test_coordinate_task_scores_perfectly(self):
        model = small_encoder(seed=11)
        task = coordinate_task(model)
        result = evaluate(model, task, lambda_grid=[1e-4, 1e-3], seed=3)
        assert result.metric == "accuracy"
        assert result.value == 1.0

    def test_grid_of_one_equals_direct_train_then_test(self):
        model = small_encoder(seed=11)
        task = coordinate_task(model)
        r1 = evaluate(model, task, lambda_grid=[1e-3], seed=3)
        feats_train = featurize(task.train, model)
        feats_test = featurize(task.test, model)
        probe = train_probe(
            feats_train, [r.label for r in task.train], "classification", 64, 1e-3, 3
        )
        direct = accuracy(predict(probe, feats_test), [r.label for r in task.test])
        assert r1.value == direct
        assert r1.l2 == 1e-3

    @pytest.mark.parametrize("arity", ["single", "pair"])
    def test_one_encode_call_per_evaluate(self, arity, monkeypatch):
        model = small_encoder(seed=11)
        task = coordinate_task(model)
        if arity == "pair":
            def paired(records):
                return [EvalRecord(r.label, (r.sentences[0], "word1 word2")) for r in records]

            task = EvalTask(task.name, task.kind, paired(task.train),
                            paired(task.validation), paired(task.test))
        calls, encode = [], evalharness.encode
        monkeypatch.setattr(evalharness, "encode",
                            lambda texts, model: calls.append(len(texts)) or encode(texts, model))
        evaluate(model, task, lambda_grid=[1e-3, 1e-2], seed=3)
        records = len(task.train) + len(task.validation) + len(task.test)
        assert calls == [records * (2 if arity == "pair" else 1)]

    def test_encoder_frozen_through_evaluate(self):
        model = small_encoder(seed=11)
        before = {k: v.copy() for k, v in model.params.items()}
        evaluate(model, coordinate_task(model), lambda_grid=[1e-3], seed=3)
        for name in before:
            assert np.array_equal(model.params[name], before[name])

    def test_label_randomized_task_scores_near_chance(self):
        model = small_encoder(seed=11)
        classes = ["c0", "c1", "c2", "c3"]
        accs = []
        for seed in range(5):
            rng = SeededRng(seed).substream("labels")
            sentences = [f"word{i % 30} word{(i * 3) % 30}" for i in range(240)]
            records = [
                EvalRecord(classes[rng.integers(0, 4)], (s,)) for s in sentences
            ]
            task = EvalTask(
                "null", "classification",
                records[:80], records[80:160], records[160:],
            )
            result = evaluate(model, task, lambda_grid=[1e-2], seed=seed)
            accs.append(result.value)
        assert abs(np.mean(accs) - 0.25) <= 0.1

    def test_validation_splits_missing_class_rejected(self):
        records = [EvalRecord(label, (f"word{i}",)) for i, label in enumerate("abc")]
        with pytest.raises(EvalError, match="validation classes"):
            EvalTask(
                "bad", "classification",
                [records[0], records[2]], [records[1]], [records[0]],
            )

    @pytest.mark.parametrize("scores", [[1.0], [2.0, 2.0, 2.0]], ids=["one-row", "constant"])
    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_regression_split_needs_two_distinct_scores(self, split, scores):
        def records(values):
            return [EvalRecord(v, (f"word{i}",)) for i, v in enumerate(values)]

        splits = {"validation": records([0.0, 1.0]), "test": records([0.0, 1.0])}
        splits[split] = records(scores)
        with pytest.raises(EvalError, match=f"task sim: {split} split needs at least 2"):
            EvalTask("sim", "regression", records([0.0, 1.0]), **splits)
