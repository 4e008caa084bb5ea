"""Every function the benchmark tracer wraps must still exist in sentenc,
and its mining wrappers must see every call `mine` makes.

The tracer skips a missing target without failing the run, so a rename
would otherwise drop that target's spans from the benchmark unnoticed; a
call that bypasses a wrapper would drop it from the counts the same way."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sentenc.mining
import sentenc.numeric
from sentenc.corpus import AlignedPair

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets():
    tracer = _tracer()
    return tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("metric, module, attr", _tracer_targets())
def test_target_is_callable(metric, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), metric


def test_mining_wrappers_count_the_calls_mine_makes():
    # the cat's and the dog's groups are scored; the blank source fails, and
    # so do both of the birds' targets, so neither group is scored; the lone
    # source has one target and is never encoded
    corpus = [AlignedPair("the cat sat", "the cat sat"), AlignedPair("the cat sat", "qwxz vbnm"),
              AlignedPair("a dog ran", "a dog ran far"), AlignedPair("the cat sat", "the cat sat"),
              AlignedPair("  ", "x y"), AlignedPair("a dog ran", ""),
              AlignedPair("birds fly", " "), AlignedPair("  ", "y z"),
              AlignedPair("the cat sat", "the cat sat down"), AlignedPair("birds fly", ""),
              AlignedPair("lone words", "lone target")]
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        traced = sentenc.mining.hashed_ngram_encoder(64)
        calls = []

        def enc(text):
            calls.append(text)
            return traced(text)

        stats = sentenc.mining.MiningStats()
        # by keyword, as cmd_mine passes them: the tracer looks `stats` up there
        sentenc.mining.mine(corpus, enc, sentenc.mining.MiningConfig(threshold=0.3), seed=7,
                            stats=stats)
    finally:
        tracer.uninstall()
    assert sentenc.mining.cosine_similarity is sentenc.numeric.cosine_similarity
    assert stats.encoder_failures == 5 and stats.unpairable == 1
    layers = tracer.summary()
    # 1 + 3 for the cat, 1 + 2 for the dog, 1 for the blank source, 1 + 2 for the birds
    assert layers["mining.filter_encoder.calls"] == len(calls) == 11
    assert layers["numeric.cosine_similarity.calls"] == 2
    assert layers["mining.mine.calls"] == 1 and layers["mining.input_pairs"] == len(corpus)
