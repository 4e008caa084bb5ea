"""Spans and counters around sentenc's functions, installed from outside.

Each target is wrapped at every binding where it is looked up: `cli`
imports `save_model`, `encode` and others by name and `training` imports
`_forward`/`_backward`, so patching only the defining module would miss
those calls. A target that no longer exists is recorded in `absent`; its
metrics are then left out and the run goes on.

Spans (name, start, end, parent span name, stage, time covered by child
spans) are kept in memory and written once, after the pipeline finished.
"""

from __future__ import annotations

import logging
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute); every one gets a span.
SPANNED = [
    ("cli.mine", "sentenc.cli", "cmd_mine"),
    ("cli.train", "sentenc.cli", "cmd_train"),
    ("cli.encode", "sentenc.cli", "cmd_encode"),
    ("cli.eval", "sentenc.cli", "cmd_eval"),
    ("config.load_run_config", "sentenc.config", "load_run_config"),
    ("corpus.read_parallel_tsv", "sentenc.corpus", "read_parallel_tsv"),
    ("corpus.write_pairs", "sentenc.corpus", "write_pairs"),
    ("corpus.read_pairs", "sentenc.corpus", "read_pairs"),
    ("corpus.read_eval_dataset", "sentenc.corpus", "read_eval_dataset"),
    ("mining.hashed_ngram_encoder", "sentenc.mining", "hashed_ngram_encoder"),
    ("mining.mine", "sentenc.mining", "mine"),
    ("mining.generate_pairs", "sentenc.mining", "generate_pairs"),
    ("encoder.build_vocabulary", "sentenc.encoder", "build_vocabulary"),
    ("encoder.init_model", "sentenc.encoder", "init_model"),
    ("encoder.encode", "sentenc.encoder", "encode"),
    ("encoder.forward", "sentenc.encoder", "_forward"),
    ("encoder.backward", "sentenc.encoder", "_backward"),
    ("encoder.attention_block_forward", "sentenc.encoder", "attention_block_forward"),
    ("encoder.attention_block_backward", "sentenc.encoder", "attention_block_backward"),
    ("encoder.lstm_forward", "sentenc.encoder", "lstm_forward"),
    ("encoder.lstm_backward", "sentenc.encoder", "lstm_backward"),
    ("encoder.save_model", "sentenc.encoder", "save_model"),
    ("encoder.load_model", "sentenc.encoder", "load_model"),
    ("training.train", "sentenc.training", "train"),
    ("training.make_batches", "sentenc.training", "make_batches"),
    ("training.batch_loss_and_grads", "sentenc.training", "batch_loss_and_grads"),
    ("training.similarity_matrix", "sentenc.training", "similarity_matrix"),
    ("training.mnr_loss", "sentenc.training", "mnr_loss"),
    ("training.mnr_loss_grad", "sentenc.training", "mnr_loss_grad"),
    ("training.adamw_step", "sentenc.training", "adamw_step"),
    ("training.write_loss_csv", "sentenc.training", "write_loss_csv"),
    ("evalharness.evaluate", "sentenc.evalharness", "evaluate"),
    ("evalharness.featurize", "sentenc.evalharness", "featurize"),
    ("evalharness.train_probe", "sentenc.evalharness", "train_probe"),
]

# Called too often for a span to be cheap; only their calls are counted.
COUNTED = [
    ("encoder.tokenize", "sentenc.encoder", "tokenize"),
    ("numeric.logsumexp", "sentenc.numeric", "logsumexp"),
    ("numeric.cosine_similarity", "sentenc.numeric", "cosine_similarity"),
]

STAGES = ("mine", "train", "encode", "eval")

# Spans whose time is also reported per pipeline stage.
BY_STAGE = ("training.adamw_step", "encoder.forward", "encoder.backward",
            "encoder.lstm_forward", "encoder.attention_block_forward")


class _DupPositiveCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "duplicate positive" in record.getMessage():
            self.counts["training.dup_positive_warnings"] += 1


class Tracer:
    def __init__(self):
        self.stage = ""
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.filter_texts: set[str] = set()
        self.readers: list = []
        self.mining_stats: list = []
        self.checkpoint_bytes = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._handler = _DupPositiveCounter(self.counts)
        self._hooks = {
            "corpus.read_parallel_tsv": self._keep_reader,
            "mining.hashed_ngram_encoder": self._wrap_filter_encoder,
            "mining.mine": self._keep_stats,
            "encoder.save_model": self._measure_checkpoint,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sentenc" or n.startswith("sentenc.")]
        for name, module_name, attr in SPANNED + COUNTED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            if (name, module_name, attr) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original, self._hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        logging.getLogger("sentenc.training").addHandler(self._handler)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        logging.getLogger("sentenc.training").removeHandler(self._handler)

    def _span(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += end - frame[1]
                spans.append((name, frame[1], end, parent[0] if parent else "",
                              self.stage, frame[2]))
            return after(args, kwargs, result) if after else result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "encoder.tokenize":
                counts["encoder.tokens"] += len(result)
            return result

        return wrapper

    # -- hooks that read state the program keeps --------------------------

    def _keep_reader(self, args, kwargs, reader):
        self.readers.append(reader)
        return reader

    def _keep_stats(self, args, kwargs, result):
        stats = args[3] if len(args) > 3 else kwargs.get("stats")
        if stats is not None:
            self.mining_stats.append(stats)
        return result

    def _measure_checkpoint(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        self.checkpoint_bytes = os.path.getsize(path)
        return result

    def _wrap_filter_encoder(self, args, kwargs, enc):
        span = self._span("mining.filter_encoder", enc)
        texts = self.filter_texts

        def encode(text):
            texts.add(" ".join(text.split()))
            return span(text)

        return encode

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,stage,child_s\n")
            for name, start, end, parent, stage, child in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},{stage},{child!r}\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the traced pipeline, keyed by metric name."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        step_ms: list[float] = []
        for name, start, end, _parent, stage, child in self.spans:
            d = end - start
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child
            if name in BY_STAGE:
                calls[f"{name}.{stage}"] += 1
                total[f"{name}.{stage}"] += d
            if name == "training.batch_loss_and_grads":
                step_ms.append(1000.0 * d)

        spanned = [n for n, _, _ in SPANNED if n not in self.absent]
        if "mining.hashed_ngram_encoder" in spanned:
            spanned.append("mining.filter_encoder")
        out: dict[str, float] = {}
        for n in spanned:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.s"] = total[n]
            out[f"{n}.self_s"] = self_s[n]
            if n in BY_STAGE:
                for stage in STAGES:
                    out[f"{n}.{stage}.calls"] = calls[f"{n}.{stage}"]
                    out[f"{n}.{stage}.s"] = total[f"{n}.{stage}"]
        for n, _, _ in COUNTED:
            if n not in self.absent:
                out[f"{n}.calls"] = self.counts[n]
        if "encoder.tokenize" not in self.absent:
            out["encoder.tokens"] = self.counts["encoder.tokens"]
        out["training.dup_positive_warnings"] = self.counts["training.dup_positive_warnings"]
        if "training.batch_loss_and_grads" not in self.absent:
            out["training.steps"] = len(step_ms)
            if len(step_ms) >= 2:
                q = statistics.quantiles(step_ms, n=10, method="inclusive")
                out["training.step_ms.p50"] = statistics.median(step_ms)
                out["training.step_ms.p90"] = q[8]
        if calls["mining.filter_encoder"]:
            out["mining.filter_encoder.distinct_share"] = (
                len(self.filter_texts) / calls["mining.filter_encoder"])
        for reader in self.readers[:1]:
            out["corpus.lines"] = reader.total_lines
            out["corpus.skipped"] = reader.skipped
        for stats in self.mining_stats[:1]:
            out["mining.input_pairs"] = stats.input_pairs
            out["mining.kept_share"] = stats.kept_pairs / max(stats.input_pairs, 1)
            out["mining.encoder_failures"] = stats.encoder_failures
            out["mining.groups"] = stats.groups
            out["mining.emitted_pairs"] = stats.emitted_pairs
        if "encoder.save_model" not in self.absent:
            out["encoder.checkpoint_bytes"] = self.checkpoint_bytes
        return out
