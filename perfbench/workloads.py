"""Seeded workload inputs for the benchmark.

Everything here depends only on the benchmark seed and the standard library,
never on `sentenc` (in particular not on `sentenc.synthetic`), so a change to
the program cannot change what a workload feeds it.

Each cluster owns content words that no other cluster uses, drawn without
replacement from a space of 70**3 pseudo-words, so clusters stay distinct at
any size. Its targets are paraphrases: the same content words among varying
filler words. The source side is a "foreign" sentence holding the same content
words among filler built from letters the target side never uses, so the
hashed n-gram filter sees only the content words as shared.

Eval records are fresh paraphrases of clusters that reach training, so a
probe can only generalise to the test split through what the encoder learned
from mined pairs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

_TARGET_FILLER = (
    "the a one that this old big small quiet near by beside close to of at "
    "with stood rested waited stayed remained lingered all day today again "
    "there for hours slowly and then still over under very little new long "
    "was is it we you they were"
).split()

# Built only from letters absent from content words and target filler.
_SOURCE_FILLER = "xy wyx jyq qyh hwc cyx yjw xwy qy jx cwy hyx yq wj".split()


@dataclass(frozen=True)
class Shape:
    """Size and shape knobs of one workload's generated inputs."""

    clusters: int
    repeats: tuple[int, int]  # aligned lines per source, inclusive range
    target_len: tuple[int, int]  # tokens per target sentence, log-uniform
    content_words: int
    content_share: float = 0.0  # if > 0, share of tokens drawn from content words
    singletons: int = 0  # extra sources with a single target: mining work only
    malformed_share: float = 0.0  # lines the reader must skip
    misaligned_share: float = 0.0  # lines whose target belongs elsewhere
    duplicate_share: float = 0.0  # repeated lines of a source that copy a target
    encode_lines: int = 100
    tasks: tuple = ()  # (name, kind, arity, clusters, train, validation, test)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    mining: dict
    encoder: dict
    training: dict
    loss_must_fall: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            Shape(
                clusters=50,
                repeats=(6, 6),
                target_len=(8, 10),
                content_words=3,
                content_share=0.4,
                singletons=1500,
                encode_lines=1200,
                tasks=(("topic", "classification", "single", 20, 200, 100, 300),),
            ),
            mining={"threshold": 0.1},
            encoder={"pooling": "lstm", "num_blocks": 1},
            training={"batch_size": 16, "epochs": 3},
            loss_must_fall=True,
        ),
        Workload(
            "mine-wide",
            Shape(
                clusters=2400,
                repeats=(1, 8),
                target_len=(6, 12),
                content_words=3,
                malformed_share=0.03,
                misaligned_share=0.08,
                duplicate_share=0.05,
                encode_lines=6000,
                tasks=(("topic", "classification", "single", 60, 240, 120, 360),),
            ),
            mining={"threshold": 0.3},
            encoder={"pooling": "mean", "num_blocks": 0},
            training={"batch_size": 64, "epochs": 1},
        ),
        Workload(
            "encode-ragged",
            Shape(
                clusters=40,
                repeats=(3, 3),
                target_len=(3, 60),
                content_words=4,
                content_share=0.8,
                singletons=2400,
                encode_lines=400,
                tasks=(
                    ("para", "classification", "pair", 20, 80, 40, 120),
                    ("sim", "regression", "pair", 10, 160, 40, 160),
                ),
            ),
            mining={"threshold": 0.0},
            encoder={"pooling": "lstm", "num_blocks": 1},
            training={"batch_size": 16, "epochs": 1, "peak_lr": 0.01},
        ),
    )
}


@dataclass
class Inputs:
    """Paths of one generated workload plus the facts its output checks need."""

    corpus_lines: int
    targets: set[str]
    encode_count: int
    eval_records: int
    tasks: list[tuple[str, str]]  # (name, kind) in config order
    lambda_grid: list[float]
    output_dim: int
    batch_size: int
    epochs: int
    loss_must_fall: bool


class _Gen:
    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(f"perfbench:{seed}")
        self._draws = 0
        needed = (shape.clusters + shape.singletons) * shape.content_words
        picks = self.rng.sample(range(len(_SYLLABLES) ** 3), needed)
        words = ["".join(_SYLLABLES[(p // 70**k) % 70] for k in range(3)) for p in picks]
        k = shape.content_words
        self.clusters = [words[i * k : (i + 1) * k]
                         for i in range(shape.clusters + shape.singletons)]

    def target(self, words: list[str]) -> str:
        """Content words scattered among filler. Lengths are log-uniform, so
        short sentences are common and long ones rare, as in real text; they
        follow a low-discrepancy sequence rather than random draws, so every
        seed gets nearly the same length mix and the same amount of work.
        With a content share, long sentences repeat content words so they
        stay recognisable."""
        rng = self.rng
        lo, hi = self.shape.target_len
        self._draws += 1
        frac = (self._draws * 0.6180339887498949) % 1.0
        n = round(math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo))))
        share = self.shape.content_share
        content = list(words) if not share else [
            rng.choice(words) for _ in range(max(1, round(n * share)))]
        tokens = [rng.choice(_TARGET_FILLER) for _ in range(max(n - len(content), 0))]
        for w in content:
            tokens.insert(rng.randint(0, len(tokens)), w)
        return " ".join(tokens)

    def source(self, words: list[str]) -> str:
        tokens = list(words)
        for _ in range(self.rng.randint(2, 4)):
            tokens.insert(self.rng.randint(0, len(tokens)), self.rng.choice(_SOURCE_FILLER))
        return " ".join(tokens)

    def paraphrases(self, words: list[str], n: int) -> list[str]:
        out: list[str] = []
        seen: set[str] = set()
        while len(out) < n:
            t = self.target(words)
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out


def _malformed(rng: random.Random, source: str, target: str) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return ""  # blank line
    if kind == 1:
        return f"{source} {target}"  # no tab
    if kind == 2:
        return f"{source}\t{target}\t{target}"  # extra column
    return f"{source}\t   "  # empty target


def _corpus(gen: _Gen) -> tuple[list[str], set[str], list[int]]:
    """Corpus lines, the set of targets on well-formed lines, and the indices
    of clusters whose source keeps at least two distinct aligned targets."""
    shape, rng = gen.shape, gen.rng
    lines: list[str] = []
    targets: set[str] = set()
    mined: list[int] = []
    for c, words in enumerate(gen.clusters):
        src = gen.source(words)
        reps = rng.randint(*shape.repeats) if c < shape.clusters else 1
        texts = gen.paraphrases(words, reps)
        for i in range(1, reps):
            if rng.random() < shape.duplicate_share:
                texts[i] = texts[rng.randrange(i)]
        if len(set(texts)) >= 2:
            mined.append(c)
        for t in texts:
            lines.append(f"{src}\t{t}")
            targets.add(t)
        if rng.random() < shape.misaligned_share * reps:
            other = gen.clusters[rng.randrange(len(gen.clusters))]
            if other is not words:
                t = gen.target(other)
                lines.append(f"{src}\t{t}")
                targets.add(t)
        if rng.random() < shape.malformed_share * reps:
            lines.append(_malformed(rng, src, texts[0]))
    rng.shuffle(lines)
    return lines, targets, mined


def _task_rows(gen: _Gen, task, mined: list[int]) -> dict[str, list[str]]:
    name, kind, arity, n_clusters, *sizes = task
    rng = gen.rng
    pool = rng.sample(mined, min(n_clusters, len(mined)))
    splits = {}
    if arity == "single":
        labels = {c: ("yes" if i % 2 else "no") for i, c in enumerate(pool)}
        for split, size in zip(("train", "validation", "test"), sizes):
            rows = []
            for i in range(size):
                c = pool[i % len(pool)]
                rows.append(f"{labels[c]}\t{gen.target(gen.clusters[c])}")
            splits[split] = rows
        return splits
    for split, size in zip(("train", "validation", "test"), sizes):
        rows = []
        for i in range(size):
            c, d = rng.sample(pool, 2)
            a_words, b_words = gen.clusters[c], gen.clusters[d]
            if kind == "classification":
                same = i % 2 == 0
                a, b = gen.paraphrases(a_words, 2) if same else (
                    gen.target(a_words), gen.target(b_words))
                rows.append(f"{int(same)}\t{a}\t{b}")
            else:
                shared = (i % 3) * len(a_words) // 2  # none, half or all shared
                mixed = a_words[:shared] + b_words[shared:]
                rows.append(f"{shared}\t{gen.target(a_words)}\t{gen.target(mixed)}")
        splits[split] = rows
    return splits


def _write(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(r + "\n" for r in rows))


def generate(name: str, seed: int, workdir: str, scale: float = 1.0) -> Inputs:
    """Write corpus.tsv, the eval splits, encode.txt and config.json into
    `workdir`; the pipeline writes its artifacts to `workdir`/out.

    `scale` shrinks the cluster and record counts for the self-test; the
    benchmark itself always runs at scale 1.
    """
    wl = WORKLOADS[name]
    shape = wl.shape
    if scale != 1.0:
        def sz(n):
            return max(4, math.ceil(n * scale))

        shape = Shape(
            **{
                **shape.__dict__,
                "clusters": sz(shape.clusters),
                "singletons": math.ceil(shape.singletons * scale),
                "encode_lines": sz(shape.encode_lines),
                "tasks": tuple(
                    (t[0], t[1], t[2], sz(t[3]), *(sz(n) for n in t[4:])) for t in shape.tasks
                ),
            }
        )
    gen = _Gen(shape, seed)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)

    lines, targets, mined = _corpus(gen)
    _write(os.path.join(workdir, "corpus.tsv"), lines)

    task_cfgs, eval_records = [], 0
    for task in shape.tasks:
        tname, kind, arity = task[:3]
        splits = _task_rows(gen, task, mined)
        cfg = {"name": tname, "kind": kind, "arity": arity}
        for split, rows in splits.items():
            path = os.path.join(workdir, f"{tname}.{split}.tsv")
            _write(path, rows)
            cfg[split] = path
            eval_records += len(rows)
        task_cfgs.append(cfg)

    encode_rows = [gen.target(gen.clusters[gen.rng.randrange(len(gen.clusters))])
                   for _ in range(shape.encode_lines)]
    _write(os.path.join(workdir, "encode.txt"), encode_rows)

    lambda_grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    config = {
        "seed": seed,
        "paths": {
            "corpus_tsv": os.path.join(workdir, "corpus.tsv"),
            "pairs": os.path.join(out, "pairs.tsv"),
            "checkpoint": os.path.join(out, "model.json"),
            "loss_csv": os.path.join(out, "loss.csv"),
            "eval_report": os.path.join(out, "results.csv"),
        },
        "mining": wl.mining,
        "filter_encoder": {"type": "hashed_ngram", "dimension": 512},
        "encoder": wl.encoder,
        "training": wl.training,
        "eval": {"tasks": task_cfgs, "lambda_grid": lambda_grid},
    }
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1)

    encoder = {"embed_dim": 64, "lstm_hidden": 128, **wl.encoder}
    return Inputs(
        corpus_lines=len(lines),
        targets=targets,
        encode_count=len(encode_rows),
        eval_records=eval_records,
        tasks=[(t["name"], t["kind"]) for t in task_cfgs],
        lambda_grid=lambda_grid,
        output_dim=encoder["lstm_hidden"] if encoder["pooling"] == "lstm" else encoder["embed_dim"],
        batch_size=wl.training["batch_size"],
        epochs=wl.training["epochs"],
        loss_must_fall=wl.loss_must_fall,
    )
