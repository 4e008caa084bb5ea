"""Command-line surface: mine, train, encode, eval.

Exit codes: 0 success, 1 I/O failure (or memory exhausted), 2 config error,
3 numeric divergence; each error class in `sentenc.errors` carries its own.
Every command is deterministic given (config, seed); the master seed feeds
each stage through a named sub-stream. --threads N must be at least 1 and is
otherwise unused: all work runs serially in one process.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import RunConfig, load_run_config, reject_overwrite
from .corpus import (
    atomic_write,
    open_input,
    read_eval_dataset,
    read_pairs,
    read_parallel_moses,
    read_parallel_tsv,
    write_pairs,
)
from .encoder import build_vocabulary, encode, init_model, load_model, save_model
from .errors import ConfigError, CorpusError, SentencError
from .evalharness import EvalTask, evaluate
from .mining import MiningStats, hashed_ngram_encoder, mine, precomputed_encoder
from .numeric import SeededRng, _derive_seed
from .training import train, write_loss_csv

EXIT_OK = 0


def _filter_encoder(config: RunConfig):
    fe = config.filter_encoder
    if fe.type == "hashed_ngram":
        return hashed_ngram_encoder(fe.dimension)
    return precomputed_encoder(fe.path)


def _corpus_reader(config: RunConfig):
    paths = config.paths
    if paths.corpus_tsv:
        return read_parallel_tsv(paths.corpus_tsv)
    if paths.corpus_source:  # PathsConfig checked that both are set
        return read_parallel_moses(paths.corpus_source, paths.corpus_target)
    raise ConfigError("config must set paths.corpus_tsv or both Moses paths")


def cmd_mine(config: RunConfig) -> int:
    reader = _corpus_reader(config)
    enc = _filter_encoder(config)
    stats = MiningStats()
    seed = _derive_seed(config.seed, "mine")
    pairs = mine(reader, enc, config.mining, seed=seed, stats=stats)
    write_pairs(pairs, config.paths.pairs)
    print(f"input pairs:        {stats.input_pairs}")
    print(f"unpairable lines:   {stats.unpairable}")
    print(f"filtered survivors: {stats.kept_pairs}")
    print(f"encoder failures:   {stats.encoder_failures}")
    print(f"groups >= 2:        {stats.groups}")
    print(f"emitted pairs:      {stats.emitted_pairs}")
    print(f"skipped lines:      {reader.skipped}")
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    pairs = read_pairs(config.paths.pairs)
    if len(pairs) < 2:  # a batch of fewer has no in-batch negative
        raise CorpusError(
            f"{config.paths.pairs} holds {len(pairs)} training pairs; training needs at least 2"
        )
    texts = [p.a for p in pairs] + [p.b for p in pairs]
    vocab = build_vocabulary(texts, config.min_count)
    rng = SeededRng(config.seed).substream("init")
    model = init_model(config.encoder, vocab, rng)
    history = train(pairs, model, config.training, _derive_seed(config.seed, "train"))
    save_model(model, config.paths.checkpoint)
    write_loss_csv(history, config.paths.loss_csv)
    print(f"trained {len(history)} steps; checkpoint at {config.paths.checkpoint}")
    return EXIT_OK


def cmd_encode(config: RunConfig, config_path: str, input_path: str, output_path: str) -> int:
    named = {"--config": config_path, "--input": input_path, **config.named_paths()}
    reject_overwrite({"--output": output_path}, named)
    model = load_model(config.paths.checkpoint)
    with open_input(input_path, "input file") as handle:
        # only "\n" ends a line: str.splitlines would also break at form
        # feeds and U+2028, so output rows would not match input lines
        lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    vectors = encode(lines, model)
    with atomic_write(output_path) as out:
        for line, vec in zip(lines, vectors):
            text = line.replace("\t", " ")
            out.write(f"{text}\t{' '.join(repr(v) for v in vec.tolist())}\n")
    print(f"encoded {len(lines)} sentences to {output_path}")
    return EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    if not config.eval.tasks:
        raise ConfigError("config must set at least one task in eval.tasks")
    model = load_model(config.paths.checkpoint)
    seed = _derive_seed(config.seed, "probe")
    rows = []
    for task_cfg in config.eval.tasks:
        splits = [
            read_eval_dataset(path, task_cfg.kind, task_cfg.arity)
            for path in (task_cfg.train, task_cfg.validation, task_cfg.test)
        ]
        task = EvalTask(task_cfg.name, task_cfg.kind, *splits)
        result = evaluate(
            model,
            task,
            lambda_grid=config.eval.lambda_grid,
            seed=seed,
            hidden=config.eval.hidden,
        )
        rows.append(result)
        print(f"{result.task}: {result.metric}={result.value:.4f} (l2={result.l2})")
    with atomic_write(config.paths.eval_report) as out:
        out.write("task,metric,value,lambda\n")
        for r in rows:
            out.write(f"{r.task},{r.metric},{r.value!r},{r.l2!r}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentenc",
        description="Mine paraphrases from bitext and train a sentence encoder.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mine", "train", "encode", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads", type=int, default=1, help="at least 1; unused: work runs serially"
        )
        if name == "encode":
            p.add_argument("--input", required=True, help="one sentence per line")
            p.add_argument("--output", required=True, help="embeddings TSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads {args.threads} must be at least 1")
        config = load_run_config(args.config, args.seed)
        if args.command == "mine":
            return cmd_mine(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "encode":
            return cmd_encode(config, args.config, args.input, args.output)
        return cmd_eval(config)
    except SentencError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{SentencError.label}: {exc}", file=sys.stderr)
        return SentencError.exit_code
    except MemoryError as exc:
        # last resort, for a size that no check refused before allocating it
        detail = f": {exc}" if str(exc) else ""
        print(f"{SentencError.label}: out of memory{detail}", file=sys.stderr)
        return SentencError.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
