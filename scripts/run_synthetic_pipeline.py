#!/usr/bin/env python3
"""End-to-end demo on a synthetic clustered bitext: mine -> train -> encode -> eval.

Writes all artifacts into a work directory (default ./pipeline_out) and runs
the four CLI subcommands exactly as an operator would.
"""

import argparse
import json
import sys
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sentenc.cli import main as cli_main
from sentenc.numeric import SeededRng
from sentenc.synthetic import make_clustered_corpus


def build_workdir(root: Path, seed: int) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    corpus = make_clustered_corpus(50, 6, seed=seed)
    with open(root / "corpus.tsv", "w", encoding="utf-8") as f:
        for pair in corpus:
            f.write(f"{pair.source}\t{pair.target}\n")

    # toy eval task: classify which half of the clusters a sentence comes from
    rng = SeededRng(seed).substream("task")
    rows = []
    for i, pair in enumerate(rng.shuffle(corpus)):
        label = "front" if corpus.index(pair) < len(corpus) // 2 else "back"
        rows.append(f"{label}\t{pair.target}")
    splits = {"train": rows[:120], "validation": rows[120:210], "test": rows[210:]}
    for name, split_rows in splits.items():
        (root / f"task.{name}.tsv").write_text("\n".join(split_rows) + "\n")

    config = {
        "seed": seed,
        "paths": {
            "corpus_tsv": str(root / "corpus.tsv"),
            "pairs": str(root / "pairs.tsv"),
            "checkpoint": str(root / "model.json"),
            "loss_csv": str(root / "loss.csv"),
            "eval_report": str(root / "results.csv"),
        },
        "mining": {"threshold": 0.25},
        "filter_encoder": {"dimension": 512},
        "training": {"batch_size": 16, "epochs": 3},
        "eval": {
            "tasks": [
                {
                    "name": "cluster-half",
                    "kind": "classification",
                    "arity": "single",
                    "train": str(root / "task.train.tsv"),
                    "validation": str(root / "task.validation.tsv"),
                    "test": str(root / "task.test.tsv"),
                }
            ]
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return cfg_path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    cfg = build_workdir(args.workdir, args.seed)
    (args.workdir / "to_encode.txt").write_text(
        "the zebra stood near the old river all day\n"
        "a quiet zebra rested beside that river again\n"
    )
    for cmd in ("mine", "train"):
        print(f"== sentenc {cmd}")
        assert cli_main([cmd, "--config", str(cfg)]) == 0
    print("== sentenc encode")
    assert (
        cli_main(
            [
                "encode",
                "--config",
                str(cfg),
                "--input",
                str(args.workdir / "to_encode.txt"),
                "--output",
                str(args.workdir / "embeddings.tsv"),
            ]
        )
        == 0
    )
    print("== sentenc eval")
    assert cli_main(["eval", "--config", str(cfg)]) == 0
    print(f"artifacts in {args.workdir}/")


if __name__ == "__main__":
    main()
