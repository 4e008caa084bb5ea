"""Output checks for one pipeline; each failure is charged to the stage that
wrote the artifact. Written against the file formats, not sentenc's code."""

from __future__ import annotations

import hashlib
import math
import os
import re

from workloads import Inputs

# artifact -> stage that writes it
ARTIFACTS = {
    "pairs.tsv": "mine",
    "loss.csv": "train",
    "model.json": "train",
    "emb.tsv": "encode",
    "results.csv": "eval",
}


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def batches_per_epoch(n_pairs: int, k: int) -> int:
    """Batches of k pairs; a trailing 1-pair batch is dropped unless alone."""
    n = math.ceil(n_pairs / k)
    return n - 1 if n > 1 and n_pairs % k == 1 else n


def pairs_per_epoch(n_pairs: int, k: int) -> int:
    n = math.ceil(n_pairs / k)
    return n_pairs - 1 if n > 1 and n_pairs % k == 1 else n_pairs


def check_mine(out: str, stdout: str, inputs: Inputs, facts: dict) -> None:
    rows = _lines(os.path.join(out, "pairs.tsv"))
    seen: set[frozenset] = set()
    for row in rows:
        fields = row.split("\t")
        if len(fields) != 2:
            raise AssertionError(f"pairs.tsv: malformed row {row!r}")
        a, b = fields
        if a == b:
            raise AssertionError(f"pairs.tsv: self-pair {a!r}")
        key = frozenset(fields)
        if key in seen:
            raise AssertionError(f"pairs.tsv: duplicate pair {a!r} / {b!r}")
        seen.add(key)
        for side in fields:
            if side not in inputs.targets:
                raise AssertionError(f"pairs.tsv: {side!r} is not a corpus target")
    match = re.search(r"emitted pairs:\s+(\d+)", stdout)
    if not match or int(match.group(1)) != len(rows):
        raise AssertionError(f"pairs.tsv has {len(rows)} rows; summary says {stdout!r}")
    if not rows:
        raise AssertionError("pairs.tsv is empty")
    facts["pairs"] = len(rows)


def check_train(out: str, stdout: str, inputs: Inputs, facts: dict) -> None:
    rows = _lines(os.path.join(out, "loss.csv"))
    if not rows or rows[0] != "step,epoch,lr,loss":
        raise AssertionError("loss.csv: missing header")
    want = inputs.epochs * batches_per_epoch(facts["pairs"], inputs.batch_size)
    if len(rows) - 1 != want:
        raise AssertionError(f"loss.csv: {len(rows) - 1} steps, expected {want}")
    by_epoch: dict[int, list[float]] = {}
    for row in rows[1:]:
        step, epoch, lr, loss = row.split(",")
        if not (_finite(lr) and _finite(loss)):
            raise AssertionError(f"loss.csv: non-finite value in {row!r}")
        by_epoch.setdefault(int(epoch), []).append(float(loss))
    first = by_epoch[min(by_epoch)]
    last = by_epoch[max(by_epoch)]
    if inputs.loss_must_fall and not sum(last) / len(last) < sum(first) / len(first):
        raise AssertionError("loss.csv: mean loss did not fall from first to last epoch")
    if not os.path.isfile(os.path.join(out, "model.json")):
        raise AssertionError("model.json missing")
    facts["loss_last_epoch"] = sum(last) / len(last)
    facts["pairs_consumed"] = inputs.epochs * pairs_per_epoch(facts["pairs"], inputs.batch_size)


def check_encode(out: str, stdout: str, inputs: Inputs, facts: dict) -> None:
    rows = _lines(os.path.join(out, "emb.tsv"))
    if len(rows) != inputs.encode_count:
        raise AssertionError(f"emb.tsv: {len(rows)} rows for {inputs.encode_count} inputs")
    for row in rows:
        fields = row.split("\t")
        values = fields[-1].split(" ")
        if len(fields) != 2 or len(values) != inputs.output_dim:
            raise AssertionError(f"emb.tsv: expected text and {inputs.output_dim} values")
        if not all(_finite(v) for v in values):
            raise AssertionError("emb.tsv: non-finite value")


def check_eval(out: str, stdout: str, inputs: Inputs, facts: dict) -> None:
    rows = _lines(os.path.join(out, "results.csv"))
    if not rows or rows[0] != "task,metric,value,lambda":
        raise AssertionError("results.csv: missing header")
    if len(rows) - 1 != len(inputs.tasks):
        raise AssertionError(f"results.csv: {len(rows) - 1} rows for {len(inputs.tasks)} tasks")
    values = []
    for row, (name, kind) in zip(rows[1:], inputs.tasks):
        task, metric, value, l2 = row.split(",")
        low, want = (0.0, "accuracy") if kind == "classification" else (-1.0, "spearman")
        if task != name or metric != want:
            raise AssertionError(f"results.csv: row {row!r} for task {name} ({want})")
        if not (_finite(value) and low <= float(value) <= 1.0):
            raise AssertionError(f"results.csv: {want} {value} out of range")
        if float(l2) not in inputs.lambda_grid:
            raise AssertionError(f"results.csv: lambda {l2} not in the grid")
        values.append(float(value))
    facts["eval_score"] = sum(values) / len(values)


CHECKS = {"mine": check_mine, "train": check_train, "encode": check_encode, "eval": check_eval}
NEEDS = {"train": "mine", "encode": "train", "eval": "train"}  # stage -> stage it reads


def _digest(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_stages(report: dict, inputs: Inputs, out: str, facts: dict,
                 reference: dict) -> dict[str, str]:
    """Check each stage of one pipeline; returns failures by stage.

    `facts` collects values read from the outputs (the train check needs the
    pair count found by the mine check). `reference` holds each artifact's
    first digest in the set: every later run of the same seed must match it.
    """
    failures: dict[str, str] = {}
    ran = {s["stage"]: s for s in report["stages"]}
    for stage, check in CHECKS.items():
        result = ran.get(stage)
        if result is None:
            failures[stage] = "not run: an earlier stage failed"
        elif result["exit"] != 0:
            failures[stage] = f"exit {result['exit']}: {result['error'] or ''}".strip()
        elif NEEDS.get(stage) in failures:
            failures[stage] = "inputs failed their checks"
        else:
            try:
                check(out, result["stdout"], inputs, facts)
            except (AssertionError, OSError, ValueError, KeyError) as exc:
                failures[stage] = f"check failed: {exc}"
                continue
            for name in (n for n, s in ARTIFACTS.items() if s == stage):
                digest = _digest(os.path.join(out, name))
                if reference.setdefault(name, digest) != digest:
                    failures[stage] = f"{name} differs from the first run of this seed"
    return failures
