#!/usr/bin/env python3
"""Benchmark of sentenc's mine -> train -> encode -> eval pipeline.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs the four CLI stages
(`sentenc.cli.main`) in one fresh process per pipeline, as many times as fit
in S seconds (at least MIN_PIPELINES), and checks every pipeline's outputs.
With --trace 0 it prints the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it alternates untraced and traced pipelines and prints the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

A pipeline whose outputs fail a check counts its stages as failed ops and
gives no timing. The program is always the one under src/ beside this
directory; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from checks import check_stages

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(HERE, "worker.py")

MIN_PIPELINES = 3
SETUP_PROBES = 3
PIPELINE_TIMEOUT_S = 150
STAGES = ("mine", "train", "encode", "eval")

# One BLAS thread per process and a fixed hash seed keep runs comparable on a
# small shared machine; both are recorded with every result.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _launch(workdir: str, *flags: str) -> tuple[dict, float]:
    """Run one worker process; returns its report and its set-up seconds."""
    report_path = os.path.join(workdir, "report.json")
    env = {**os.environ, **WORKER_ENV}
    env.pop("PYTHONPATH", None)
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, ROOT, workdir, report_path, *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PIPELINE_TIMEOUT_S,
    )
    if proc.returncode != 0 or not os.path.isfile(report_path):
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(report_path)
    if not report["module"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"imported sentenc from {report['module']}, not from {ROOT}/src")
    return report, report["ready"] - launched


def _clear(out: str) -> None:
    for name in os.listdir(out):
        os.remove(os.path.join(out, name))


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one benchmark set; returns the samples that `end_to_end` and
    `per_layer` summarise."""
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = workloads.generate(workload, seed, workdir, scale)
        out = os.path.join(workdir, "out")
        warm, _ = _launch(workdir, "--setup-only")  # compiles .pyc files
        samples = {"env": warm["env"], "inputs": inputs, "pipelines": [],
                   "setup_s": [_launch(workdir, "--setup-only")[1]
                               for _ in range(SETUP_PROBES)],
                   "attempted": 0, "failed": 0, "failures": []}
        reference: dict = {}
        start, last, i = time.monotonic(), 0.0, 0
        while i < MIN_PIPELINES or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            traced = trace and i % 2 == 1
            report, setup = _launch(workdir, *(["--trace"] if traced else []))
            facts: dict = {}
            failures = check_stages(report, inputs, out, facts, reference)
            _clear(out)
            samples["attempted"] += len(STAGES)
            samples["failed"] += len(failures)
            samples["failures"] += [f"pipeline {i} {s}: {m}" for s, m in failures.items()]
            if not failures:
                samples["setup_s"].append(setup)
                samples["pipelines"].append({"traced": traced, "report": report, "facts": facts})
            last = time.monotonic() - began
            i += 1
        return samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another set may still be using it
            os.rmdir(WORK)


def _wall(pipeline: dict) -> float:
    return sum(s["s"] for s in pipeline["report"]["stages"])


def end_to_end(samples: dict) -> dict[str, float]:
    """End-to-end metrics of the untraced pipelines of one set.

    Set-up time and peak RSS are medians. Wall time and stage rates are
    pooled over the set's pipelines (total work over total time): on a
    shared host whose speed flips between levels as neighbours come and go,
    the median of a few pipelines jumps between the levels, while the
    pooled figure moves smoothly.
    """
    runs = [p for p in samples["pipelines"] if not p["traced"]]
    ok_share = 1.0 - samples["failed"] / samples["attempted"]
    if not runs:
        return {"ok_op_share": ok_share}
    inputs = samples["inputs"]
    stage_s = {  # mean seconds per stage run
        stage: sum(p["report"]["stages"][k]["s"] for p in runs) / len(runs)
        for k, stage in enumerate(STAGES)
    }
    facts = runs[0]["facts"]  # identical across pipelines: digests are compared
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": sum(stage_s.values()),
        "mine_lines_per_s": inputs.corpus_lines / stage_s["mine"],
        "train_pairs_per_s": facts["pairs_consumed"] / stage_s["train"],
        "encode_sents_per_s": inputs.encode_count / stage_s["encode"],
        "eval_records_per_s": inputs.eval_records / stage_s["eval"],
        "peak_rss_mb": statistics.median(p["report"]["peak_rss_mb"] for p in runs),
        "train_loss_last_epoch": facts["loss_last_epoch"],
        "eval_score": facts["eval_score"],
        "ok_op_share": ok_share,
    }


def per_layer(samples: dict) -> dict[str, float]:
    """Medians over the traced pipelines, plus the tracing overhead."""
    traced = [p for p in samples["pipelines"] if p["traced"]]
    plain = [p for p in samples["pipelines"] if not p["traced"]]
    out: dict[str, float] = {}
    if not traced:
        return out
    for name in traced[0]["report"]["layers"]:
        out[name] = statistics.median(p["report"]["layers"][name] for p in traced)
    out["trace.traced_wall_s"] = statistics.median(_wall(p) for p in traced)
    if plain:
        out["trace.untraced_wall_s"] = statistics.median(_wall(p) for p in plain)
        out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def _load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        if not os.path.isfile(os.path.join(ROOT, "src", "sentenc", "__init__.py")):
            raise BenchError(f"no sentenc sources under {ROOT}/src")
        samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer(samples) if args.trace else end_to_end(samples)
    runs = [p for p in samples["pipelines"] if p["traced"] == bool(args.trace)]
    traced = sum(p["traced"] for p in samples["pipelines"])
    print("env " + json.dumps(samples["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: of "
          f"{samples['attempted'] // len(STAGES)} pipelines, "
          f"{len(samples['pipelines']) - traced} untraced and {traced} traced passed "
          f"their checks; {len(samples['setup_s'])} set-up samples")
    for line in samples["failures"]:
        print("FAILED " + line)
    absent = sorted({a for p in samples["pipelines"] for a in p["report"].get("absent", [])})
    if absent:
        print("absent from the program, so not measured: " + ", ".join(absent))
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            print(f"  {name:44s} not measured")
            continue
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
        print(f"  {name:44s} {values[name]:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": samples["failed"] == 0 and bool(runs),
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
