#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at a tiny size, once untraced and once traced, and
asserts the structure of layer_map.json: each layer metric is non-zero on
the workloads where the map says the layer works and zero where it says the
layer is idle (the LSTM on mine-wide). A wrapper that patched the wrong
binding records no calls and fails here. Also asserts that every pipeline
passed its output checks and that every end-to-end metric was measured.
Exits 0 when all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SCALE = 0.2


def check_workload(name: str, layer_map: dict, end_to_end: list[str]) -> list[str]:
    samples = run.run(name, seed=1, seconds=0, trace=True, scale=SCALE)
    problems = [f"{name}: {line}" for line in samples["failures"]]
    e2e = run.end_to_end(samples)
    problems += [f"{name}: end-to-end metric {m} not measured" for m in end_to_end if m not in e2e]
    layers = run.per_layer(samples)
    for metric, spec in layer_map.items():
        value = layers.get(metric)
        if value is None:
            problems.append(f"{name}: {metric} not measured")
        elif name in spec["works_on"] and not value > 0:
            problems.append(f"{name}: {metric} is {value}, but the layer should work here")
        elif name in spec.get("idle_on", ()) and value != 0:
            problems.append(f"{name}: {metric} is {value}, but the layer should be idle here")
    return problems


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "layer_map.json"), encoding="utf-8") as handle:
        layer_map = json.load(handle)["layers"]
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = [m["name"] for m in json.load(handle)["end_to_end"]]
    run.MIN_PIPELINES = 2  # one untraced, one traced
    problems = []
    for name in workloads.WORKLOADS:
        found = check_workload(name, layer_map, end_to_end)
        print(f"{name}: {'ok' if not found else f'{len(found)} problems'}", flush=True)
        problems += found
    for line in problems:
        print("  " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
