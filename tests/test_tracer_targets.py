"""Every function the benchmark tracer wraps must still exist in sentenc.

The tracer skips a missing target without failing the run, so a rename
would otherwise drop that target's spans from the benchmark unnoticed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("metric, module, attr", _tracer_targets())
def test_target_is_callable(metric, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), metric
