"""The benchmark harness runs on the program as it stands: its per-layer
tracer wraps names the program must keep, and a short run of each gated
workload ends in its JSON result line."""
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", tracer_targets())
def test_traced_name_resolves(module_name, attr, span):
    """A refactor that drops one of these names would turn the span's
    per-layer metric null; it has to fail here instead."""
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def gated_workloads():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", gated_workloads())
def test_harness_prints_a_correct_result(workload):
    """The harness imports the package in-process and reads the run's files;
    a change that breaks either ends the harness before its result line.  The
    traced run also reports every per-layer metric: a traced name that is no
    longer called, or a count it can no longer read, leaves a null there."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [name for name, metric in result["metrics"].items()
               if isinstance(metric["value"], bool)
               or not isinstance(metric["value"], (int, float))
               or not math.isfinite(metric["value"])]
    assert result["metrics"] and not missing, missing
