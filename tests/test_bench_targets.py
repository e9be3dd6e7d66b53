"""The benchmark's per-layer tracer wraps names the program must keep."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
