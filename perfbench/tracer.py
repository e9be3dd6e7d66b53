"""Run one cueflow CLI command in-process with timing wrappers around each layer.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- run --config ...

Each wrapper is installed where the caller looks the name up (``pipeline``
and ``storage`` bind most of these names at import), records a span (name,
start, end, parent, thread) and the counts the returned object carries, and
leaves the program's own files untouched.  A span opened in a worker thread
with no open span of its own takes the main thread's innermost open span as
its parent, so self time can subtract overlapping children.  Names that no
longer exist are skipped and listed as missing.  Spans are written to
SPANS.json when the command ends; the exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("cueflow.storage", "load_trial_dir", "storage.load_trial_dir"),
    ("cueflow.storage", "load_csv", "timeseries.load_csv"),
    ("cueflow.storage", "write_te_csv", "storage.write_te_csv"),
    ("cueflow.storage", "read_te_csv", "storage.read_te_csv"),
    ("cueflow.pipeline", "resample", "timeseries.resample"),
    ("cueflow.pipeline", "embed", "embedding.embed"),
    # Both model kinds count as one layer, so every workload reaches it.
    ("cueflow.pipeline", "fit_mlp", "models.fit"),
    ("cueflow.pipeline", "fit_var", "models.fit"),
    ("cueflow.pipeline", "predict_dataset", "models.predict_dataset"),
    ("cueflow.pipeline", "local_te", "te.local_te"),
    ("cueflow.pipeline", "detect_trace", "detector.detect_trace"),
    ("cueflow.pipeline", "fit_models", "pipeline.fit_models"),
    ("cueflow.pipeline", "run", "pipeline.run"),
    ("cueflow.pipeline", "write_run_dir", "pipeline.write_run_dir"),
    ("cueflow.pipeline", "build_reports", "pipeline.build_reports"),
    ("cueflow.aggregate", "temporal_histogram", "aggregate.temporal_histogram"),
    ("cueflow.aggregate", "spatial_grid", "aggregate.spatial_grid"),
    ("cueflow.aggregate", "peak_te_study", "aggregate.peak_te_study"),
)


def _counts(name: str, args, result) -> dict:
    """Work counts read from a layer's arguments and returned object."""
    if name == "models.fit":
        return {"n_iter": int(result.train_report.n_iter)}
    if name == "detector.detect_trace":
        return {"events": len(result.events),
                "single_sample": sum(ev.start_t == ev.end_t for ev in result.events)}
    if name == "storage.write_te_csv":
        trace, path = args[0], args[1]
        return {"rows": len(trace.times), "bytes": os.path.getsize(path)}
    return {}


class Recorder:
    def __init__(self):
        self.spans: list[dict | None] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = {"name": name, "start": start, "end": end,
                                   "parent": parent, "thread": threading.get_ident()}
            self.spans[idx].update(_counts(name, args, result))
            return result
        return wrapper


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; return the names that are missing."""
    missing = []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(span, fn))
    return missing


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS.json -- <cueflow arguments>", file=sys.stderr)
        return 1
    spans_path, cli_args = sys.argv[1], sys.argv[3:]
    from cueflow import cli

    recorder = Recorder()
    missing = install(recorder)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"missing": missing, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
