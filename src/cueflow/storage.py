"""CSV wire formats for analysis products.

Formats (all comma-separated, header row first, lines ending in ``\\n``,
floats written with shortest-round-trip ``repr`` so read-back is lossless):

* TE trace, one file per trial and direction: ``t,te_raw``.  The cue mask
  and events are not stored here: ``detector.detect_trace`` rebuilds them
  bitwise from these columns.
* Events: ``trial,direction,start_t,end_t,peak_te``.
* Grid: ``ix,iy,count`` for nonzero cells, plus a ``<path>.meta`` sidecar of
  ``key=value`` lines (origin_x, origin_y, cell_size_m, nx, ny, direction).
* Histogram: ``bin,t_start,count`` plus a sidecar (bin_dt, n_trials, direction).
* Group report: ``direction,n_a,n_b,t_stat,p_value``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .aggregate import CueGrid, CueHistogram, PeakTeReport, WelchResult
from .detector import CueEvent, DetectionTrace
from .errors import DataFormatError
from .timeseries import (Trial, TrialSet, load_csv, read_channels, read_numeric_csv,
                         text_errors, write_columns_csv, write_errors, write_trial_csv)

TE_HEADER = ["t", "te_raw"]
EVENTS_HEADER = ["trial", "direction", "start_t", "end_t", "peak_te"]
REPORT_HEADER = ["direction", "n_a", "n_b", "t_stat", "p_value"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _meta_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta")


def _write_key_values(path, items: dict[str, str]) -> None:
    with write_errors(path), open(path, "w") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in items.items()))


def _read_meta(path) -> dict[str, str]:
    meta = _meta_path(path)
    if not meta.exists():
        raise DataFormatError(f"missing sidecar {meta}")
    return _read_key_values(meta)


def _read_key_values(path) -> dict[str, str]:
    """``key=value`` lines (blank lines skipped) of a sidecar or ``trials.meta``."""
    with text_errors(path):
        text = Path(path).read_text()
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: malformed line {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# ---------------------------------------------------------------------------
# TE traces
# ---------------------------------------------------------------------------

def write_te_csv(trace: DetectionTrace, path) -> None:
    write_columns_csv(path, TE_HEADER, [trace.times, trace.te_raw])


def read_te_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """A TE trace's ``(times, te_raw)`` float64 arrays, as written."""
    _, arr = read_numeric_csv(path, lambda header: _check_header(path, header, TE_HEADER))
    if arr.size == 0:
        raise DataFormatError(f"{path}: no samples")
    return arr[:, 0], arr[:, 1]


def _check_header(path, header: list[str], expected_header: list[str]) -> None:
    if [h.strip() for h in header] != expected_header:
        raise DataFormatError(
            f"{path}: header {header} does not match {expected_header}"
        )


def write_rows(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` through :func:`csv.writer`, each line
    ending in ``\\n``."""
    with write_errors(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, expected_header: list[str], types) -> list[tuple]:
    """Data rows of a CSV, each field converted by its column's entry in ``types``.

    A field that does not convert, or a float that is not finite, is an
    error naming the row, counted as :func:`read_numeric_csv` counts: from
    1 after the header, blank lines included.
    """
    with text_errors(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        _check_header(path, header, expected_header)
        out = []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise DataFormatError(f"{path}: row {i} has {len(row)} fields")
            try:
                values = tuple(convert(v) for convert, v in zip(types, row))
            except ValueError:
                raise DataFormatError(f"{path}: numeric parse error at row {i}") from None
            for name, v in zip(expected_header, values):
                if isinstance(v, float) and not math.isfinite(v):
                    raise DataFormatError(f"{path}: {name} value {v} at row {i} is not finite")
            out.append(values)
    return out


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def write_events_csv(events, path) -> None:
    """``events`` is a sequence of (trial_id, CueEvent)."""
    write_rows(path, EVENTS_HEADER, ([trial_id, ev.direction, _fmt(ev.start_t),
                                      _fmt(ev.end_t), _fmt(ev.peak_te)]
                                     for trial_id, ev in events))


def read_events_csv(path) -> list[tuple[str, CueEvent]]:
    return [(trial_id, CueEvent(start_t=start_t, end_t=end_t, peak_te=peak_te,
                                direction=direction))
            for trial_id, direction, start_t, end_t, peak_te
            in read_rows(path, EVENTS_HEADER, (str, str, float, float, float))]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def write_grid_csv(grid: CueGrid, path) -> None:
    write_rows(path, ["ix", "iy", "count"], ([int(ix), int(iy), int(grid.counts[ix, iy])]
                                             for ix, iy in np.argwhere(grid.counts)))
    _write_key_values(_meta_path(path), {
        "origin_x": _fmt(grid.origin[0]),
        "origin_y": _fmt(grid.origin[1]),
        "cell_size_m": _fmt(grid.cell_size_m),
        "nx": str(grid.counts.shape[0]),
        "ny": str(grid.counts.shape[1]),
        "direction": grid.direction,
    })


def read_grid_csv(path) -> CueGrid:
    meta = _read_meta(path)
    try:
        shape = (int(meta["nx"]), int(meta["ny"]))
        origin = (float(meta["origin_x"]), float(meta["origin_y"]))
        cell = float(meta["cell_size_m"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad sidecar ({exc})") from None
    counts = np.zeros(shape, dtype=int)
    for ix, iy, c in read_rows(path, ["ix", "iy", "count"], (int, int, int)):
        if not (0 <= ix < shape[0] and 0 <= iy < shape[1]):
            raise DataFormatError(f"{path}: cell ({ix}, {iy}) outside {shape}")
        counts[ix, iy] = c
    return CueGrid(origin=origin, cell_size_m=cell, counts=counts,
                   direction=meta.get("direction", ""))


def write_histogram_csv(hist: CueHistogram, path) -> None:
    write_rows(path, ["bin", "t_start", "count"],
               ([i, _fmt(i * hist.bin_dt), int(c)] for i, c in enumerate(hist.counts)))
    _write_key_values(_meta_path(path), {
        "bin_dt": _fmt(hist.bin_dt),
        "n_trials": str(hist.n_trials),
        "direction": hist.direction,
    })


def read_histogram_csv(path) -> CueHistogram:
    meta = _read_meta(path)
    try:
        bin_dt = float(meta["bin_dt"])
        n_trials = int(meta["n_trials"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad sidecar ({exc})") from None
    rows = read_rows(path, ["bin", "t_start", "count"], (int, float, int))
    for i, (b, _, _) in enumerate(rows):
        if b != i:
            raise DataFormatError(f"{path}: row {i + 1} holds bin {b}, expected {i}")
    counts = np.array([c for _, _, c in rows], dtype=int)
    return CueHistogram(bin_dt=bin_dt, counts=counts, n_trials=n_trials,
                        direction=meta.get("direction", ""))


def write_report_csv(report: PeakTeReport, path) -> None:
    write_rows(path, REPORT_HEADER, ([direction, res.n_a, res.n_b, _fmt(res.t_stat),
                                      _fmt(res.p_value)] for direction, res in report.rows))


def read_report_csv(path) -> PeakTeReport:
    rows = read_rows(path, REPORT_HEADER, (str, int, int, float, float))
    return PeakTeReport(rows=tuple(
        (direction, WelchResult(t_stat=t_stat, dof=float("nan"), p_value=p_value,
                                n_a=n_a, n_b=n_b))
        for direction, n_a, n_b, t_stat, p_value in rows))


# ---------------------------------------------------------------------------
# Trial directories
# ---------------------------------------------------------------------------

def _trial_files(path) -> list[Path]:
    """A directory's trial CSVs, in load order: every ``*.csv`` but ``truth.csv``."""
    path = Path(path)
    if not path.is_dir():
        raise DataFormatError(f"{path} is not a directory")
    files = [f for f in sorted(path.glob("*.csv")) if f.name != "truth.csv"]
    if not files:
        raise DataFormatError(f"{path}: no trial CSVs found")
    return files


def trial_dir_channels(path) -> tuple[str, ...]:
    """A trial directory's one channel schema, from its first trial CSV's header alone."""
    return read_channels(_trial_files(path)[0])


def load_trial_dir(path) -> TrialSet:
    """Load every ``*.csv`` in a directory as one trial each.

    File stems of the form ``<scenario>__<trial_id>`` carry a scenario
    label; plain stems get scenario "".  An optional ``trials.meta`` file of
    ``key=value`` lines populates :attr:`TrialSet.metadata`.  ``truth.csv``
    is reserved for the ground-truth table written next to synthetic trials
    and is skipped.
    """
    trials = []
    for f in _trial_files(path):
        stem = f.stem
        scenario, _, trial_id = stem.partition("__")
        if not trial_id:
            scenario, trial_id = "", stem
        trials.append(Trial(trial_id=trial_id, scenario=scenario,
                            series=load_csv(f)))
    meta_file = Path(path) / "trials.meta"
    metadata = _read_key_values(meta_file) if meta_file.exists() else {}
    return TrialSet(trials=tuple(trials), metadata=metadata)


def write_trial_dir(trials: TrialSet, path) -> None:
    """Inverse of :func:`load_trial_dir` (scenario encoded in the file stem)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for trial in trials:
        stem = f"{trial.scenario}__{trial.trial_id}" if trial.scenario else trial.trial_id
        write_trial_csv(trial.series, path / f"{stem}.csv")
    if trials.metadata:
        _write_key_values(path / "trials.meta", trials.metadata)
