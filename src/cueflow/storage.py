"""Every cueflow file format, read and written.

Formats (all comma-separated, header row first, lines ending in ``\\n``,
floats written with shortest-round-trip ``repr`` so read-back is lossless):

* Trial, one file per trial, stem ``<scenario>__<trial_id>``:
  ``t,<ch1>,<ch2>,...`` with distinct channel names and at least two rows,
  ``t`` strictly increasing and kept as the recorded clock, jittered or
  not.  An optional ``trials.meta`` of ``key=value`` lines sits beside them.
* TE trace, one file per trial and direction: ``te_raw`` alone, one row per
  embedded sample.  Its instants are not stored: ``pipeline.trace_times``
  rebuilds them bitwise from the trial's ``t0`` in ``manifest.csv`` and the
  run's config.  Nor are the cue mask and events: ``detector.detect_trace``
  rebuilds them bitwise from those instants and this column.
* Events: ``trial,direction,start_t,end_t,peak_te``.
* Grid: ``ix,iy,count`` for nonzero cells, plus a ``<path>.meta`` sidecar of
  ``key=value`` lines (origin_x, origin_y, cell_size_m, nx, ny, direction).
* Histogram: ``bin,t_start,count`` plus a sidecar (bin_dt, n_trials, direction).
* Group report: ``direction,n_a,n_b,t_stat,p_value``.

Every number read from a file is checked once, by the reader that parses
it: a field that is not a number, or a float that is not finite, is a
:class:`DataFormatError` naming the file, the column and the row, rows
counted from 1 after the header with blank lines included.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from .aggregate import CueGrid, CueHistogram, PeakTeReport, WelchResult
from .detector import CueEvent, DetectionTrace
from .errors import CueflowError, DataFormatError
from .timeseries import TimeSeries, Trial, TrialSet

TE_HEADER = ["te_raw"]
EVENTS_HEADER = ["trial", "direction", "start_t", "end_t", "peak_te"]
REPORT_HEADER = ["direction", "n_a", "n_b", "t_stat", "p_value"]
_WRITE_BLOCK_ROWS = 4096


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
    """``key=value`` lines (blank lines skipped) of a sidecar or ``trials.meta``.

    A key given twice is an error naming the file, the line (from 1) and
    the key, not a silent choice of one value.
    """
    with text_errors(path):
        text = Path(path).read_text()
    out: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: malformed line {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in out:
            raise DataFormatError(f"{path}: line {i} repeats key {k!r}")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

@contextmanager
def text_errors(path):
    """Turn a missing or unreadable file, an undecodable byte or a CSV syntax
    error met while reading ``path`` into a :class:`DataFormatError` naming
    the file."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from None


@contextmanager
def write_errors(path):
    """Turn an OSError met while writing ``path`` into a CueflowError naming it."""
    try:
        yield
    except OSError as exc:
        raise CueflowError(f"cannot write {path}: {exc.strerror or exc}") from None


def _read_header(path: Path, fh) -> list[str]:
    """The fields of the header line of ``fh``, open on ``path``."""
    # Lines come from readline, not iteration, so that tell() works after.
    header = next(csv.reader(iter(fh.readline, "")), None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    return header


def read_numeric_csv(path, check_header) -> tuple[object, np.ndarray]:
    """Read a CSV of numbers under one header line.

    ``check_header`` receives the header's fields and raises
    :class:`DataFormatError` if they are wrong.  Returns what it returns and
    the body as a float array of shape ``(rows, len(header))``.  Blank lines are
    skipped, ``#`` is not a comment and quoted numbers are accepted.  Every
    failure is a :class:`DataFormatError` naming the file.  A bad row is
    named by its number, counting from 1 after the header, blank lines
    included; the first value that is not finite by its column and row.
    """
    path = Path(path)
    with text_errors(path), open(path, newline="") as fh:
        header = _read_header(path, fh)
        checked = check_header(header)
        body = fh.tell()
        # loadtxt warns on a body of blank lines only; csv.reader skips them.
        if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
            return checked, np.empty((0, len(header)))
        fh.seek(body)
        try:
            data = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != len(header):
            # loadtxt numbers rows its own way, so find the bad row again.
            fh.seek(body)
            _raise_bad_row(path, csv.reader(iter(fh.readline, "")), len(header))
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataFormatError(f"{path}: {header[col].strip()} value {data[row, col]} at row "
                              f"{file_row(path, int(row))} is not finite")
    return checked, data


def _raise_bad_row(path: Path, rows, n_fields: int) -> NoReturn:
    """Raise for the first of ``rows`` that has the wrong width or a non-number."""
    for i, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) != n_fields:
            raise DataFormatError(
                f"{path}: row {i} has {len(row)} fields, expected {n_fields}"
            )
        try:
            for v in row:
                float(v)
        except ValueError:
            raise DataFormatError(f"{path}: numeric parse error at row {i}") from None
    # float() takes a few spellings numpy's parser does not, such as "1_0".
    raise DataFormatError(f"{path}: a number is not in plain decimal notation")


def file_row(path: Path, index: int) -> int:
    """The row of ``path`` that :func:`read_numeric_csv` parsed as body row
    ``index`` (from 0), numbered as it names rows: from 1 after the header,
    blank lines included."""
    with text_errors(path), open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return next(islice((i for i, row in enumerate(rows, start=1) if row), index, None))


def write_columns_csv(path, header: list[str], columns) -> None:
    """Write ``header``, then row ``i`` of the equal-length 1-D arrays ``columns``.

    The bytes are those ``csv.writer(fh, lineterminator="\\n")`` gives for
    rows of ``repr`` strings (no number needs quoting), so floats read back
    exactly.  Rows are formatted a block at a time, not a whole column's text
    at once.
    """
    with write_errors(path), open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            text = [map(repr, col[lo:lo + _WRITE_BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


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
        _check_header(path, _read_header(path, fh), expected_header)
        out = []
        for i, row in enumerate(csv.reader(fh), start=1):
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
# TE traces
# ---------------------------------------------------------------------------

def write_te_csv(trace: DetectionTrace, path) -> None:
    """Write ``trace.te_raw`` as a TE trace; ``trace.times`` is not stored."""
    write_columns_csv(path, TE_HEADER, [trace.te_raw])


def read_te_csv(path) -> np.ndarray:
    """A TE trace's ``te_raw`` float64 array, as written."""
    _, arr = read_numeric_csv(path, lambda header: _check_header(path, header, TE_HEADER))
    if arr.size == 0:
        raise DataFormatError(f"{path}: no samples")
    return arr[:, 0]


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
            raise DataFormatError(
                f"{path}: row {file_row(path, i)} holds bin {b}, expected {i}")
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
# Trials
# ---------------------------------------------------------------------------

def _median(a: np.ndarray) -> float:
    """``np.median`` of a 1-D float array without NaNs, bitwise, partitioning
    ``a`` in place; np.median copies ``a`` and checks for NaNs with numpy.ma,
    whose import is a large share of a short run's start-up."""
    h = a.size // 2
    if a.size % 2:
        a.partition(h)
        return float(a[h])
    a.partition((h - 1, h))
    return float((a[h - 1] + a[h]) / 2)


def _trial_channels(path: Path, header: list[str]) -> tuple[str, ...]:
    """The channel names of a trial CSV's header ``t,<ch1>,...``, checked."""
    header = [h.strip() for h in header]
    if not header or header[0] != "t":
        raise DataFormatError(f"{path}: first column must be 't', got {header[:1]}")
    if len(header) < 2:
        raise DataFormatError(f"{path}: no data channels in header")
    if len(set(header[1:])) != len(header) - 1:
        raise DataFormatError(f"{path}: duplicate channel names: {tuple(header[1:])}")
    return tuple(header[1:])


def load_csv(path) -> TimeSeries:
    """Load one trial CSV (``t,<ch1>,...``) into a :class:`TimeSeries`.

    Channel names must be distinct and timestamps strictly increasing; a
    bad timestamp is named by its row, counted as :func:`read_numeric_csv`
    counts, which has already refused a value that is not finite.  The ``t``
    column is kept as ``raw_times``, whether or not it lies on a uniform
    grid, and ``dt`` is set to its median successive difference.
    """
    path = Path(path)
    channels, arr = read_numeric_csv(path, lambda header: _trial_channels(path, header))
    if arr.shape[0] < 2:
        raise DataFormatError(f"{path}: need at least two samples")
    # Views of the parsed block, which the series keeps instead of copies;
    # the one temporary column is dropped before the series checks its data.
    t = arr[:, 0]
    diffs = np.diff(t)
    bad = np.flatnonzero(diffs <= 0)
    if bad.size:
        raise DataFormatError(f"{path}: timestamps not strictly increasing at row "
                              f"{file_row(path, int(bad[0]) + 1)}")
    dt = _median(diffs)
    del diffs
    return TimeSeries(channels=channels, data=arr[:, 1:], dt=dt, raw_times=t)


def write_trial_csv(ts: TimeSeries, path) -> None:
    """Write a trial CSV that :func:`load_csv` reads back losslessly."""
    write_columns_csv(path, ["t", *ts.channels], [ts.times, *ts.data.T])


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
    """A trial directory's one channel schema, from its first trial CSV's
    header alone, checked as in :func:`load_csv`."""
    first = _trial_files(path)[0]
    with text_errors(first), open(first, newline="") as fh:
        return _trial_channels(first, _read_header(first, fh))


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
        trials.append(Trial(trial_id=trial_id, scenario=scenario, series=load_csv(f)))
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
