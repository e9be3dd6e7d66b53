"""Multichannel time series, trial collections, and resampling.

The on-disk trial format is a plain CSV with header ``t,<ch1>,<ch2>,...`` and
strictly increasing timestamps.  A loaded series keeps its recorded
timestamps, jittered or not; analysis code assumes a uniform grid, so every
recording is resampled from those timestamps before use.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import CueflowError, DataFormatError

_WRITE_BLOCK_ROWS = 4096
# Items of 8 bytes numpy can index in one array; a longer one is a ValueError.
MAX_ARRAY_ITEMS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class TimeSeries:
    """A block of one or more named channels, sampled at recorded timestamps
    or on the grid ``t0 + k*dt``.

    Parameters
    ----------
    channels : tuple of str
        Channel names, one per data column.
    data : ndarray, shape (n, len(channels))
        Sample values; must be finite.
    dt : float
        Nominal sample spacing in seconds (> 0).
    t0 : float
        Timestamp of the first sample.
    raw_times : ndarray or None
        Recorded timestamps, as :func:`load_csv` read them.  When kept they
        are the series' :attr:`times`, so :func:`resample` interpolates from
        the true sample instants; when None the series lies on the uniform
        grid ``t0 + k*dt``.
    """

    channels: tuple[str, ...]
    data: np.ndarray
    dt: float
    t0: float = 0.0
    raw_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2:
            raise DataFormatError(f"data must be 2-D, got shape {data.shape}")
        channels = tuple(str(c) for c in self.channels)
        if len(channels) != data.shape[1]:
            raise DataFormatError(
                f"{len(channels)} channel names for {data.shape[1]} data columns"
            )
        if len(set(channels)) != len(channels):
            raise DataFormatError(f"duplicate channel names: {channels}")
        if data.shape[0] < 1:
            raise DataFormatError("time series must hold at least one sample")
        if not np.isfinite(data).all():
            raise DataFormatError("non-finite values in time series data")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise DataFormatError(f"dt must be positive and finite, got {self.dt}")
        if self.raw_times is not None:
            raw = np.asarray(self.raw_times, dtype=float)
            if raw.shape != (data.shape[0],):
                raise DataFormatError("raw_times length must match data rows")
            object.__setattr__(self, "raw_times", raw)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channels", channels)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def times(self) -> np.ndarray:
        """The recorded timestamps when kept, else the grid ``t0 + k*dt``."""
        if self.raw_times is not None:
            return self.raw_times
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def duration(self) -> float:
        """Span from the first to the last sample, in seconds."""
        return self.dt * (self.n_samples - 1)

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise DataFormatError(
                f"unknown channel {name!r}; available: {list(self.channels)}"
            ) from None

    def select(self, names) -> "TimeSeries":
        """Sub-series containing only ``names``, in the given order."""
        idx = [self.channel_index(n) for n in names]
        return TimeSeries(
            channels=tuple(names),
            data=self.data[:, idx],
            dt=self.dt,
            t0=self.t0,
            raw_times=self.raw_times,
        )


@dataclass(frozen=True)
class Trial:
    """One recorded trial: an id, a scenario label, and its time series."""

    trial_id: str
    scenario: str
    series: TimeSeries


@dataclass(frozen=True)
class TrialSet:
    """A collection of trials sharing one channel schema.

    ``metadata`` carries free-form string annotations.  The key
    ``trim_start_s.<trial_id>`` marks an alignment point: the pipeline drops
    everything before that many seconds and re-bases the trial clock there,
    so per-trial histograms line up on the common event.
    """

    trials: tuple[Trial, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        trials = tuple(self.trials)
        ids = [t.trial_id for t in trials]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataFormatError(f"duplicate trial ids: {dupes}")
        schemas = {t.series.channels for t in trials}
        if len(schemas) > 1:
            raise DataFormatError(
                f"trials disagree on channel schema: {sorted(schemas)}"
            )
        object.__setattr__(self, "trials", trials)

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)


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
    failure is a :class:`DataFormatError` naming the file; a bad row is named
    by its number, counting from 1 after the header, blank lines included.
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


def file_row(path: Path, index: int) -> int:
    """The row of ``path`` that :func:`read_numeric_csv` parsed as body row
    ``index`` (from 0), numbered as it names rows: from 1 after the header,
    blank lines included."""
    with text_errors(path), open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return next(islice((i for i, row in enumerate(rows, start=1) if row), index, None))


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


def read_channels(path) -> tuple[str, ...]:
    """A trial CSV's channel names, from its header alone, checked as in :func:`load_csv`."""
    path = Path(path)
    with text_errors(path), open(path, newline="") as fh:
        return _trial_channels(path, _read_header(path, fh))


def load_csv(path) -> TimeSeries:
    """Load one trial CSV (``t,<ch1>,...``) into a :class:`TimeSeries`.

    Channel names must be distinct, timestamps finite and strictly
    increasing, and values finite; a bad timestamp or value is named by its
    row, counted as :func:`read_numeric_csv` counts.  The ``t`` column is
    kept as ``raw_times``, whether or not it lies on a uniform grid, and
    ``dt`` is set to its median successive difference.
    """
    path = Path(path)
    channels, arr = read_numeric_csv(path, lambda header: _trial_channels(path, header))
    if arr.shape[0] < 2:
        raise DataFormatError(f"{path}: need at least two samples")
    # Views of the parsed block, which the series keeps instead of copies.
    # Each temporary below is at most one column, and is dropped before the
    # next is made.
    t, data = arr[:, 0], arr[:, 1:]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        row = int(bad[0])
        raise DataFormatError(
            f"{path}: timestamp {t[row]} at row {file_row(path, row)} is not finite")
    diffs = np.diff(t)
    bad = np.flatnonzero(diffs <= 0)
    if bad.size:
        raise DataFormatError(f"{path}: timestamps not strictly increasing at row "
                              f"{file_row(path, int(bad[0]) + 1)}")
    dt = _median(diffs)
    del diffs
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataFormatError(f"{path}: value {data[row, col]} in channel {channels[col]!r} "
                              f"at row {file_row(path, int(row))} is not finite")
    return TimeSeries(channels=channels, data=data, dt=dt, t0=float(t[0]), raw_times=t)


def write_trial_csv(ts: TimeSeries, path) -> None:
    """Write a trial CSV that :func:`load_csv` reads back losslessly."""
    write_columns_csv(path, ["t", *ts.channels], [ts.times, *ts.data.T])


@contextmanager
def write_errors(path):
    """Turn an OSError met while writing ``path`` into a CueflowError naming it."""
    try:
        yield
    except OSError as exc:
        raise CueflowError(f"cannot write {path}: {exc.strerror or exc}") from None


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


def resample(ts: TimeSeries, rate_hz: float) -> TimeSeries:
    """Linearly interpolate onto a uniform grid at ``rate_hz``.

    Interpolates from :attr:`TimeSeries.times`, the recorded timestamps of
    a loaded series.  The grid ``t0 + k * (1/rate_hz)`` starts at ``t0`` and
    covers the recorded span; no extrapolation beyond the last sample.  A
    series whose timestamps are that grid comes back with every sample and
    value bitwise, as interpolation at a recorded instant returns its value.
    """
    if not (np.isfinite(rate_hz) and rate_hz > 0):
        raise DataFormatError(f"rate_hz must be positive, got {rate_hz}")
    src_t = ts.times
    t_end = float(src_t[-1])
    n_out = np.floor((t_end - ts.t0) * rate_hz + 1e-9) + 1
    if not n_out <= MAX_ARRAY_ITEMS:
        raise DataFormatError(
            f"resample_hz = {rate_hz} gives {n_out:.4g} samples over {t_end - ts.t0} s, "
            "more than a numpy array can index")
    n_out = int(n_out)
    if n_out < 1:
        raise DataFormatError("resample grid is empty")
    new_dt = 1.0 / rate_hz
    new_t = ts.t0 + new_dt * np.arange(n_out)
    out = np.column_stack([np.interp(new_t, src_t, ts.data[:, j])
                           for j in range(ts.n_channels)])
    return TimeSeries(channels=ts.channels, data=out, dt=new_dt, t0=ts.t0)


def trim_start(ts: TimeSeries, start_s: float) -> TimeSeries:
    """Drop samples before ``start_s`` (absolute time) and re-base the clock to 0."""
    src_t = ts.times
    keep = src_t >= start_s - 1e-12
    if not keep.any():
        raise DataFormatError(f"trim at {start_s} s leaves no samples")
    kept_t = src_t[keep] - start_s
    raw = kept_t if ts.raw_times is not None else None
    return TimeSeries(channels=ts.channels, data=ts.data[keep], dt=ts.dt,
                      t0=float(kept_t[0]), raw_times=raw)
