"""Multichannel time series, trial collections, and resampling.

A recorded series keeps its timestamps, jittered or not; analysis code
assumes a uniform grid, so every recording is resampled from those
timestamps before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataFormatError

# Items of 8 bytes numpy can index in one array; a longer one is a ValueError.
MAX_ARRAY_ITEMS = np.iinfo(np.intp).max // 8


def grid_times(t0: float, dt: float, k: int | np.ndarray) -> float | np.ndarray:
    """Instants ``k`` (an int or an int array) of the uniform grid from ``t0``
    at step ``dt``: ``t0 + k / rate`` with ``rate = 1 / dt``.

    Every grid instant in cueflow is computed here, so a resampled series
    and its TE traces' rows (``pipeline.trace_times``) share their clock
    bitwise.  For each rate in use (10, 200, 1000 Hz and the like)
    ``1 / (1 / rate)`` is ``rate`` again, so ``k / rate`` is the correctly
    rounded quotient: the instant a decimal stamp such as ``0.6`` reads as,
    where ``k * dt`` would give ``0.6000000000000001``.  At a rate where
    that identity fails (49 Hz) an instant is within 1 ulp of ``k * dt``.
    """
    return np.divide(k, 1.0 / dt) + t0


@dataclass(frozen=True)
class TimeSeries:
    """A block of one or more named channels, sampled at recorded timestamps
    or on the uniform grid of :func:`grid_times`.

    Parameters
    ----------
    channels : tuple of str
        Channel names, one per data column.
    data : ndarray, shape (n, len(channels))
        Sample values; must be finite.
    dt : float
        Nominal sample spacing in seconds (> 0).
    t0 : float or None
        Timestamp of the first sample: ``raw_times[0]`` when those are kept,
        else 0.0 unless given.  A ``t0`` that disagrees with ``raw_times[0]``
        is an error, so a recorded series has one clock.
    raw_times : ndarray or None
        Recorded timestamps, as :func:`storage.load_csv` read them: finite
        and strictly increasing.  When kept they are the series'
        :attr:`times`, so :func:`resample` interpolates from the true sample
        instants; when None the series lies on the uniform grid of
        :func:`grid_times` from ``t0`` at step ``dt``.
    """

    channels: tuple[str, ...]
    data: np.ndarray
    dt: float
    t0: float | None = None
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
        t0 = 0.0 if self.t0 is None else float(self.t0)
        if self.raw_times is not None:
            raw = np.asarray(self.raw_times, dtype=float)
            if raw.shape != (data.shape[0],):
                raise DataFormatError("raw_times length must match data rows")
            bad = np.flatnonzero(~np.isfinite(raw))
            if bad.size:
                raise DataFormatError(f"raw_times value {raw[bad[0]]} at index "
                                      f"{bad[0]} is not finite")
            bad = np.flatnonzero(np.diff(raw) <= 0)
            if bad.size:
                raise DataFormatError(f"raw_times not strictly increasing at index "
                                      f"{bad[0] + 1}")
            if self.t0 is not None and t0 != raw[0]:
                raise DataFormatError(f"t0 = {t0} disagrees with the first recorded "
                                      f"timestamp {raw[0]}")
            t0 = float(raw[0])
            object.__setattr__(self, "raw_times", raw)
        object.__setattr__(self, "t0", t0)
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
        """The recorded timestamps when kept, else the series' grid instants."""
        if self.raw_times is not None:
            return self.raw_times
        return grid_times(self.t0, self.dt, np.arange(self.n_samples))

    @property
    def duration(self) -> float:
        """Span from the first to the last sample, in seconds: the recorded
        span when the timestamps are kept, else the last sample's grid
        offset ``(n_samples - 1) / rate``."""
        if self.raw_times is not None:
            return float(self.raw_times[-1] - self.raw_times[0])
        return float(grid_times(0.0, self.dt, self.n_samples - 1))

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
        return replace(self, channels=tuple(names), data=self.data[:, idx])


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


def resample(ts: TimeSeries, rate_hz: float) -> TimeSeries:
    """Linearly interpolate onto a uniform grid at ``rate_hz``.

    Interpolates from :attr:`TimeSeries.times`, the recorded timestamps of
    a loaded series, at the instants ``t0 + k / rate_hz`` of
    :func:`grid_times`: from the first sample, ``t0``, over the recorded
    span, with no extrapolation beyond the last sample.  A series whose
    timestamps are those instants, such as a recording at ``rate_hz`` from
    ``t0 = 0`` stamped in decimals, comes back with every sample and value
    bitwise, as interpolation at a recorded instant returns its value.
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
    new_dt = 1.0 / rate_hz
    new_t = grid_times(ts.t0, new_dt, np.arange(n_out))
    out = np.column_stack([np.interp(new_t, src_t, ts.data[:, j])
                           for j in range(ts.n_channels)])
    return TimeSeries(channels=ts.channels, data=out, dt=new_dt, t0=ts.t0)


def trim_start(ts: TimeSeries, start_s: float) -> TimeSeries:
    """Drop samples before ``start_s`` (absolute time) and re-base the clock to 0.

    ``ts`` lies on its uniform grid, as :func:`resample` returns it: the
    pipeline trims only resampled series, so recorded timestamps are not kept.
    """
    src_t = ts.times
    keep = src_t >= start_s - 1e-12
    if not keep.any():
        raise DataFormatError(f"trim at {start_s} s leaves no samples")
    return TimeSeries(channels=ts.channels, data=ts.data[keep], dt=ts.dt,
                      t0=float(src_t[keep][0] - start_s))
