"""Delay embedding of target/source series into one regression design block.

A history vector at time t stacks the d past samples
``[x(t - delta), x(t - 2*delta), ..., x(t - d*delta)]``; the current sample
never appears in its own history.  Multichannel rows are concatenated whole,
lag by lag, so channels vary fastest within each lag block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .timeseries import TimeSeries

_LAG_RTOL = 1e-9


@dataclass(frozen=True)
class EmbeddingSpec:
    """Embedding order ``d``, lag spacing ``delta_s`` (s), and sample step ``dt`` (s).

    ``delta_s`` must be an integer multiple of ``dt`` (to 1e-9 relative);
    the integer ratio is exposed as :attr:`stride`.
    """

    d: int
    delta_s: float
    dt: float

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise DataFormatError(f"embedding order d must be a positive integer, got {self.d}")
        if not (np.isfinite(self.delta_s) and self.delta_s > 0):
            raise DataFormatError(f"delta_s must be positive, got {self.delta_s}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise DataFormatError(f"dt must be positive, got {self.dt}")
        stride = round(self.delta_s / self.dt)
        if stride < 1 or abs(stride * self.dt - self.delta_s) > _LAG_RTOL * max(self.delta_s, self.dt):
            raise DataFormatError(
                f"delta_s={self.delta_s} is not an integer multiple of dt={self.dt}"
            )
        object.__setattr__(self, "d", int(self.d))

    @property
    def stride(self) -> int:
        """Lag spacing in samples."""
        return round(self.delta_s / self.dt)

    @property
    def horizon(self) -> int:
        """Samples of history consumed before the first usable row: ``d * stride``."""
        return self.d * self.stride


@dataclass(frozen=True)
class EmbeddedDataset:
    """Aligned regression blocks produced by :func:`embed`.

    targets : (T, Dx) current target samples, column-major
    design : (T, 1 + d*Dx + d*Dy) column-major design block: ones in column
        0 (the intercept), then past target samples (lags delta..d*delta) in
        the next ``target_cols`` columns, then past source samples, same lags
    times : (T,) timestamps of the target rows
    """

    targets: np.ndarray
    design: np.ndarray
    target_cols: int
    times: np.ndarray
    spec: EmbeddingSpec

    def __post_init__(self) -> None:
        n = self.targets.shape[0]
        for name in ("design", "times"):
            if getattr(self, name).shape[0] != n:
                raise DataFormatError(f"{name} rows do not match targets rows")

    @property
    def n_rows(self) -> int:
        return self.targets.shape[0]

    @property
    def joint_hist(self) -> np.ndarray:
        """Target then source history: a column view of :attr:`design`."""
        return self.design[:, 1:]

    @property
    def target_hist(self) -> np.ndarray:
        """Target history: a column view of :attr:`design`."""
        return self.design[:, 1:1 + self.target_cols]


def history_rows(target: TimeSeries, source: TimeSeries, spec: EmbeddingSpec) -> int:
    """Rows one trial's (target, source) pair gives :func:`embed`: ``N - d * stride``.

    Both series must share ``dt`` (1e-9 relative) and length, and be longer
    than ``spec.horizon``; anything else is a :class:`DataFormatError`.
    """
    if abs(target.dt - spec.dt) > _LAG_RTOL * max(target.dt, spec.dt):
        raise DataFormatError(f"target dt={target.dt} does not match spec dt={spec.dt}")
    if abs(source.dt - target.dt) > _LAG_RTOL * max(source.dt, target.dt):
        raise DataFormatError(f"source dt={source.dt} does not match target dt={target.dt}")
    n = target.n_samples
    if source.n_samples != n:
        raise DataFormatError(
            f"target has {n} samples but source has {source.n_samples}"
        )
    if n <= spec.horizon:
        raise DataFormatError(
            f"series too short to embed: need more than {spec.horizon} samples, got {n}"
        )
    return n - spec.horizon


def embed(pairs: list[tuple[TimeSeries, TimeSeries]], spec: EmbeddingSpec,
          channels: tuple[tuple[str, ...], tuple[str, ...]] | None = None) -> EmbeddedDataset:
    """Build aligned (targets, design) blocks from one or more trials'
    ``(target, source)`` series pairs, which share their channel counts.

    ``channels``, a (target names, source names) pair, embeds only those
    channels of each pair's target and source, in that order, read in
    place; by default every channel of both is embedded.  Each pair gives
    :func:`history_rows` rows, stacked in pair order: its first
    ``d * stride`` samples are consumed as history, so no history row
    reaches across two trials.
    """
    rows = [history_rows(target, source, spec) for target, source in pairs]
    if channels is None:
        channels = pairs[0][0].channels, pairs[0][1].channels
    n_tgt, n_src = map(len, channels)
    # Every lag of every channel is written straight into its column of one
    # column-major block, so each column (and the target and source blocks)
    # is contiguous, and only views of the series are taken.
    design = np.empty((sum(rows), 1 + spec.d * (n_tgt + n_src)), order="F")
    targets = np.empty((sum(rows), n_tgt), order="F")
    times = np.empty(sum(rows))
    design[:, 0] = 1.0
    off, lo = spec.horizon, 0
    for (target, source), n_rows in zip(pairs, rows):
        hi = lo + n_rows
        tgt_idx, src_idx = ([series.channel_index(name) for name in names]
                            for series, names in zip((target, source), channels))
        np.concatenate([data[off - j * spec.stride: off - j * spec.stride + n_rows, c, None]
                        for data, idx in ((target.data, tgt_idx), (source.data, src_idx))
                        for j in range(1, spec.d + 1) for c in idx],
                       axis=1, out=design[lo:hi, 1:])
        np.concatenate([target.data[off:, c, None] for c in tgt_idx], axis=1,
                       out=targets[lo:hi])
        # target.times[off:], t0 + k * dt, without its full-length temporaries
        t = times[lo:hi]
        t[:] = np.arange(off, off + n_rows)
        t *= target.dt
        t += target.t0
        lo = hi
    return EmbeddedDataset(targets=targets, design=design, target_cols=spec.d * n_tgt,
                           times=times, spec=spec)
