"""Delay embedding of target/source series into history matrices.

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

    targets : (T, Dx) current target samples
    joint_hist : (T, d*Dx + d*Dy) past target samples (lags delta..d*delta) in
        the first ``target_cols`` columns, then past source samples, same lags
    times : (T,) timestamps of the target rows
    """

    targets: np.ndarray
    joint_hist: np.ndarray
    target_cols: int
    times: np.ndarray
    spec: EmbeddingSpec

    def __post_init__(self) -> None:
        n = self.targets.shape[0]
        for name in ("joint_hist", "times"):
            if getattr(self, name).shape[0] != n:
                raise DataFormatError(f"{name} rows do not match targets rows")

    @property
    def n_rows(self) -> int:
        return self.targets.shape[0]

    @property
    def target_hist(self) -> np.ndarray:
        """Target history: a column view of :attr:`joint_hist`."""
        return self.joint_hist[:, :self.target_cols]

    @property
    def source_hist(self) -> np.ndarray:
        """Source history: a column view of :attr:`joint_hist`."""
        return self.joint_hist[:, self.target_cols:]


def embed(target: TimeSeries, source: TimeSeries, spec: EmbeddingSpec) -> EmbeddedDataset:
    """Build aligned (targets, joint history) blocks.

    Both series must share ``dt`` (1e-9 relative) and length.  The first
    ``d * stride`` samples are consumed as history, so the output has
    ``N - d * stride`` rows; shorter inputs are an error.
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
    off = spec.horizon
    if n <= off:
        raise DataFormatError(
            f"series too short to embed: need more than {off} samples, got {n}"
        )
    # Each lag block is written straight into its columns of one array.  It
    # is column-major, so the target and source blocks are contiguous too.
    hist = np.empty((n - off, spec.d * (target.n_channels + source.n_channels)), order="F")
    np.concatenate([data[off - j * spec.stride: n - j * spec.stride]
                    for data in (target.data, source.data) for j in range(1, spec.d + 1)],
                   axis=1, out=hist)
    return EmbeddedDataset(targets=target.data[off:], joint_hist=hist,
                           target_cols=spec.d * target.n_channels,
                           times=target.times[off:], spec=spec)
