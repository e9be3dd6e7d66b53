"""Delay embedding of trials into one regression design block.

Each trial is one multichannel series; named channels of it play the
target and the source.  A history vector at time t stacks the d past
samples ``[x(t - delta), x(t - 2*delta), ..., x(t - d*delta)]``; the
current sample never appears in its own history.  Multichannel rows are
concatenated whole, lag by lag, so channels vary fastest within each lag
block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .timeseries import TimeSeries


@dataclass(frozen=True)
class EmbeddingSpec:
    """The ``[embedding]`` section: embedding order ``d`` and lag spacing
    ``delta_s`` (s).

    The spacing is a whole number of samples of the series embedded, which
    are on the step ``1/resample_hz``: :class:`~cueflow.config.PipelineConfig`
    checks the rule, since it needs that step.
    """

    d: int
    delta_s: float

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise ConfigError(
                f"[embedding] embedding order d must be a positive integer, got {self.d}")
        if not (np.isfinite(self.delta_s) and self.delta_s > 0):
            raise ConfigError(f"[embedding] delta_s must be positive, got {self.delta_s}")
        object.__setattr__(self, "d", int(self.d))

    def stride(self, dt: float) -> int:
        """Lag spacing in samples of step ``dt``."""
        return round(self.delta_s / dt)

    def horizon(self, dt: float) -> int:
        """Samples of history consumed before the first usable row: ``d * stride``."""
        return self.d * self.stride(dt)


@dataclass(frozen=True)
class EmbeddedDataset:
    """Aligned regression blocks produced by :func:`embed`.

    targets : (T, Dx) current target samples, column-major
    design : (T, 1 + d*Dx + d*Dy) column-major design block: ones in column
        0 (the intercept), then past target samples (lags delta..d*delta) in
        the next ``target_cols`` columns, then past source samples, same lags
    target_cols : the number of target-history columns, ``d * Dx``

    A row's instant is not stored: ``pipeline.trace_times`` gives it.
    """

    targets: np.ndarray
    design: np.ndarray
    target_cols: int

    @property
    def joint_hist(self) -> np.ndarray:
        """Target then source history: a column view of :attr:`design`."""
        return self.design[:, 1:]

    @property
    def target_hist(self) -> np.ndarray:
        """Target history: a column view of :attr:`design`."""
        return self.design[:, 1:1 + self.target_cols]


def embed(series: list[TimeSeries], spec: EmbeddingSpec,
          channels: tuple[tuple[str, ...], tuple[str, ...]]) -> EmbeddedDataset:
    """Build aligned (targets, design) blocks from one series per trial.

    ``channels`` is the (target names, source names) pair: those channels
    of each series, in that order, are read in place as the target and the
    source.  The lags are whole samples of each series' own step ``dt``,
    and each series is longer than ``spec.horizon(dt)``:
    ``pipeline.prepare_trials`` resamples every trial to ``1/resample_hz``,
    of which ``delta_s`` is a checked multiple, and names one too short to
    embed.  A series of ``N`` samples gives ``N - d * stride`` rows, stacked
    in series order: its first ``d * stride`` samples are consumed as
    history, so no history row reaches across two trials.
    """
    rows = [ts.n_samples - spec.horizon(ts.dt) for ts in series]
    n_tgt, n_src = map(len, channels)
    # Every lag of every channel is written straight into its column of one
    # column-major block, so each column (and the target and source blocks)
    # is contiguous, and only views of the series are taken.
    design = np.empty((sum(rows), 1 + spec.d * (n_tgt + n_src)), order="F")
    targets = np.empty((sum(rows), n_tgt), order="F")
    design[:, 0] = 1.0
    lo = 0
    for ts, n_rows in zip(series, rows):
        hi, stride = lo + n_rows, spec.stride(ts.dt)
        off = spec.d * stride
        tgt_idx, src_idx = ([ts.channel_index(name) for name in names] for names in channels)
        np.concatenate([ts.data[off - j * stride: off - j * stride + n_rows, c, None]
                        for idx in (tgt_idx, src_idx)
                        for j in range(1, spec.d + 1) for c in idx],
                       axis=1, out=design[lo:hi, 1:])
        np.concatenate([ts.data[off:, c, None] for c in tgt_idx], axis=1,
                       out=targets[lo:hi])
        lo = hi
    return EmbeddedDataset(targets=targets, design=design, target_cols=spec.d * n_tgt)
