"""Local and aggregate transfer entropy from predictive Gaussian pairs.

Transfer entropy here is the entropy a source's history removes from the
target's next sample: the baseline model conditions on target history only,
the full model adds source history, and their per-timestep gap is the local
TE in nats.  Model-based differential entropies make individual values
(and even means, under misspecification) legitimately negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .models import GaussianPredictions

SRC2TGT = "src2tgt"
TGT2SRC = "tgt2src"
DIRECTIONS = (SRC2TGT, TGT2SRC)

ENTROPY_DIFF = "entropy_diff"
LOGLIK_RATIO = "loglik_ratio"
TE_MODES = (ENTROPY_DIFF, LOGLIK_RATIO)

_TIME_ATOL = 1e-9


@dataclass(frozen=True)
class TeSeries:
    """Per-timestep local transfer entropy for one direction, in nats."""

    direction: str
    times: np.ndarray
    te_raw: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise DataFormatError(f"unknown direction {self.direction!r}")
        if self.mode not in TE_MODES:
            raise DataFormatError(f"unknown TE mode {self.mode!r}")
        times = np.asarray(self.times, dtype=float)
        te = np.asarray(self.te_raw, dtype=float)
        if times.shape != te.shape or times.ndim != 1:
            raise DataFormatError("times and te_raw must be equal-length 1-D arrays")
        if times.size == 0:
            raise DataFormatError("TE series must not be empty")
        if not np.isfinite(te).all():
            raise DataFormatError("non-finite local TE values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "te_raw", te)

    def __len__(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self) > 1 else float("nan")


def gaussian_entropy(cov) -> float:
    """Differential entropy of a Gaussian in nats: D/2*(1+ln 2*pi) + ln|Sigma|/2.

    Accepts a scalar variance, a 1-D vector of per-dimension variances, or a
    full covariance matrix.  Non-positive-definite input is rejected.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov[None]
    if cov.ndim == 1:
        if not (np.isfinite(cov).all() and (cov > 0).all()):
            raise DataFormatError("variances must be positive and finite")
        d = cov.size
        logdet = float(np.sum(np.log(cov)))
    elif cov.ndim == 2:
        if cov.shape[0] != cov.shape[1]:
            raise DataFormatError(f"covariance must be square, got {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
            raise DataFormatError("covariance must be symmetric")
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise DataFormatError("covariance must be positive definite")
        d = cov.shape[0]
    else:
        raise DataFormatError(f"covariance must be at most 2-D, got shape {cov.shape}")
    return 0.5 * d * (1.0 + np.log(2.0 * np.pi)) + 0.5 * float(logdet)


def local_te(base: GaussianPredictions, full: GaussianPredictions,
             targets: np.ndarray, mode: str = ENTROPY_DIFF,
             direction: str = SRC2TGT) -> TeSeries:
    """Per-timestep TE from aligned baseline/full prediction runs.

    ``entropy_diff`` is the predictive-entropy gap H_base - H_full; it
    ignores the realized targets.  ``loglik_ratio`` scores the realized
    samples under both models, ln p_full(x_t) - ln p_base(x_t), which
    restores local variation when both models are homoscedastic.
    """
    if mode not in TE_MODES:
        raise DataFormatError(f"unknown TE mode {mode!r}")
    if len(base) != len(full):
        raise DataFormatError(f"prediction runs differ in length: {len(base)} vs {len(full)}")
    if base.dim != full.dim:
        raise DataFormatError("prediction runs differ in dimension")
    if np.max(np.abs(base.times - full.times), initial=0.0) > _TIME_ATOL:
        raise DataFormatError("prediction runs are not time-aligned")
    if mode == ENTROPY_DIFF:
        te = base.entropy() - full.entropy()
    else:
        targets = np.asarray(targets, dtype=float)
        te = full.log_density(targets) - base.log_density(targets)
    return TeSeries(direction=direction, times=base.times.copy(), te_raw=te, mode=mode)


def mean_te(series: TeSeries, window: tuple[float, float] | None = None) -> float:
    """Mean local TE, optionally over the inclusive time window (t_start, t_end)."""
    if window is None:
        return float(np.mean(series.te_raw))
    t_start, t_end = window
    if t_end < t_start:
        raise DataFormatError(f"empty window: ({t_start}, {t_end})")
    mask = (series.times >= t_start - _TIME_ATOL) & (series.times <= t_end + _TIME_ATOL)
    if not mask.any():
        raise DataFormatError(f"window ({t_start}, {t_end}) contains no samples")
    return float(np.mean(series.te_raw[mask]))


def peak_te(series: TeSeries) -> tuple[float, float]:
    """(t_peak, value) of the maximum local TE; ties resolve to the earliest time."""
    i = int(np.argmax(series.te_raw))
    return float(series.times[i]), float(series.te_raw[i])
