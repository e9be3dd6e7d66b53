"""Cue detection on a local-TE series: high-pass, adaptive threshold, events.

The raw TE series is first passed through a discrete first-order high-pass
filter (DC and slow trends carry no cue information), then compared against
a double-exponential-smoothing (Holt) threshold that adapts its level,
trend, and spread estimates online.  Samples where both the raw TE is
positive and the filtered TE exceeds the threshold are cue-positive; a run
of at least :data:`MIN_EVENT_SAMPLES` consecutive cue-positive samples forms
a cue event.  Cues are episodic, so a real flow keeps crossing while the
source change is inside the embedding window, whereas the per-sample jitter
of local TE crosses alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError
from .te import TeSeries

# Shortest run of cue-positive samples that counts as an event.  A count of
# samples rather than seconds, so the rule holds at every sample rate.
MIN_EVENT_SAMPLES = 2


@dataclass(frozen=True)
class DetectorConfig:
    """Smoothing rates, threshold width, high-pass cutoff, and sample step.

    ``skip_warmup`` drops events that begin inside the first level
    time-constant of the series, where the smoother is still initializing.
    """

    alpha: float
    beta: float
    dt: float
    gamma: float = 3.0
    hp_cutoff_hz: float = 1.0
    skip_warmup: bool = True

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not (math.isfinite(self.hp_cutoff_hz) and self.hp_cutoff_hz > 0):
            raise ConfigError(f"hp_cutoff_hz must be positive, got {self.hp_cutoff_hz}")
        nyquist = 0.5 / self.dt
        if self.hp_cutoff_hz >= nyquist:
            raise ConfigError(
                f"hp_cutoff_hz={self.hp_cutoff_hz} must be below Nyquist {nyquist}"
            )


@dataclass(frozen=True)
class CueEvent:
    """A maximal run of cue-positive samples: [start_t, end_t] and its raw-TE peak.

    The run spans at least :data:`MIN_EVENT_SAMPLES` samples, so
    ``end_t > start_t``.
    """

    start_t: float
    end_t: float
    peak_te: float
    direction: str


@dataclass
class DetectionTrace:
    """One direction's sample-aligned detector series and the events found on them.

    The arrays are the columns of a TE trace CSV; the events go to ``events.csv``.
    """

    direction: str
    times: np.ndarray
    te_raw: np.ndarray
    te_filtered: np.ndarray
    threshold: np.ndarray
    cue: np.ndarray
    events: list[CueEvent] = field(default_factory=list)


def time_constants(alpha: float, beta: float, dt: float) -> tuple[float, float]:
    """Equivalent exponential time constants (tau_level, tau_trend) in seconds.

    A smoothing rate r applied every dt decays history like exp(-dt/tau)
    with tau = -dt / ln(1 - r).
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ConfigError("smoothing rates must lie in (0, 1)")
    return -dt / math.log(1.0 - alpha), -dt / math.log(1.0 - beta)


def highpass(series: TeSeries, cutoff_hz: float, dt: float) -> TeSeries:
    """First-order discrete high-pass: y_t = a*(y_{t-1} + x_t - x_{t-1}), y_0 = 0.

    ``a = RC / (RC + dt)`` with ``RC = 1 / (2*pi*cutoff_hz)``.  A constant
    input maps to exactly zero; a unit step jumps to ``a`` and decays
    geometrically.  The cutoff must stay below the Nyquist rate.
    """
    if not (cutoff_hz > 0 and dt > 0):
        raise ConfigError("cutoff_hz and dt must be positive")
    if cutoff_hz >= 0.5 / dt:
        raise ConfigError(f"cutoff_hz={cutoff_hz} must be below Nyquist {0.5 / dt}")
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    a = rc / (rc + dt)
    x = series.te_raw
    # Shifting by x_0 pins y_0 = 0 without altering later differences.  The
    # loop is ``lfilter([a, -a], [1, -a], x - x[0])`` in its transposed
    # direct form, operation for operation, on Python floats.
    y = []
    z = 0.0
    for xn in (x - x[0]).tolist():
        yn = a * xn + z
        z = -a * xn - (-a) * yn
        y.append(yn)
    return TeSeries(direction=series.direction, times=series.times.copy(),
                    te_raw=np.array(y), mode=series.mode)


def des_threshold(series: TeSeries, cfg: DetectorConfig
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holt double-exponential level/trend/spread recursion and its threshold.

    Returns ``(mu, sigma, threshold)`` with ``threshold[t] =
    mu[t-1] + gamma * sigma[t-1]`` (undefined at t=0, stored as NaN).
    The spread recursion is treated as an exponentially weighted variance
    and its square root is used as sigma.  The recursions are standard Holt
    smoothing::

        mu_t = alpha*T_t + (1 - alpha)*(mu_{t-1} + b_{t-1})
        b_t  = beta*(mu_t - mu_{t-1}) + (1 - beta)*b_{t-1}
        v_t  = (1 - alpha)*(v_{t-1} + alpha*(T_t - mu_{t-1} - b_{t-1})*(T_t - mu_{t-1}))

    The published update reads a level gain ``(1 + alpha)`` and a trend that
    differences the observations; it is not run, as it diverges past a few
    time constants.
    """
    t_vals = series.te_raw.tolist()
    a, be = cfg.alpha, cfg.beta
    keep_a, keep_b = 1.0 - a, 1.0 - be
    # Python floats: the same IEEE operations as on numpy scalars, faster.
    mu_p, b_p, v_p = t_vals[0], 0.0, 0.0
    mu, v = [mu_p], [v_p]
    for x in t_vals[1:]:
        ahead = mu_p + b_p
        mu_t = a * x + keep_a * ahead
        b_p = be * (mu_t - mu_p) + keep_b * b_p
        v_p = keep_a * (v_p + a * (x - ahead) * (x - mu_p))
        mu_p = mu_t
        mu.append(mu_t)
        v.append(v_p)
    n = len(t_vals)
    mu, v = np.array(mu), np.array(v)
    sigma = np.sqrt(np.maximum(v, 0.0))
    threshold = np.empty(n)
    threshold[0] = np.nan
    threshold[1:] = mu[:-1] + cfg.gamma * sigma[:-1]
    return mu, sigma, threshold


def detect_trace(series: TeSeries, cfg: DetectorConfig) -> DetectionTrace:
    """Run the full detector and keep the series it compares.

    The cue mask at t requires ``te_raw[t] > 0`` and
    ``te_filtered[t] > threshold[t]``; maximal runs of the mask at least
    :data:`MIN_EVENT_SAMPLES` long become :class:`CueEvent` records whose
    ``peak_te`` is the raw-TE maximum inside the run.  Shorter runs stay in
    the ``cue`` mask but give no event.  With ``skip_warmup`` set, events
    starting inside the first level time-constant are discarded as
    initialization transients.
    """
    if len(series) < 2:
        raise DataFormatError("detector needs at least two samples")
    filtered = highpass(series, cfg.hp_cutoff_hz, cfg.dt)
    _, _, threshold = des_threshold(filtered, cfg)
    with np.errstate(invalid="ignore"):
        mask = (series.te_raw > 0.0) & (filtered.te_raw > threshold)
    events = []
    warmup_end = series.times[0]
    if cfg.skip_warmup:
        warmup_end = series.times[0] + time_constants(cfg.alpha, cfg.beta, cfg.dt)[0]
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    for lo, hi in zip(edges[::2], edges[1::2]):  # [lo, hi) in sample indices
        start_t = float(series.times[lo])
        if hi - lo < MIN_EVENT_SAMPLES or (cfg.skip_warmup and start_t < warmup_end):
            continue
        run = slice(lo, hi)
        events.append(CueEvent(
            start_t=start_t,
            end_t=float(series.times[hi - 1]),
            peak_te=float(np.max(series.te_raw[run])),
            direction=series.direction,
        ))
    return DetectionTrace(
        direction=series.direction,
        times=series.times.copy(),
        te_raw=series.te_raw.copy(),
        te_filtered=filtered.te_raw,
        threshold=threshold,
        cue=mask,
        events=events,
    )


def detect(series: TeSeries, cfg: DetectorConfig) -> list[CueEvent]:
    """Cue events for one TE series (see :func:`detect_trace` for internals)."""
    return detect_trace(series, cfg).events
