"""Cue detection on a local-TE series: high-pass, adaptive threshold, events.

The raw TE series is first passed through a discrete first-order high-pass
filter (DC and slow trends carry no cue information), then compared against
a double-exponential-smoothing (Holt) threshold that adapts its level,
trend, and spread estimates online.  Samples where both the raw TE is
positive and the filtered TE exceeds the threshold are cue-positive; a run
of at least :data:`MIN_EVENT_SAMPLES` consecutive cue-positive samples that
starts after the threshold's warm-up forms a cue event.  Cues are episodic,
so a real flow keeps crossing while the source change is inside the
embedding window, whereas the per-sample jitter of local TE crosses alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

# Shortest run of cue-positive samples that counts as an event.  A count of
# samples rather than seconds, so the rule holds at every sample rate.
MIN_EVENT_SAMPLES = 2


@dataclass(frozen=True)
class DetectorConfig:
    """The ``[detector]`` section: smoothing rates, threshold width and
    high-pass cutoff.

    The level rate also sets the warm-up: :func:`detect_trace` drops every
    event that begins inside the first level time constant of the series,
    where the smoother is still initializing.  The cutoff must also lie
    below the Nyquist rate of the sample step ``1/resample_hz``:
    :class:`~cueflow.config.PipelineConfig` checks that rule, since it needs
    the step.
    """

    alpha: float
    beta: float
    gamma: float = 3.0
    hp_cutoff_hz: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"[detector] {name} must lie in (0, 1), got {v}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"[detector] gamma must be positive, got {self.gamma}")
        if not (math.isfinite(self.hp_cutoff_hz) and self.hp_cutoff_hz > 0):
            raise ConfigError(
                f"[detector] hp_cutoff_hz must be positive, got {self.hp_cutoff_hz}")


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
    """One direction's local TE, its cue mask and the events found on them.

    The in-memory output of :func:`detect_trace`.  A TE trace CSV holds
    ``te_raw`` only, and the events go to ``events.csv``.  ``times`` is
    rebuilt by ``pipeline.trace_times`` from the trial's ``t0`` in
    ``manifest.csv``, the config and the trace's length; then
    ``detect_trace(direction, times, te_raw, cfg, dt)`` on a written trace
    (``storage.read_te_csv``) rebuilds the mask and the events bitwise, as
    :func:`highpass` and :func:`des_threshold` rebuild the filtered TE and
    the threshold, which are not kept either.
    """

    times: np.ndarray
    te_raw: np.ndarray
    cue: np.ndarray
    events: list[CueEvent] = field(default_factory=list)


def time_constants(alpha: float, beta: float, dt: float) -> tuple[float, float]:
    """Equivalent exponential time constants (tau_level, tau_trend) in seconds.

    A smoothing rate r applied every dt decays history like exp(-dt/tau)
    with tau = -dt / ln(1 - r).  The rates lie in (0, 1), as
    :class:`DetectorConfig` checks.
    """
    return -dt / math.log(1.0 - alpha), -dt / math.log(1.0 - beta)


def highpass(te_raw: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    """First-order discrete high-pass: y_t = a*(y_{t-1} + x_t - x_{t-1}), y_0 = 0.

    x is ``te_raw``, and ``a = RC / (RC + dt)`` with ``RC = 1 / (2*pi*cutoff_hz)``.
    A constant input maps to exactly zero; a unit step jumps to ``a`` and
    decays geometrically.  ``cutoff_hz`` is a :class:`DetectorConfig`'s and
    ``dt`` the sample step ``1/resample_hz``; the checked
    :class:`~cueflow.config.PipelineConfig` holding both has them positive,
    and the cutoff below the Nyquist rate.
    """
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    a = rc / (rc + dt)
    # Shifting by x_0 pins y_0 = 0 without altering later differences.  The
    # loop is ``lfilter([a, -a], [1, -a], te_raw - te_raw[0])`` in its
    # transposed direct form, operation for operation, on Python floats.
    y = []
    z = 0.0
    for xn in (te_raw - te_raw[0]).tolist():
        yn = a * xn + z
        z = -a * xn - (-a) * yn
        y.append(yn)
    return np.array(y)


def des_threshold(filtered: np.ndarray, cfg: DetectorConfig
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
    t_vals = filtered.tolist()
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


def detect_trace(direction: str, times: np.ndarray, te_raw: np.ndarray,
                 cfg: DetectorConfig, dt: float) -> DetectionTrace:
    """Run the full detector on the local TE ``te_raw`` sampled at ``times``,
    ``dt`` apart; the returned trace shares both arrays, and its events carry
    ``direction``.

    The cue mask at t requires ``te_raw[t] > 0`` and the :func:`highpass`
    output to exceed its :func:`des_threshold` at t; maximal runs of the
    mask at least :data:`MIN_EVENT_SAMPLES` long become :class:`CueEvent`
    records whose ``peak_te`` is the raw-TE maximum inside the run.
    Shorter runs stay in the ``cue`` mask but give no event, and so do runs
    that start inside the first level time constant (:func:`time_constants`),
    which are initialization transients of the smoother.
    """
    if te_raw.size < 2:
        raise DataFormatError("detector needs at least two samples")
    filtered = highpass(te_raw, cfg.hp_cutoff_hz, dt)
    _, _, threshold = des_threshold(filtered, cfg)
    with np.errstate(invalid="ignore"):
        mask = (te_raw > 0.0) & (filtered > threshold)
    events = []
    warmup_end = times[0] + time_constants(cfg.alpha, cfg.beta, dt)[0]
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    for lo, hi in zip(edges[::2], edges[1::2]):  # [lo, hi) in sample indices
        start_t = float(times[lo])
        if hi - lo < MIN_EVENT_SAMPLES or start_t < warmup_end:
            continue
        run = slice(lo, hi)
        events.append(CueEvent(
            start_t=start_t,
            end_t=float(times[hi - 1]),
            peak_te=float(np.max(te_raw[run])),
            direction=direction,
        ))
    return DetectionTrace(times=times, te_raw=te_raw, cue=mask, events=events)
