"""Synthetic generators with known ground truth, plus the closed-form TE oracle.

Two families:

* :func:`gen_var1` — a coupled first-order vector autoregression whose exact
  transfer entropy follows from its stationary covariance (discrete
  Lyapunov equation).  This is the calibration standard for the model/TE
  stack.
* :func:`gen_cue_scenario` — a leader/follower pair where the leader makes
  smooth heading changes at known cue times and the follower re-orients
  after a delay, with critically damped second-order tracking and additive
  observation noise.  The tracking loop is integrated on a fine internal
  grid and decimated to the requested rate, so the output rate never
  destabilizes the dynamics.  Ground-truth event intervals come back
  alongside the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .timeseries import MAX_ARRAY_ITEMS, TimeSeries

Y_TO_X = "y_to_x"
X_TO_Y = "x_to_y"

_BURN_IN = 1000

# Follower tracking dynamics: critically damped second-order loop.  The
# loop is stiff and the turns brisk so that a response shows up within a
# couple of samples even at a 10 Hz output rate.
_TRACK_OMEGA = 30.0          # rad/s; ~2% settling in ~6/omega s
_SETTLE_S = 6.0 / _TRACK_OMEGA
_TURN_S = 0.15               # leader heading transition duration
_SPEED = 1.0                 # leader/follower cruise speed
_INNER_RATE_HZ = 100.0       # minimum integration rate for the tracking loop


@dataclass(frozen=True)
class Var1Spec:
    """First-order VAR on (x, y): z_t = A z_{t-1} + w_t, w ~ N(0, Q)."""

    a: np.ndarray
    q: np.ndarray
    n: int
    seed: int = 0
    dt: float = 1.0

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if a.shape != (2, 2) or q.shape != (2, 2):
            raise DataFormatError("A and Q must be 2x2")
        if not (np.isfinite(a).all() and np.isfinite(q).all()):
            raise DataFormatError("A and Q must be finite")
        if not np.allclose(q, q.T, rtol=1e-10, atol=1e-12):
            raise DataFormatError("Q must be symmetric")
        if np.any(np.linalg.eigvalsh(q) <= 0):
            raise DataFormatError("Q must be positive definite")
        if np.max(np.abs(np.linalg.eigvals(a))) >= 1.0:
            raise DataFormatError("A must have spectral radius < 1 (stable)")
        if self.n < 2:
            raise DataFormatError(f"n must be at least 2, got {self.n}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise DataFormatError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)


def gen_var1(spec: Var1Spec) -> TimeSeries:
    """Simulate the pair, discarding a 1000-sample burn-in; returns one
    series with channels ``x`` and ``y``, as one trial holds both agents."""
    rng = np.random.default_rng(spec.seed)
    chol = np.linalg.cholesky(spec.q)
    total = spec.n + _BURN_IN
    noise = rng.standard_normal((total, 2)) @ chol.T
    z = np.zeros((total, 2))
    for t in range(1, total):
        z[t] = spec.a @ z[t - 1] + noise[t]
    return TimeSeries(channels=("x", "y"), data=z[_BURN_IN:], dt=spec.dt)


def stationary_cov(spec: Var1Spec) -> np.ndarray:
    """Stationary covariance: the solution of Sigma = A Sigma A' + Q.

    Solved in Kronecker form, ``vec Sigma = (I - A kron A)^-1 vec Q``, which
    for a 2x2 system is a single 4x4 linear solve.
    """
    n = spec.a.shape[0]
    lhs = np.eye(n * n) - np.kron(spec.a, spec.a)
    return np.linalg.solve(lhs, spec.q.ravel()).reshape(n, n)


def te_oracle_var1(spec: Var1Spec, direction: str = Y_TO_X) -> float:
    """Exact one-lag transfer entropy of the stationary process, in nats.

    Conditioning the joint Gaussian of (x_t, z_{t-1}) gives
    ``TE = ln(Var(x_t | x_{t-1}) / Var(x_t | x_{t-1}, y_{t-1})) / 2``
    (roles swapped for the reverse direction); always >= 0.
    """
    if direction not in (Y_TO_X, X_TO_Y):
        raise DataFormatError(f"direction must be {Y_TO_X!r} or {X_TO_Y!r}")
    i = 0 if direction == Y_TO_X else 1
    sig = stationary_cov(spec)
    lag_cov = spec.a @ sig            # Cov(z_t, z_{t-1})
    var_i = sig[i, i]
    c_own = lag_cov[i, i]
    reduced = var_i - c_own**2 / sig[i, i]
    c_joint = lag_cov[i, :]
    full = var_i - c_joint @ np.linalg.solve(sig, c_joint)
    te = 0.5 * math.log(reduced / full)
    return max(te, 0.0)  # clip the ~1e-16 negatives from the linear solves


@dataclass(frozen=True)
class CueScenario:
    """Leader/follower interaction script.

    ``cue_times`` are the leader's heading-change onsets (s); the follower
    begins re-orienting ``response_delay_s`` later.  ``amplitude`` is the
    heading change in radians (alternating sign across cues) and
    ``noise_sigma`` the per-channel observation noise on the follower's
    velocity.  The leader executes its plan exactly.
    """

    duration_s: float
    cue_times: tuple[float, ...]
    response_delay_s: float
    amplitude: float
    noise_sigma: float
    seed: int = 0
    rate_hz: float = 10.0

    def __post_init__(self) -> None:
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise DataFormatError(f"duration_s must be positive, got {self.duration_s}")
        if not (self.rate_hz > 0 and math.isfinite(self.rate_hz)):
            raise DataFormatError(f"rate_hz must be positive, got {self.rate_hz}")
        # gen_cue_scenario's (n - 1) * k + 1 tracking-loop samples, in Python
        # floats, which overflow to inf where the ints would not fit an array.
        n_inner = (float(np.rint(self.duration_s * self.rate_hz))
                   * max(1.0, float(np.rint(_INNER_RATE_HZ / self.rate_hz))) + 1.0)
        if not n_inner <= MAX_ARRAY_ITEMS:
            raise DataFormatError(
                f"duration_s = {self.duration_s} at rate_hz = {self.rate_hz} gives "
                f"{n_inner:.4g} tracking-loop samples, more than a numpy array can index")
        for name in ("response_delay_s", "noise_sigma"):
            if not 0 <= (value := getattr(self, name)) < math.inf:
                raise DataFormatError(f"{name} must be non-negative and finite, got {value}")
        if not math.isfinite(self.amplitude):
            raise DataFormatError(f"amplitude must be finite, got {self.amplitude}")
        cues = tuple(float(c) for c in self.cue_times)
        for c in cues:
            if not 0.0 <= c <= self.duration_s:
                raise DataFormatError(f"cue time {c} outside [0, {self.duration_s}]")
        object.__setattr__(self, "cue_times", cues)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _leader_heading(times: np.ndarray, scenario: CueScenario) -> np.ndarray:
    theta = np.zeros_like(times)
    for k, cue_t in enumerate(scenario.cue_times):
        sign = 1.0 if k % 2 == 0 else -1.0
        theta += sign * scenario.amplitude * _smoothstep((times - cue_t) / _TURN_S)
    return theta


def gen_cue_scenario(scenario: CueScenario
                     ) -> tuple[TimeSeries, TimeSeries, list[tuple[float, float]]]:
    """Simulate the pair; returns (leader, follower, truth_intervals).

    The leader's heading follows smooth steps at the cue times; the
    follower's heading tracks the leader's heading delayed by
    ``response_delay_s`` through a critically damped second-order loop,
    integrated at ``_INNER_RATE_HZ`` or finer and decimated to ``rate_hz``.
    Velocities are unit-speed headings; the follower's observed velocity
    additionally carries white Gaussian noise of ``noise_sigma`` per
    channel.  Truth intervals span ``[cue_t, cue_t + response_delay_s +
    settle]`` where settle is the tracking loop's ~2% settling time.
    """
    dt = 1.0 / scenario.rate_hz
    n = int(round(scenario.duration_s * scenario.rate_hz)) + 1
    k = max(1, int(round(_INNER_RATE_HZ / scenario.rate_hz)))
    dt_in = dt / k
    n_in = (n - 1) * k + 1
    times_in = dt_in * np.arange(n_in)
    rng = np.random.default_rng(scenario.seed)

    theta = _leader_heading(times_in, scenario)
    target = _leader_heading(times_in - scenario.response_delay_s, scenario)

    # The loop runs on Python floats (numpy's float64 arithmetic, bit for bit),
    # read and written through memoryviews: no numpy scalar or list per sample.
    track = np.empty(n_in)
    out = memoryview(track)
    phi = out[0] = target[0].item()
    phi_dot = 0.0
    w = _TRACK_OMEGA
    for t, tgt in enumerate(memoryview(target)[:-1], start=1):
        acc = w * w * (tgt - phi) - 2.0 * w * phi_dot
        phi_dot += acc * dt_in
        phi = phi + phi_dot * dt_in
        out[t] = phi
    theta = theta[::k]
    phi = track[::k]

    leader_v = _SPEED * np.column_stack([np.cos(theta), np.sin(theta)])
    follower_v = _SPEED * np.column_stack([np.cos(phi), np.sin(phi)])
    follower_v = follower_v + scenario.noise_sigma * rng.standard_normal(follower_v.shape)

    leader = TimeSeries(channels=("leader_vx", "leader_vy"), data=leader_v, dt=dt)
    follower = TimeSeries(channels=("follower_vx", "follower_vy"), data=follower_v, dt=dt)
    truth = [(c, min(c + scenario.response_delay_s + _SETTLE_S, scenario.duration_s))
             for c in scenario.cue_times]
    return leader, follower, truth
