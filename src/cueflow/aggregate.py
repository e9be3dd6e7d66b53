"""Cross-trial aggregation: cue timing histograms, cue location grids, and
peak-TE group comparisons.

All products are built from per-trial detector/TE outputs; nothing here
re-runs models, so saved outputs regenerate the same aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import CueEvent
from .errors import DataFormatError
from .te import TeSeries, peak_te
from .timeseries import TimeSeries


@dataclass(frozen=True)
class CueHistogram:
    """Per-time-bin count of trials showing at least one cue in that bin."""

    bin_dt: float
    counts: np.ndarray
    n_trials: int
    direction: str

    @property
    def bin_starts(self) -> np.ndarray:
        return self.bin_dt * np.arange(self.counts.size)


@dataclass(frozen=True)
class CueGrid:
    """Cue-active sample counts over a uniform xy grid.

    ``counts[ix, iy]`` covers the square with corner
    ``origin + (ix, iy) * cell_size_m``.
    """

    origin: tuple[float, float]
    cell_size_m: float
    counts: np.ndarray
    direction: str


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test: statistic, degrees of freedom, p."""

    t_stat: float
    dof: float
    p_value: float
    n_a: int
    n_b: int


@dataclass(frozen=True)
class PeakTeReport:
    """One Welch comparison of per-trial peak TE per direction."""

    rows: tuple[tuple[str, WelchResult], ...]  # (direction, result)


def _bins_hit(start: float, end: float, bin_dt: float, n_bins: int) -> range:
    """Bin indices a cue interval [start, end) touches; instants count as points."""
    if end > start:
        lo = int(math.floor(start / bin_dt))
        hi = int(math.ceil(end / bin_dt))  # exclusive; boundary-ending events stop short
    else:
        lo = int(math.floor(start / bin_dt))
        hi = lo + 1
    return range(max(lo, 0), min(hi, n_bins))


def temporal_histogram(trials, bin_dt: float, direction: str = "") -> CueHistogram:
    """Histogram of cue occurrence over trial-relative time.

    ``trials`` is a sequence of ``(events, duration_s)`` pairs; each trial
    contributes at most 1 to any bin however many of its events land there.
    """
    if not (bin_dt > 0 and math.isfinite(bin_dt)):
        raise DataFormatError(f"bin_dt must be positive, got {bin_dt}")
    trials = list(trials)
    if not trials:
        raise DataFormatError("temporal_histogram needs at least one trial")
    durations = [dur for _, dur in trials]
    if min(durations) <= 0:
        raise DataFormatError("trial durations must be positive")
    n_bins = int(math.ceil(max(durations) / bin_dt))
    counts = np.zeros(n_bins, dtype=int)
    for events, duration in trials:
        hit = np.zeros(n_bins, dtype=bool)
        for ev in events:
            if ev.start_t < -1e-9 or ev.end_t > duration + 1e-9:
                raise DataFormatError(
                    f"event [{ev.start_t}, {ev.end_t}] outside trial duration {duration}"
                )
            hit[list(_bins_hit(ev.start_t, ev.end_t, bin_dt, n_bins))] = True
        counts += hit
    return CueHistogram(bin_dt=bin_dt, counts=counts, n_trials=len(trials),
                        direction=direction)


def spatial_grid(trials, cell_size_m: float, channels: tuple[str, str],
                 origin: tuple[float, float] | None = None,
                 shape: tuple[int, int] | None = None,
                 direction: str = "") -> CueGrid:
    """Count cue-active position samples per grid cell.

    ``trials`` is a sequence of ``(events, position_series)`` pairs where the
    series holds the two named planar position channels.  Cells index by
    ``floor((p - origin) / cell_size_m)``.  When ``origin`` is omitted it is
    the componentwise minimum over all input positions padded by one cell,
    and the grid is sized to cover every sample (plus one pad cell per side).
    """
    if not (cell_size_m > 0 and math.isfinite(cell_size_m)):
        raise DataFormatError(f"cell_size_m must be positive, got {cell_size_m}")
    trials = list(trials)
    if not trials:
        raise DataFormatError("spatial_grid needs at least one trial")
    positions = []
    for events, series in trials:
        sub = series.select(channels)
        t = sub.times
        for ev in events:
            if ev.start_t < t[0] - 1e-9 or ev.end_t > t[-1] + 1e-9:
                raise DataFormatError(
                    f"event [{ev.start_t}, {ev.end_t}] outside position span "
                    f"[{t[0]}, {t[-1]}]"
                )
        positions.append((sub.data, t, events))
    all_xy = np.vstack([p for p, _, _ in positions])
    if origin is None:
        origin = tuple(all_xy.min(axis=0) - cell_size_m)
    origin_arr = np.asarray(origin, dtype=float)
    if shape is None:
        span = np.floor((all_xy.max(axis=0) - origin_arr) / cell_size_m).astype(int)
        shape = (int(span[0]) + 2, int(span[1]) + 2)
    counts = np.zeros(shape, dtype=int)
    for xy, t, events in positions:
        active = np.zeros(t.size, dtype=bool)
        for ev in events:
            active |= (t >= ev.start_t - 1e-9) & (t <= ev.end_t + 1e-9)
        cells = np.floor((xy[active] - origin_arr) / cell_size_m).astype(int)
        for ix, iy in cells:
            if 0 <= ix < shape[0] and 0 <= iy < shape[1]:
                counts[ix, iy] += 1
            else:
                raise DataFormatError(
                    f"cue position cell ({ix}, {iy}) falls outside grid {shape}"
                )
    return CueGrid(origin=(float(origin_arr[0]), float(origin_arr[1])),
                   cell_size_m=float(cell_size_m), counts=counts, direction=direction)


# Cap on continued-fraction terms.  Under 80 are needed for any dof up to 1e9;
# a NaN argument runs to the cap and gives NaN.
_CF_MAX_TERMS = 1000
_CF_TINY = 1e-300


def _stirling_tail(x: float) -> float:
    """``lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2)``, accurate for x >= 10."""
    z = 1.0 / (x * x)
    return (1.0 / 12 - z * (1.0 / 360 - z * (1.0 / 1260 - z * (1.0 / 1680 - z / 1188)))) / x


def _log_inv_beta(a: float, b: float) -> float:
    """``ln(Gamma(a + b) / (Gamma(a) Gamma(b)))``.

    For a large argument the three ``lgamma`` terms nearly cancel, so
    ``ln Gamma(big + small) - ln Gamma(big)`` is taken from Stirling's
    series instead, where no large terms cancel.
    """
    small, big = min(a, b), max(a, b)
    if big < 10.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    ratio = ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small) - small
             + _stirling_tail(big + small) - _stirling_tail(big))
    return ratio - math.lgamma(small)


def _betainc_cf(a: float, b: float, x: float, y: float) -> float:
    """``I_x(a, b)`` by its continued fraction (modified Lentz), ``y = 1 - x``.

    Converges fast for ``x < (a + 1) / (a + b + 2)``.
    """
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(_log_inv_beta(a, b) + a * log_x + b * log_y) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        # Even then odd term of the fraction.
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) >= _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) >= _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return front * h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, with ``y = 1 - x`` given exactly.

    Passing ``y`` keeps its relative precision when ``x`` rounds to near 1.
    Past the fraction's convergence point the symmetry ``I_x(a, b) = 1 -
    I_y(b, a)`` is used ("Numerical Recipes" 6.4; DiDonato & Morris,
    Algorithm 708).
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x * (a + b + 2.0) < a + 1.0:
        return _betainc_cf(a, b, x, y)
    return 1.0 - _betainc_cf(b, a, y, x)


def _two_sided_p(t_stat: float, dof: float) -> float:
    """Two-sided Student-t p-value, ``I_{nu/(nu+t^2)}(nu/2, 1/2)``."""
    a = dof / 2.0
    if abs(t_stat) > 1e150:
        # t^2 would overflow and x underflow; to double precision the
        # fraction is 1 and ln x = ln nu - 2 ln|t|.
        log_x = math.log(dof) - 2.0 * math.log(abs(t_stat))
        return math.exp(_log_inv_beta(a, 0.5) + a * log_x) / a
    t2 = t_stat * t_stat
    return _betainc(a, 0.5, dof / (dof + t2), t2 / (dof + t2))


def welch_ttest(a, b) -> WelchResult:
    """Two-sided Welch t-test with Welch-Satterthwaite degrees of freedom.

    The p-value comes from the regularized incomplete beta function,
    ``p = I_{nu/(nu+t^2)}(nu/2, 1/2)``, evaluated in double precision.
    Each group needs at least two values and nonzero combined variance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DataFormatError(
            f"each group needs at least two values, got {a.size} and {b.size}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataFormatError("non-finite values in t-test input")
    # Spreads beyond the range of a double turn se2, t or dof into inf or
    # nan; the check below reports that, so numpy need not warn.
    with np.errstate(all="ignore"):
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se2 = va / a.size + vb / b.size
        if se2 <= 0.0:
            raise DataFormatError("zero variance in both groups; t statistic undefined")
        t_stat = float((a.mean() - b.mean()) / math.sqrt(se2))
        dof = float(se2**2 / ((va / a.size) ** 2 / (a.size - 1)
                              + (vb / b.size) ** 2 / (b.size - 1)))
    if not (math.isfinite(se2) and math.isfinite(t_stat) and math.isfinite(dof)):
        raise DataFormatError(
            f"t-test statistics are not finite (se^2={se2}, t={t_stat}, dof={dof})"
        )
    return WelchResult(t_stat=t_stat, dof=dof, p_value=_two_sided_p(t_stat, dof),
                       n_a=int(a.size), n_b=int(b.size))


def peak_te_study(series_a, series_b) -> PeakTeReport:
    """Welch-compare per-trial peak TE between two analyzed trial groups.

    Each argument is a sequence of per-trial mappings ``direction ->
    TeSeries`` produced under one pipeline configuration.  Directions
    present in both groups are compared; peaks are taken on the raw TE.
    """
    def peaks(group) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for trial in group:
            for direction, series in trial.items():
                if not isinstance(series, TeSeries):
                    raise DataFormatError("peak_te_study expects TeSeries values")
                out.setdefault(direction, []).append(peak_te(series)[1])
        return out

    pa, pb = peaks(series_a), peaks(series_b)
    shared = [d for d in pa if d in pb]
    if not shared:
        raise DataFormatError("no shared directions between groups")
    rows = tuple((d, welch_ttest(pa[d], pb[d])) for d in shared)
    return PeakTeReport(rows=rows)
