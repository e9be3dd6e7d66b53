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


def welch_ttest(a, b) -> WelchResult:
    """Two-sided Welch t-test with Welch-Satterthwaite degrees of freedom.

    The p-value comes from the regularized incomplete beta function,
    ``p = I_{nu/(nu+t^2)}(nu/2, 1/2)``, evaluated in double precision.
    Each group needs at least two values and nonzero combined variance.
    """
    # Imported here so that loading cueflow does not load scipy.
    from scipy import special

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DataFormatError(
            f"each group needs at least two values, got {a.size} and {b.size}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataFormatError("non-finite values in t-test input")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / a.size + vb / b.size
    if se2 <= 0.0:
        raise DataFormatError("zero variance in both groups; t statistic undefined")
    t_stat = (a.mean() - b.mean()) / math.sqrt(se2)
    dof = se2**2 / ((va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1))
    p = float(special.betainc(dof / 2.0, 0.5, dof / (dof + t_stat**2)))
    return WelchResult(t_stat=float(t_stat), dof=float(dof), p_value=p,
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
