"""Cross-trial aggregation: histograms, location grids, Welch peak-TE study."""
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cueflow.aggregate import (_two_sided_p, peak_te_study, spatial_grid,
                               temporal_histogram, welch_ttest)
from cueflow.detector import CueEvent
from cueflow.errors import DataFormatError
from cueflow.timeseries import TimeSeries


def ev(start, end, direction="src2tgt"):
    return CueEvent(start_t=start, end_t=end, peak_te=1.0, direction=direction)


def position_series(xy, dt=0.1):
    return TimeSeries(channels=("px", "py"), data=np.asarray(xy, dtype=float),
                      dt=dt)


class TestTemporalHistogram:
    def test_event_spanning_two_bins(self):
        hist = temporal_histogram([([ev(2.0, 4.0)], 10.0)], bin_dt=1.0)
        np.testing.assert_array_equal(hist.counts,
                                      [0, 0, 1, 1, 0, 0, 0, 0, 0, 0])
        assert hist.n_trials == 1
        assert hist.bin_dt == 1.0

    def test_trial_contributes_at_most_one_per_bin(self):
        events = [ev(2.0, 2.1), ev(2.5, 2.6)]  # both inside bin 2
        hist = temporal_histogram([(events, 5.0)], bin_dt=1.0)
        assert hist.counts[2] == 1

    def test_counts_accumulate_across_trials(self):
        trials = [([ev(2.0, 2.5)], 5.0)] * 3 + [([], 5.0)]
        hist = temporal_histogram(trials, bin_dt=1.0)
        assert hist.counts[2] == 3
        assert hist.n_trials == 4

    def test_instantaneous_event_lands_in_one_bin(self):
        hist = temporal_histogram([([ev(3.0, 3.0)], 5.0)], bin_dt=1.0)
        np.testing.assert_array_equal(hist.counts, [0, 0, 0, 1, 0])

    def test_boundary_ending_event_stops_short(self):
        hist = temporal_histogram([([ev(1.5, 2.0)], 5.0)], bin_dt=1.0)
        np.testing.assert_array_equal(hist.counts, [0, 1, 0, 0, 0])

    def test_bin_count_covers_longest_trial(self):
        hist = temporal_histogram([([], 3.2), ([], 7.5)], bin_dt=1.0)
        assert hist.counts.size == 8

    def test_empty_input_rejected(self):
        with pytest.raises(DataFormatError):
            temporal_histogram([], bin_dt=1.0)

    def test_more_bins_than_an_array_can_index_rejected(self):
        with pytest.raises(DataFormatError, match=r"gives 1e\+300 bins, more than a numpy "
                                                  r"array can index"):
            temporal_histogram([([], 5.0), ([], 1e300)], bin_dt=1.0)

    def test_more_bins_than_memory_holds_rejected(self, monkeypatch):
        """A bin array numpy cannot allocate is the same named error; the
        allocation is made to fail here instead of being tried."""
        zeros = np.zeros

        def failing(shape, *args, **kwargs):
            if np.prod(shape) > 10**9:
                raise MemoryError("no room")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing)
        with pytest.raises(DataFormatError, match=r"gives 1e\+12 bins, more than memory "
                                                  r"can hold"):
            temporal_histogram([([], 1e12)], bin_dt=1.0)


class TestSpatialGrid:
    def test_active_samples_count_into_cells(self):
        """Three samples fall inside the event span, all in one cell: the
        first past the one-cell pad."""
        xy = [[0.1, 0.1], [0.15, 0.12], [0.12, 0.18], [3.0, 3.0]]
        series = position_series(xy)  # samples at t = 0, 0.1, 0.2, 0.3
        grid = spatial_grid([([ev(0.0, 0.2)], series)], cell_size_m=1.0,
                            channels=("px", "py"))
        assert grid.counts.sum() == 3
        assert grid.counts[1, 1] == 3

    def test_boundary_sample_goes_to_the_upper_cell(self):
        """The origin pads the minimum by one cell, (0.0, -0.5) here, so the
        first sample lies on the boundary of cell 1 in x and y."""
        series = position_series([[1.0, 0.5], [9.9, 9.9]])
        grid = spatial_grid([([ev(0.0, 0.0)], series)], cell_size_m=1.0,
                            channels=("px", "py"))
        assert grid.origin == (0.0, -0.5)
        assert grid.counts[1, 1] == 1

    def test_no_events_gives_empty_grid(self):
        series = position_series([[0.5, 0.5], [1.5, 1.5]])
        grid = spatial_grid([([], series)], cell_size_m=1.0,
                            channels=("px", "py"))
        assert grid.counts.sum() == 0

    @pytest.mark.parametrize("cell_size_m", [1e-300, 5e-324])
    def test_grid_too_large_to_index_is_a_data_error(self, cell_size_m):
        """A cell so small that the grid's cell count overflows what numpy
        can index names the setting, with no overflow warning."""
        series = position_series([[0.5, 0.5], [1.5, 1.5]])
        with pytest.raises(DataFormatError, match="cell_size_m = .* more cells than"):
            spatial_grid([([], series)], cell_size_m=cell_size_m, channels=("px", "py"))

    def test_auto_origin_pads_one_cell(self):
        series = position_series([[2.0, 3.0], [4.0, 5.0]])
        grid = spatial_grid([([ev(0.0, 0.1)], series)], cell_size_m=1.0,
                            channels=("px", "py"))
        np.testing.assert_allclose(grid.origin, (1.0, 2.0))
        assert grid.counts.sum() == 2

    def test_trial_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        trials = [([ev(0.0, 1.0)], position_series(rng.uniform(0, 2, (15, 2))))
                  for _ in range(4)]
        a = spatial_grid(trials, cell_size_m=0.5, channels=("px", "py"))
        b = spatial_grid(trials[::-1], cell_size_m=0.5, channels=("px", "py"))
        assert a.origin == b.origin
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_total_count_equals_active_samples(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform(0.0, 4.0, size=(60, 2))
        series = position_series(xy, dt=0.1)
        events = [ev(1.0, 2.0), ev(4.0, 4.5)]
        grid = spatial_grid([(events, series)], cell_size_m=1.0,
                            channels=("px", "py"))
        t = series.times
        active = ((t >= 1.0 - 1e-9) & (t <= 2.0 + 1e-9)) | \
                 ((t >= 4.0 - 1e-9) & (t <= 4.5 + 1e-9))
        assert grid.counts.sum() == active.sum()

    def test_event_outside_position_span_rejected(self):
        series = position_series([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DataFormatError):
            spatial_grid([([ev(0.0, 5.0)], series)], cell_size_m=1.0,
                         channels=("px", "py"))


class TestWelchTtest:
    def test_identical_groups_give_t_zero_p_one(self):
        res = welch_ttest([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
        assert res.t_stat == 0.0
        np.testing.assert_allclose(res.p_value, 1.0, atol=1e-12)

    def test_hand_worked_equal_variance_case(self):
        """Groups 1..5 vs 2..6: classic pooled case, t = -1, dof = 8."""
        res = welch_ttest([1.0, 2.0, 3.0, 4.0, 5.0],
                          [2.0, 3.0, 4.0, 5.0, 6.0])
        np.testing.assert_allclose(res.t_stat, -1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.dof, 8.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.p_value, 0.34659350708733416,
                                   rtol=0, atol=1e-12)
        assert (res.n_a, res.n_b) == (5, 5)

    def test_swapping_groups_negates_t_and_keeps_p(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(10)
        b = 0.5 + rng.standard_normal(12)
        fwd = welch_ttest(a, b)
        rev = welch_ttest(b, a)
        np.testing.assert_allclose(rev.t_stat, -fwd.t_stat, atol=1e-12)
        np.testing.assert_allclose(rev.p_value, fwd.p_value, atol=1e-12)

    def test_false_positive_rate_is_calibrated(self):
        """Under the null the test should reject at roughly its level."""
        rng = np.random.default_rng(0)
        hits = sum(welch_ttest(rng.standard_normal(8),
                               rng.standard_normal(8)).p_value < 0.05
                   for _ in range(2000))
        assert 0.03 <= hits / 2000 <= 0.07

    @settings(max_examples=300, deadline=None)
    @given(dof=st.floats(1.0, 200.0),
           t=st.floats(allow_nan=False, allow_infinity=False))
    def test_p_value_matches_50_digit_reference(self, dof, t):
        """Relative error under 2e-12 wherever p is a normal double, small |t|
        (p near 1) and large |t| (p far in the tail) included."""
        with mpmath.workdps(50):
            nu, tm = mpmath.mpf(dof), mpmath.mpf(t)
            exact = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + tm * tm),
                                   regularized=True)
            if exact >= 1e-300:
                rel = abs((_two_sided_p(t, dof) - exact) / exact)
                assert rel < 2e-12, (dof, t, float(rel))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DataFormatError):
            welch_ttest([1.0], [1.0, 2.0])
        with pytest.raises(DataFormatError):
            welch_ttest([2.0, 2.0, 2.0], [3.0, 3.0])
        with pytest.raises(DataFormatError):
            welch_ttest([1.0, np.nan, 2.0], [1.0, 2.0])

    def test_spread_beyond_a_double_rejected_without_warnings(self):
        """A variance that overflows leaves se^2 and dof non-finite: that is
        an error, not a NaN p-value, and numpy warns about nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="not finite"):
                welch_ttest([1e200, -1e200], [0.0, 1.0])


def te_map(rng, bump):
    """One trial's TE series per direction; the forward one may carry a bump."""
    n = 200
    noise_a = 0.05 * rng.standard_normal(n)
    noise_b = 0.05 * rng.standard_normal(n)
    drv = noise_a.copy()
    if bump > 0:
        drv[rng.integers(20, n - 20)] = bump
    return {"src2tgt": drv, "tgt2src": noise_b}


class TestPeakTeStudy:
    def test_asymmetric_coupling_shows_up_in_one_direction_only(self):
        """Group A carries a peak near 1.0 in the forward direction; both
        groups look alike in reverse.  The study should separate the first
        (p < 0.05) and not the second (p > 0.3)."""
        rng = np.random.default_rng(1)
        group_a = [te_map(rng, bump=1.0 + 0.1 * rng.standard_normal())
                   for _ in range(12)]
        group_b = [te_map(rng, bump=0.0) for _ in range(12)]
        rows = dict(peak_te_study(group_a, group_b).rows)
        assert rows["src2tgt"].p_value < 0.05
        assert rows["tgt2src"].p_value > 0.3
        assert rows["src2tgt"].t_stat > 0

    def test_null_groups_rarely_separate(self):
        rng = np.random.default_rng(100)
        hits = 0
        for _ in range(20):
            a = [te_map(rng, bump=0.0) for _ in range(8)]
            b = [te_map(rng, bump=0.0) for _ in range(8)]
            rows = dict(peak_te_study(a, b).rows)
            hits += rows["src2tgt"].p_value < 0.05
        assert hits <= 2

    def test_only_shared_directions_are_compared(self):
        rng = np.random.default_rng(2)
        a = [{"src2tgt": te_map(rng, 0.0)["src2tgt"]} for _ in range(3)]
        b = [te_map(rng, 0.0) for _ in range(3)]
        report = peak_te_study(a, b)
        assert [d for d, _ in report.rows] == ["src2tgt"]

    def test_no_shared_directions_rejected(self):
        rng = np.random.default_rng(3)
        a = [{"src2tgt": te_map(rng, 0.0)["src2tgt"]} for _ in range(3)]
        b = [{"tgt2src": te_map(rng, 0.0)["tgt2src"]} for _ in range(3)]
        with pytest.raises(DataFormatError):
            peak_te_study(a, b)

    def test_single_trial_groups_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataFormatError):
            peak_te_study([te_map(rng, 1.0)], [te_map(rng, 0.0)])
