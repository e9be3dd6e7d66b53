"""Cue detector: high-pass filter, adaptive DES threshold, event extraction."""
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cueflow.config import IoConfig, PipelineConfig
from cueflow.detector import (MIN_EVENT_SAMPLES, DetectorConfig, des_threshold,
                              detect_trace, highpass, time_constants)
from cueflow.embedding import EmbeddingSpec
from cueflow.errors import ConfigError, DataFormatError

# What detect_trace takes before its config and sample step, in its argument order.
Series = namedtuple("Series", ["direction", "times", "te_raw"])
# The sample step of every series here.
DT = 0.01


def te_series(values, dt=DT, direction="src2tgt"):
    values = np.asarray(values, dtype=float)
    return Series(direction=direction, times=dt * np.arange(values.size), te_raw=values)


def cfg_100hz(**kw):
    base = dict(alpha=0.01, beta=0.05, gamma=3.0)
    base.update(kw)
    return DetectorConfig(**base)


def pulse_trace(duration_s, dt, spans, noise=None):
    """Zero (or noisy) baseline with rectangular pulses (t0, t1, amp)."""
    n = int(round(duration_s / dt)) + 1
    tt = dt * np.arange(n)
    te = np.zeros(n) if noise is None else noise.copy()
    for t0, t1, amp in spans:
        te += np.where((tt >= t0) & (tt < t1), amp, 0.0)
    return te_series(te, dt=dt)


class TestDetectorConfig:
    def test_rates_must_lie_in_unit_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                cfg_100hz(alpha=bad)
            with pytest.raises(ConfigError):
                cfg_100hz(beta=bad)

    def test_cutoff_must_stay_below_nyquist(self):
        """The rule needs the sample step, so the whole config checks it."""
        io = IoConfig(target_channels=("x",), source_channels=("y",), resample_hz=1 / DT)

        def config(cutoff_hz):
            return PipelineConfig(io=io, embedding=EmbeddingSpec(d=1, delta_s=DT),
                                  detector=cfg_100hz(hp_cutoff_hz=cutoff_hz))

        config(49.0)
        with pytest.raises(ConfigError):
            config(50.0)

    def test_other_validation(self):
        with pytest.raises(ConfigError):
            cfg_100hz(gamma=0.0)
        with pytest.raises(ConfigError):
            cfg_100hz(hp_cutoff_hz=0.0)


class TestTimeConstants:
    def test_inverts_the_exponential_rate(self):
        """alpha = 1 - exp(-dt/tau) must map back to exactly tau."""
        tau_a, tau_b = time_constants(1.0 - np.exp(-0.1 / 1.0),
                                      1.0 - np.exp(-0.1 / 0.25), dt=0.1)
        np.testing.assert_allclose(tau_a, 1.0, rtol=1e-12)
        np.testing.assert_allclose(tau_b, 0.25, rtol=1e-12)

    def test_wrist_tracking_preset(self):
        """115 Hz with alpha=0.005, beta=0.01 smooths over ~1.7 s / ~0.9 s."""
        tau_a, tau_b = time_constants(0.005, 0.01, dt=1.0 / 115.0)
        assert round(tau_a, 1) == 1.7
        assert round(tau_b, 1) == 0.9

    def test_locomotion_preset(self):
        """200 Hz with alpha=0.01, beta=0.05 smooths over ~0.5 s / ~0.1 s."""
        tau_a, tau_b = time_constants(0.01, 0.05, dt=1.0 / 200.0)
        assert round(tau_a, 1) == 0.5
        assert round(tau_b, 1) == 0.1


class TestHighpass:
    def test_constant_input_maps_to_exactly_zero(self):
        out = highpass(np.full(200, 3.7), cutoff_hz=1.0, dt=0.01)
        assert not out.any()

    def test_step_jumps_then_decays_geometrically(self):
        x = np.zeros(200)
        x[100:] = 2.0
        out = highpass(x, cutoff_hz=1.0, dt=0.01)
        rc = 1.0 / (2.0 * np.pi)
        a = rc / (rc + 0.01)
        np.testing.assert_allclose(a, 0.9408826025582511, rtol=0, atol=1e-15)
        assert out[100] == 2.0 * a
        k = np.arange(100)
        np.testing.assert_allclose(out[100:], 2.0 * a * a ** k, rtol=5e-14)
        assert not out[:100].any()

    def test_nonzero_start_is_rebased(self):
        """The filter starts from the first sample, not from zero."""
        out = highpass(np.full(50, -4.0), cutoff_hz=1.0, dt=0.01)
        assert not out.any()

    @pytest.mark.parametrize("cutoff_hz, rate_hz, n", [
        (0.5, 10.0, 1_200), (1.0, 115.0, 5_000), (1.0, 200.0, 24_000),
    ])
    def test_bitwise_equal_to_lfilter(self, cutoff_hz, rate_hz, n):
        """The Python loop is scipy's first-order filter operation for
        operation (scipy serves as the oracle here only)."""
        from scipy.signal import lfilter

        dt = 1.0 / rate_hz
        x = 0.3 + np.random.default_rng(n).standard_normal(n).cumsum() * 0.05
        rc = 1.0 / (2.0 * np.pi * cutoff_hz)
        a = rc / (rc + dt)
        expected = lfilter([a, -a], [1.0, -a], x - x[0])
        out = highpass(x, cutoff_hz=cutoff_hz, dt=dt)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


def des_threshold_reference(t_vals, cfg):
    """The recursion indexed over numpy arrays, one numpy scalar at a time."""
    n = t_vals.size
    mu = np.empty(n)
    b = np.empty(n)
    v = np.empty(n)
    mu[0], b[0], v[0] = t_vals[0], 0.0, 0.0
    a, be = cfg.alpha, cfg.beta
    for t in range(1, n):
        ahead = mu[t - 1] + b[t - 1]
        mu[t] = a * t_vals[t] + (1.0 - a) * ahead
        b[t] = be * (mu[t] - mu[t - 1]) + (1.0 - be) * b[t - 1]
        v[t] = (1.0 - a) * (v[t - 1] + a * (t_vals[t] - ahead) * (t_vals[t] - mu[t - 1]))
    sigma = np.sqrt(np.maximum(v, 0.0))
    threshold = np.empty(n)
    threshold[0] = np.nan
    threshold[1:] = mu[:-1] + cfg.gamma * sigma[:-1]
    return mu, sigma, threshold


class TestDesThreshold:
    def test_bitwise_equal_to_numpy_indexed_loop(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(24_000) * 0.2 + 0.1
        cfg = DetectorConfig(alpha=0.01, beta=0.05, gamma=3.0)
        got = des_threshold(values, cfg)
        for out, ref in zip(got, des_threshold_reference(values, cfg)):
            assert out.tobytes() == ref.tobytes()

    RAMP_MU = np.array([
        0.0, 0.020000000000000004, 0.05760000000000001, 0.11052800000000002,
        0.17665984, 0.2540321152, 0.3408492930560001, 0.4354860494796801,
        0.5364857336290305, 0.6425557662759303, 0.7525606770679314,
        0.8655133921601739, 0.9805652963907643, 1.0969955138474212,
        1.2141997775357984, 1.3316791929357843, 1.4490291413970573,
        1.5659285173381348, 1.6821294477442341, 1.7974476031142288,
    ])
    RAMP_THRESHOLD = np.array([
        np.nan, 0.0, 0.14, 0.2977199700149906, 0.4694102969164125,
        0.645070454166605, 0.818552384258709, 0.9860861385701156,
        1.1454614995016277, 1.2955314759681311, 1.4358859146549314,
        1.5666248919694457, 1.6881957121736086, 1.8012731037770555,
        1.9066701795260137, 2.0052720833814988, 2.0979867929558926,
        2.185709120086038, 2.2692949765989034, 2.34954366970991,
    ])

    def test_ramp_recursion_reproduces_hand_computation(self):
        """Twenty steps of the level/trend/spread recursion on T_t = 0.1 t."""
        cfg = DetectorConfig(alpha=0.2, beta=0.1, gamma=3.0)
        mu, sigma, threshold = des_threshold(0.1 * np.arange(20.0), cfg)
        np.testing.assert_allclose(mu, self.RAMP_MU, rtol=0, atol=1e-12)
        np.testing.assert_allclose(threshold[1:], self.RAMP_THRESHOLD[1:],
                                   rtol=0, atol=1e-12)
        assert np.isnan(threshold[0])
        assert sigma[0] == 0.0

    def test_constant_input_is_a_fixed_point(self):
        mu, sigma, threshold = des_threshold(
            np.full(100, 2.5), DetectorConfig(alpha=0.3, beta=0.2, gamma=3.0))
        np.testing.assert_allclose(mu, 2.5, atol=1e-12)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-12)
        np.testing.assert_allclose(threshold[1:], 2.5, atol=1e-12)

    def test_level_tracks_input_as_alpha_approaches_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        mu, _, _ = des_threshold(
            x, DetectorConfig(alpha=1.0 - 1e-9, beta=0.5, gamma=3.0))
        np.testing.assert_allclose(mu, x, atol=1e-6)


def compared_series(series, cfg):
    """The high-passed TE and the threshold that detect_trace compares."""
    filtered = highpass(series.te_raw, cfg.hp_cutoff_hz, DT)
    return filtered, des_threshold(filtered, cfg)[2]


class TestDetect:
    def test_constant_input_yields_no_events(self):
        for level in (0.0, -1.0, 5.0):
            series = te_series(np.full(500, level))
            assert detect_trace(*series, cfg_100hz(), DT).events == []

    def test_rectangular_pulse_is_localized(self):
        """Amplitude-1 pulse over [2.0, 2.3) s on a zero baseline: exactly one
        event, starting on the pulse onset."""
        series = pulse_trace(6.0, 0.01, [(2.0, 2.3, 1.0)])
        events = detect_trace(*series, cfg_100hz(), DT).events
        assert len(events) == 1
        ev = events[0]
        assert abs(ev.start_t - 2.0) <= 0.1
        assert ev.start_t == 2.0
        assert ev.end_t == pytest.approx(2.06)
        assert ev.peak_te == 1.0
        assert ev.direction == "src2tgt"

    def test_single_sample_crossing_is_no_event(self):
        """A lone one-sample spike on a zero baseline crosses the threshold
        but gives no event; held for two samples it gives one, starting at
        the spike."""
        te = np.zeros(601)
        te[200] = 1.0
        trace = detect_trace(*te_series(te), cfg_100hz(), DT)
        assert trace.cue[200]
        assert trace.events == []
        te[201] = 1.0
        events = detect_trace(*te_series(te), cfg_100hz(), DT).events
        assert len(events) == 1
        assert events[0].start_t == 2.0
        assert events[0].end_t == pytest.approx(2.01)

    def test_sub_threshold_pulses_stay_silent(self):
        """A 0.5-amplitude pulse buried in unit white noise sits below the
        gamma=4 band, so almost every noise seed produces no events at all."""
        n = 401
        tt = 0.01 * np.arange(n)
        base = np.where((tt >= 2.0) & (tt < 2.3), 0.5, 0.0)
        cfg = cfg_100hz(gamma=4.0)
        quiet = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            series = te_series(base + rng.standard_normal(n))
            quiet += len(detect_trace(*series, cfg, DT).events) == 0
        assert quiet >= 18

    def test_event_count_shrinks_as_gamma_grows(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noise = 0.2 * rng.standard_normal(601)
            series = pulse_trace(6.0, 0.01, [(2.0, 2.3, 1.0), (4.0, 4.2, 0.8)],
                                 noise=noise)
            counts = [len(detect_trace(*series, cfg_100hz(gamma=g), DT).events)
                      for g in (1.0, 2.0, 3.0, 4.0, 5.0)]
            assert counts == sorted(counts, reverse=True)

    def test_events_are_disjoint_sorted_and_in_bounds(self):
        cfg = cfg_100hz(gamma=1.5)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            series = te_series(rng.standard_normal(800))
            events = detect_trace(*series, cfg, DT).events
            t_lo, t_hi = series.times[0], series.times[-1]
            prev_end = -np.inf
            for ev in events:
                assert ev.start_t <= ev.end_t
                assert t_lo <= ev.start_t and ev.end_t <= t_hi
                assert ev.start_t > prev_end
                prev_end = ev.end_t

    def test_detection_is_deterministic(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal(500)
        cfg = cfg_100hz(gamma=2.0)
        a = detect_trace(*te_series(values), cfg, DT)
        b = detect_trace(*te_series(values.copy()), cfg, DT)
        for got, want in zip(compared_series(te_series(values), cfg),
                             compared_series(te_series(values.copy()), cfg)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(a.cue, b.cue)
        assert a.events == b.events

    def test_event_times_ignore_a_dc_offset(self):
        """With the raw series positive throughout, adding a constant moves
        only peak heights; the high-pass stage keeps timing unchanged."""
        rng = np.random.default_rng(12)
        raw = 5.0 + 0.5 * np.abs(rng.standard_normal(400))
        raw[200:215] += 3.0
        cfg = cfg_100hz()
        e1 = detect_trace(*te_series(raw), cfg, DT).events
        e2 = detect_trace(*te_series(raw + 100.0), cfg, DT).events
        assert [(e.start_t, e.end_t) for e in e1] == \
               [(e.start_t, e.end_t) for e in e2]
        assert len(e1) > 0

    def test_warmup_events_are_skipped(self):
        """tau_level is ~1 s here, so a pulse at 0.5 s is an init transient;
        the same pulse at 1.5 s is an event."""
        series = pulse_trace(6.0, 0.01, [(0.5, 0.7, 1.0)])
        assert detect_trace(*series, cfg_100hz(), DT).events == []
        later = pulse_trace(6.0, 0.01, [(1.5, 1.7, 1.0)])
        kept = detect_trace(*later, cfg_100hz(), DT).events
        assert len(kept) == 1
        assert kept[0].start_t == 1.5

    def test_trace_carries_aligned_internals(self):
        series = pulse_trace(4.0, 0.01, [(2.0, 2.2, 1.0)])
        trace = detect_trace(*series, cfg_100hz(), DT)
        n = series.te_raw.size
        for arr in (trace.te_raw, *compared_series(series, cfg_100hz()), trace.cue):
            assert arr.shape == (n,)
        np.testing.assert_array_equal(trace.times, series.times)
        assert trace.cue.sum() > 0

    def test_too_short_series_rejected(self):
        with pytest.raises(DataFormatError):
            detect_trace(*te_series(np.array([1.0])), cfg_100hz(), DT)


@st.composite
def te_values(draw):
    """Bounded noise with a few triangular bumps, so that runs of cue samples
    of every length occur."""
    n = draw(st.integers(2, 300))
    values = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, n - 1))
        width = draw(st.integers(1, 30))
        height = draw(st.floats(0.5, 10.0))
        bump = height * (1.0 - np.abs(np.linspace(-1.0, 1.0, width + 2)[1:-1]))
        values[lo:lo + width] += bump[:n - lo]
    return values


def fast_cfg(**kw):
    """Level time constant ~10 samples, so the warm-up rule leaves room."""
    return cfg_100hz(alpha=0.1, beta=0.2, **kw)


# fast_cfg's warm-up, the first level time constant, in whole samples.
WARMUP_SAMPLES = math.ceil(time_constants(0.1, 0.2, DT)[0] / DT)


def past_warmup(values):
    """``values`` after ``WARMUP_SAMPLES`` zeros.  A zero is never a cue
    sample, so every cue run starts past fast_cfg's warm-up."""
    return np.concatenate([np.zeros(WARMUP_SAMPLES), values])


def runs(mask):
    """Maximal runs of True in ``mask`` as [lo, hi) sample ranges."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


class TestDetectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(level=st.floats(-1e6, 1e6), n=st.integers(2, 400),
           gamma=st.floats(0.1, 10.0), cutoff_hz=st.floats(0.05, 49.0))
    def test_constant_input_filters_to_exact_zero(self, level, n, gamma, cutoff_hz):
        series = te_series(np.full(n, level))
        cfg = cfg_100hz(gamma=gamma, hp_cutoff_hz=cutoff_hz)
        trace = detect_trace(*series, cfg, DT)
        assert not highpass(series.te_raw, cfg.hp_cutoff_hz, DT).any()
        assert not trace.cue.any()
        assert trace.events == []

    @settings(max_examples=60, deadline=None)
    @given(values=te_values(), offset=st.floats(-1e3, 1e3))
    def test_high_pass_rejects_a_dc_offset(self, values, offset):
        """Shifting the input by a constant moves the filtered series only by
        rounding of the shifted input."""
        cfg = cfg_100hz()
        plain = highpass(values, cfg.hp_cutoff_hz, DT)
        shifted = highpass(values + offset, cfg.hp_cutoff_hz, DT)
        scale = 10.0 + abs(offset)
        np.testing.assert_allclose(shifted, plain, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(values=te_values(), gammas=st.lists(st.floats(0.1, 10.0), min_size=2,
                                               max_size=2, unique=True).map(sorted))
    def test_a_larger_gamma_only_removes_cue_samples(self, values, gammas):
        """mu and sigma do not depend on gamma and sigma >= 0, so the cue
        mask nests; with every cue run past the warm-up so do the event samples."""
        low, high = (detect_trace(*te_series(past_warmup(values)), fast_cfg(gamma=g), DT)
                     for g in gammas)
        assert not (high.cue & ~low.cue).any()

        def covered(trace):
            idx = [np.flatnonzero((trace.times >= ev.start_t) & (trace.times <= ev.end_t))
                   for ev in trace.events]
            return set(np.concatenate(idx).tolist()) if idx else set()

        assert covered(high) <= covered(low)

    @settings(max_examples=80, deadline=None)
    @given(values=te_values(), gamma=st.floats(0.1, 5.0))
    def test_events_are_maximal_cue_runs_of_min_length(self, values, gamma):
        trace = detect_trace(*te_series(past_warmup(values)), fast_cfg(gamma=gamma), DT)
        by_start = {trace.times[lo]: (lo, hi) for lo, hi in runs(trace.cue)}
        for ev in trace.events:
            lo, hi = by_start[ev.start_t]
            assert hi - lo >= MIN_EVENT_SAMPLES
            assert ev.end_t == trace.times[hi - 1]
            assert trace.cue[lo:hi].all()
            assert (trace.te_raw[lo:hi] > 0).all()
            assert ev.peak_te == trace.te_raw[lo:hi].max()
        assert len(trace.events) == sum(hi - lo >= MIN_EVENT_SAMPLES
                                        for lo, hi in runs(trace.cue))
