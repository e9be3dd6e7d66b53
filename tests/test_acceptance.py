"""Release acceptance suite: one check per criterion, one PASS/FAIL line each.

Each test prints ``CRITERION n: PASS/FAIL - <measurements>`` before asserting,
so a plain ``pytest -s tests/test_acceptance.py`` shows the full scorecard.
Criteria with a stated runtime budget measure and enforce it on the work they
perform (the end-to-end runs are timed where the shared fixtures build them).
"""

import time

import numpy as np

from cueflow import storage
from cueflow.aggregate import (CueGrid, CueHistogram, PeakTeReport,
                               WelchResult, peak_te_study)
from cueflow.detector import DetectorConfig, detect, detect_trace, time_constants
from cueflow.embedding import EmbeddingSpec, embed
from cueflow.models import AUGMENTED, BASELINE, TrainConfig, fit_mlp, fit_var, gradient_check
from cueflow.pipeline import run
from cueflow.synth import te_oracle_var1
from cueflow.te import TeSeries, gaussian_entropy
from cueflow.timeseries import TimeSeries

from conftest import (E2E_CUE_T, E2E_ONSET_TOL, _coupling_spec, _var1_mean_te,
                      var1_trial, var1_trial_set)


def _criterion(n: int, ok: bool, details: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, details


def _te_series(values, dt=0.01):
    values = np.asarray(values, dtype=float)
    return TeSeries(direction="src2tgt", times=dt * np.arange(values.size),
                    te_raw=values, mode="entropy_diff")


def _detector(gamma=3.0):
    return DetectorConfig(alpha=0.01, beta=0.05, dt=0.01, gamma=gamma)


def test_criterion_1_gaussian_entropy():
    """Closed-form Gaussian entropy vs. an eigenvalue-sum route, plus the
    three exact fixed points."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        m = rng.standard_normal((d, d))
        cov = m @ m.T + 1e-3 * np.eye(d)
        ref = (0.5 * d * (1.0 + np.log(2.0 * np.pi))
               + 0.5 * float(np.sum(np.log(np.linalg.eigvalsh(cov)))))
        worst = max(worst, abs(gaussian_entropy(cov) - ref))
    unit = 0.5 * (1.0 + np.log(2.0 * np.pi))
    fixed = max(
        abs(gaussian_entropy(np.eye(1)) - unit),
        abs(gaussian_entropy(np.eye(2)) - 2.0 * unit),
        abs(gaussian_entropy(np.array([[np.exp(-2.0)]])) - (unit - 1.0)),
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and fixed < 1e-12 and elapsed < 1.0
    _criterion(1, ok,
               f"max random-cov error {worst:.2e} (tol 1e-9), "
               f"max fixed-point error {fixed:.2e} (tol 1e-12), "
               f"elapsed {elapsed:.3f} s (< 1 s)")


def test_criterion_2_closed_form_te():
    """Empirical VAR-pipeline TE on a coupled pair vs. the analytic value,
    both directions, plus a coupling sweep."""
    start = time.perf_counter()
    fwd = _var1_mean_te(_coupling_spec(0.5, 100_000, seed=17))
    rev = _var1_mean_te(_coupling_spec(0.5, 100_000, seed=17), reverse=True)
    sweep_err = max(
        abs(_var1_mean_te(_coupling_spec(c, 100_000, seed=17))
            - te_oracle_var1(_coupling_spec(c, 100_000, seed=17)))
        for c in (0.1, 0.3, 0.5, 0.7))
    elapsed = time.perf_counter() - start
    ok = (abs(fwd - 0.11157) < 0.01 and abs(rev) < 0.005
          and sweep_err < 0.01 and elapsed < 30.0)
    _criterion(2, ok,
               f"driven mean TE {fwd:.5f} (0.11157 +/- 0.01), "
               f"reverse {rev:.2e} (0 +/- 0.005), "
               f"sweep max error {sweep_err:.4f} (tol 0.01), "
               f"elapsed {elapsed:.1f} s (< 30 s)")


def test_criterion_3_detector_time_constants():
    """Smoothing constants invert to the documented time constants at both
    published rates (values quoted to one decimal)."""
    cases = [
        (1.0 / 115.0, 0.005, 0.01, 1.7, 0.9),
        (1.0 / 200.0, 0.01, 0.05, 0.5, 0.1),
    ]
    results = []
    ok = True
    for dt, alpha, beta, want_level, want_trend in cases:
        tau_level, tau_trend = time_constants(alpha, beta, dt)
        ok &= (round(tau_level, 1) == want_level
               and round(tau_trend, 1) == want_trend)
        results.append(f"{1/dt:.0f} Hz: level {tau_level:.4f}->{want_level}, "
                       f"trend {tau_trend:.4f}->{want_trend}")
    _criterion(3, ok, "; ".join(results))


def test_criterion_4_detector_properties():
    """DC rejection, pulse localization, threshold-factor monotonicity, and
    sub-threshold quiescence."""
    start = time.perf_counter()
    dc_events = sum(len(detect(_te_series(np.full(400, level)), _detector()))
                    for level in (0.0, -1.0, 5.0))

    tt = 0.01 * np.arange(601)
    pulse = np.where((tt >= 2.0) & (tt < 2.3), 1.0, 0.0)
    events = detect(_te_series(pulse), _detector())
    pulse_ok = len(events) == 1 and abs(events[0].start_t - 2.0) <= 0.1

    mono_ok = True
    base = np.where((tt >= 2.0) & (tt < 2.3), 1.0, 0.0)
    base += np.where((tt >= 4.0) & (tt < 4.2), 0.8, 0.0)
    for seed in range(10):
        noisy = base + 0.2 * np.random.default_rng(seed).standard_normal(601)
        counts = [len(detect(_te_series(noisy), _detector(gamma=g)))
                  for g in (1, 2, 3, 4, 5)]
        mono_ok &= counts == sorted(counts, reverse=True)

    tt4 = 0.01 * np.arange(401)
    weak = np.where((tt4 >= 2.0) & (tt4 < 2.3), 0.5, 0.0)
    quiet = sum(
        1 for seed in range(20)
        if not detect(_te_series(
            weak + np.random.default_rng(seed).standard_normal(401)),
            _detector(gamma=4.0)))
    elapsed = time.perf_counter() - start
    ok = (dc_events == 0 and pulse_ok and mono_ok and quiet >= 18
          and elapsed < 30.0)
    _criterion(4, ok,
               f"DC events {dc_events} (need 0), pulse within 0.1 s: {pulse_ok}, "
               f"monotone over gamma 1..5: {mono_ok}, quiet seeds {quiet}/20 "
               f"(need >= 18), elapsed {elapsed:.1f} s (< 30 s)")


def test_criterion_5_end_to_end_detection(driven_run, null_run):
    """Scripted-cue trials must be caught at the right moment while cue-free
    trials stay quiet."""
    hits = sum(
        1 for r in driven_run.trials
        if any(abs(ev.start_t - E2E_CUE_T) <= E2E_ONSET_TOL
               for ev in r.traces["src2tgt"].events))
    n_driven = len(driven_run.trials)

    false_events = sum(len(r.traces["src2tgt"].events) for r in null_run.trials)
    null_minutes = sum(r.duration_s for r in null_run.trials) / 60.0
    rate = false_events / null_minutes
    elapsed = driven_run.elapsed_s + null_run.elapsed_s
    ok = (hits >= 0.9 * n_driven and rate <= 1.0 and elapsed < 180.0)
    _criterion(5, ok,
               f"onset hits {hits}/{n_driven} (need >= {int(0.9 * n_driven)}), "
               f"null false events {rate:.3f}/min (need <= 1), "
               f"elapsed {elapsed:.0f} s (< 180 s)")


def _peak_trials(rng, n_trials, bump):
    trials = []
    for _ in range(n_trials):
        n = 200
        times = 0.1 * np.arange(n)
        driven = 0.05 * rng.standard_normal(n)
        if bump:
            driven[rng.integers(20, n - 20)] = 1.0 + 0.1 * rng.standard_normal()
        quiet = 0.05 * rng.standard_normal(n)
        trials.append({
            "src2tgt": TeSeries(direction="src2tgt", times=times,
                                te_raw=driven, mode="entropy_diff"),
            "tgt2src": TeSeries(direction="tgt2src", times=times,
                                te_raw=quiet, mode="entropy_diff"),
        })
    return trials


def test_criterion_6_peak_te_study():
    """Group comparison separates an asymmetric coupling in the driven
    direction only, and stays calibrated on null groups."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    report = peak_te_study(_peak_trials(rng, 12, bump=True),
                           _peak_trials(rng, 12, bump=False))
    rows = dict(report.rows)
    p_driven = rows["src2tgt"].p_value
    p_reverse = rows["tgt2src"].p_value

    rng = np.random.default_rng(100)
    null_hits = 0
    for _ in range(20):
        rep = peak_te_study(_peak_trials(rng, 8, bump=False),
                            _peak_trials(rng, 8, bump=False))
        null_hits += dict(rep.rows)["src2tgt"].p_value < 0.05
    elapsed = time.perf_counter() - start
    ok = (p_driven < 0.05 and p_reverse > 0.3 and null_hits <= 2
          and elapsed < 180.0)
    _criterion(6, ok,
               f"driven p {p_driven:.2e} (< 0.05), reverse p {p_reverse:.3f} "
               f"(> 0.3), null hits {null_hits}/20 (<= 2), "
               f"elapsed {elapsed:.1f} s (< 180 s)")


def _coupled_pair(seed, n=10_000):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + 0.5 * y[t - 1] + rng.standard_normal()
    return (TimeSeries(channels=("x",), data=x, dt=1.0),
            TimeSeries(channels=("y",), data=y, dt=1.0))


def test_criterion_7_model_correctness():
    """Gradient check, zero-hidden network vs. closed-form fit, and
    coefficient recovery."""
    grad_err = gradient_check()

    tgt, src = _coupled_pair(seed=13)
    spec = EmbeddingSpec(d=1, delta_s=1.0, dt=1.0)
    ds = embed(tgt, src, spec)
    nll_var = fit_var(ds, AUGMENTED).train_report.final_nll
    nll_mlp = fit_mlp(ds, AUGMENTED, hidden=(), train=TrainConfig()
                      ).train_report.final_nll
    nll_gap = abs(nll_mlp - nll_var) / abs(nll_var)

    rng = np.random.default_rng(7)
    phi_x = np.empty(10_000)
    phi_x[0] = rng.standard_normal()
    for t in range(1, phi_x.size):
        phi_x[t] = 0.9 * phi_x[t - 1] + rng.standard_normal()
    ar = TimeSeries(channels=("x",), data=phi_x, dt=1.0)
    ar_coef = fit_var(embed(ar, ar, spec), BASELINE).params["coef"][0, 0]

    tgt7, src7 = _coupled_pair(seed=7)
    pair_coef = fit_var(embed(tgt7, src7, spec), AUGMENTED).params["coef"][:, 0]
    coef_err = max(abs(ar_coef - 0.9), *np.abs(pair_coef - [0.5, 0.5]))

    ok = grad_err < 1e-4 and nll_gap < 0.01 and coef_err < 0.02
    _criterion(7, ok,
               f"gradient max rel error {grad_err:.2e} (< 1e-4), "
               f"zero-hidden NLL gap {100 * nll_gap:.3f}% (< 1%), "
               f"coefficient error {coef_err:.4f} (< 0.02)")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    """Identical seeds give bitwise-identical pipeline outputs, and every CSV
    format survives a write/read cycle."""
    from cueflow.config import (AggregateConfig, DetectorSettings,
                                EmbeddingConfig, IoConfig, ModelConfig,
                                PipelineConfig)
    cfg = PipelineConfig(
        io=IoConfig(target_channels=("x",), source_channels=("y",),
                    resample_hz=100.0),
        embedding=EmbeddingConfig(d=1, delta_s=0.01),
        model=ModelConfig(kind="mlp_gaussian", hidden=(8,), epochs=30),
        detector=DetectorSettings(alpha=0.01, beta=0.05),
        aggregate=AggregateConfig(bin_dt=1.0),
    )
    trials = var1_trial_set(var1_trial("t000", seed=5, n=600)[0])
    first = run(trials, cfg)
    second = run(trials, cfg)
    bitwise = all(
        np.array_equal(first.trials[0].traces[d].te_raw,
                       second.trials[0].traces[d].te_raw)
        and first.trials[0].traces[d].events == second.trials[0].traces[d].events
        for d in ("src2tgt", "tgt2src"))

    trace = detect_trace(_te_series(
        0.05 * np.random.default_rng(5).standard_normal(400)
        + np.where(np.arange(400) // 100 == 2, 2.0, 0.0)), _detector())
    storage.write_te_csv(trace, tmp_path / "te.csv")
    back = storage.read_te_csv(tmp_path / "te.csv", direction="src2tgt")
    te_err = max(
        float(np.nanmax(np.abs(back.te_raw - trace.te_raw))),
        float(np.nanmax(np.abs(
            np.nan_to_num(back.threshold) - np.nan_to_num(trace.threshold)))))

    hist = CueHistogram(direction="src2tgt", bin_dt=0.5,
                        counts=np.array([1, 0, 3, 2]), n_trials=4)
    storage.write_histogram_csv(hist, tmp_path / "hist.csv")
    hist_back = storage.read_histogram_csv(tmp_path / "hist.csv")
    hist_err = max(abs(hist_back.bin_dt - hist.bin_dt),
                   float(np.max(np.abs(hist_back.counts - hist.counts))))

    grid = CueGrid(direction="src2tgt", cell_size_m=0.5,
                   origin=(1.0, -2.0), counts=np.array([[0, 2], [1, 0]]))
    storage.write_grid_csv(grid, tmp_path / "grid.csv")
    grid_back = storage.read_grid_csv(tmp_path / "grid.csv")
    grid_err = float(np.max(np.abs(grid_back.counts - grid.counts)))

    report = PeakTeReport(rows=(
        ("src2tgt", WelchResult(t_stat=2.5, dof=17.25, p_value=0.022,
                                n_a=10, n_b=10)),))
    storage.write_report_csv(report, tmp_path / "report.csv")
    rep_back = dict(storage.read_report_csv(tmp_path / "report.csv").rows)
    rep_err = max(abs(rep_back["src2tgt"].t_stat - 2.5),
                  abs(rep_back["src2tgt"].p_value - 0.022))

    round_trip_err = max(te_err, hist_err, grid_err, rep_err)
    ok = bitwise and round_trip_err <= 1e-12
    _criterion(8, ok,
               f"bitwise-identical reruns: {bitwise}, "
               f"worst CSV round-trip error {round_trip_err:.2e} (tol 1e-12)")
