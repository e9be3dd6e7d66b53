"""Tests for pipeline orchestration: validation, runs, and run-dir products."""

import re
from dataclasses import replace

import numpy as np
import pytest

from cueflow import pipeline, storage
from cueflow.config import AggregateConfig, IoConfig, ModelConfig, PipelineConfig
from cueflow.detector import DetectorConfig
from cueflow.embedding import EmbeddingSpec, embed
from cueflow.errors import ConfigError, PipelineError
from cueflow.pipeline import (
    build_reports,
    fit_models,
    prepare_trials,
    run,
    trace_times,
    validate_config,
)
from cueflow.synth import CueScenario, te_oracle_var1
from cueflow.storage import read_numeric_csv
from cueflow.timeseries import TrialSet, resample

from conftest import (E2E_CUE_T, E2E_RATE_HZ, _cue_trial, _e2e_config,
                      run_read_back, var1_trial, var1_trial_set, write_decimal_trial)


def positions(trials, cfg):
    """The prepared series of ``trials`` by trial id, as ``report --trials``
    builds its grid positions."""
    return {trial.trial_id: trial.series for trial in prepare_trials(trials, cfg)}


def make_config(*, directions="both", d=1, delta_s=0.01, resample_hz=100.0,
                model=None, detector=None, aggregate=None, seed=0):
    return PipelineConfig(
        io=IoConfig(target_channels=("x",), source_channels=("y",),
                    resample_hz=resample_hz, directions=directions, seed=seed),
        embedding=EmbeddingSpec(d=d, delta_s=delta_s),
        model=ModelConfig(**(model or {})),
        detector=DetectorConfig(**(detector or dict(alpha=0.01, beta=0.05))),
        aggregate=AggregateConfig(**(aggregate or {})),
    )


class TestValidateConfig:
    def test_clean_config_reports_only_time_constants(self):
        cfg = make_config(resample_hz=200.0, delta_s=0.1, d=4,
                          model=dict(te_mode="loglik_ratio"))
        diags = validate_config(cfg)
        assert [d.severity for d in diags] == ["info"]
        assert "threshold level time constant 0.4975 s" in diags[0].message
        assert "trend time constant 0.09748 s" in diags[0].message

    def test_cutoff_at_nyquist_is_an_error(self):
        """A broken rule is an error when the config is built, so no config
        that validate_config sees breaks one."""
        with pytest.raises(ConfigError, match=r"\[detector\] .*Nyquist"):
            make_config(resample_hz=2.0, delta_s=0.5,
                        detector=dict(alpha=0.01, beta=0.05, hp_cutoff_hz=1.0))

    def test_off_grid_embedding_step_is_an_error(self):
        # 0.1 s is not a whole number of 1/115 s samples.
        with pytest.raises(ConfigError, match=r"\[embedding\] .*not an integer multiple"):
            make_config(resample_hz=115.0, delta_s=0.1)

    def test_sluggish_trend_smoother_warns(self):
        cfg = make_config(detector=dict(alpha=0.05, beta=0.005))
        warnings = [d for d in validate_config(cfg) if d.severity == "warning"]
        assert any("adapts more slowly" in d.message for d in warnings)

    @pytest.mark.parametrize("aggregate", [dict(cell_size_m=0.5),
                                           dict(position_channels=("x", "y"))])
    def test_a_half_set_spatial_grid_is_an_error(self, aggregate):
        """Either key alone asks for a grid that cannot be built, so the
        config is refused when built instead of running without one."""
        with pytest.raises(ConfigError, match=re.escape(
                "[aggregate] cell_size_m and position_channels must be set together")):
            make_config(aggregate=aggregate)

    def test_out_of_range_smoothing_is_an_error(self):
        with pytest.raises(ConfigError, match=re.escape("[detector] alpha must lie in (0, 1)")):
            make_config(detector=dict(alpha=1.5, beta=0.05),
                        model=dict(te_mode="loglik_ratio"))

    @pytest.mark.parametrize("kind, te_mode, warns", [
        ("var_linear", "entropy_diff", True),
        ("var_linear", "loglik_ratio", False),
        ("mlp_gaussian", "entropy_diff", False),
    ])
    def test_linear_entropy_diff_warns_of_a_constant_trace(self, kind, te_mode, warns):
        cfg = make_config(model=dict(kind=kind, te_mode=te_mode))
        diags = validate_config(cfg)
        assert "error" not in {d.severity for d in diags}
        warned = [d for d in diags
                  if d.severity == "warning" and "constant TE trace" in d.message]
        assert len(warned) == int(warns)


class TestRunOnCoupledVar:
    def test_mean_te_matches_closed_form(self, tmp_path):
        """A long coupled AR pair recovers the analytic TE in the driven
        direction and stays near zero in the reverse one."""
        trial, spec = var1_trial("t000", seed=0, n=100_000)
        cfg = make_config(model=dict(te_mode="entropy_diff"))
        _, traces = run_read_back(var1_trial_set(trial), cfg, tmp_path)
        fwd = float(np.mean(traces[0]["src2tgt"].te_raw))
        rev = float(np.mean(traces[0]["tgt2src"].te_raw))
        oracle = te_oracle_var1(spec)
        assert abs(fwd - oracle) < 0.01
        assert abs(rev) < 0.005

    def test_swapping_roles_swaps_directions_exactly(self, tmp_path):
        """Exchanging target and source channels relabels the directions
        without changing a single TE value."""
        trial, _ = var1_trial("t000", seed=3, n=5000)
        trials = var1_trial_set(trial)
        model = dict(te_mode="loglik_ratio")
        _, forward = run_read_back(trials, make_config(d=2, model=model), tmp_path / "fwd")
        swapped_cfg = PipelineConfig(
            io=IoConfig(target_channels=("y",), source_channels=("x",),
                        resample_hz=100.0),
            embedding=EmbeddingSpec(d=2, delta_s=0.01),
            model=ModelConfig(**model),
            detector=DetectorConfig(alpha=0.01, beta=0.05),
            aggregate=AggregateConfig(),
        )
        _, swapped = run_read_back(trials, swapped_cfg, tmp_path / "swapped")
        a, b = forward[0], swapped[0]
        np.testing.assert_array_equal(a["src2tgt"].te_raw, b["tgt2src"].te_raw)
        np.testing.assert_array_equal(a["tgt2src"].te_raw, b["src2tgt"].te_raw)

    def test_var_entropy_difference_is_time_constant(self, tmp_path):
        """Linear models have one shared residual covariance, so the
        entropy-difference series cannot vary over time."""
        trial, _ = var1_trial("t000", seed=4, n=2000)
        cfg = make_config(model=dict(te_mode="entropy_diff"))
        _, traces = run_read_back(var1_trial_set(trial), cfg, tmp_path)
        te = traces[0]["src2tgt"].te_raw
        assert float(np.ptp(te)) == 0.0

    def test_reruns_are_deterministic(self, tmp_path):
        """Scripted-cue trials through the acceptance MLP, so the compared
        event lists hold real detections."""
        trials = var1_trial_set(*(
            _cue_trial(f"t{i:03d}", "driven",
                       CueScenario(duration_s=20.0, cue_times=(E2E_CUE_T,),
                                   response_delay_s=0.05, amplitude=1.5,
                                   noise_sigma=0.2, seed=seed,
                                   rate_hz=E2E_RATE_HZ))
            for i, seed in enumerate((5, 6))))
        cfg = _e2e_config()
        cfg = replace(cfg, io=replace(cfg.io, directions="both"))
        _, first = run_read_back(trials, cfg, tmp_path / "first")
        _, second = run_read_back(trials, cfg, tmp_path / "second")
        compared = []
        for i in range(2):
            for direction in ("src2tgt", "tgt2src"):
                np.testing.assert_array_equal(
                    first[i][direction].te_raw,
                    second[i][direction].te_raw)
                assert (first[i][direction].events
                        == second[i][direction].events)
                compared += first[i][direction].events
        assert compared

    def test_fit_log_names_scenario_and_direction(self, caplog):
        t0, _ = var1_trial("t000", seed=8, n=600, scenario="baseline")
        t1, _ = var1_trial("t001", seed=9, n=600, scenario="handover")
        cfg = make_config()
        with caplog.at_level("INFO", logger="cueflow"):
            fit_models(prepare_trials(var1_trial_set(t0, t1), cfg), cfg)
        fitted = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("fitted")]
        assert len(fitted) == 4
        for message, (scenario, direction) in zip(fitted, [
                ("baseline", "src2tgt"), ("baseline", "tgt2src"),
                ("handover", "src2tgt"), ("handover", "tgt2src")]):
            assert message.startswith(
                f"fitted scenario {scenario!r}, direction {direction} (var_linear):")

    def test_trim_metadata_drops_the_lead_in(self, tmp_path):
        trial, _ = var1_trial("t000", seed=7, n=2000)
        trials = var1_trial_set(trial, metadata={"trim_start_s.t000": "5.0"})
        result, traces = run_read_back(trials, make_config(), tmp_path)
        out = result[0]
        assert out.t0 == 0.0
        assert out.duration_s == pytest.approx(14.99)
        assert traces[0]["src2tgt"].te_raw.size == 1499


    def test_each_trial_is_prepared_once(self, monkeypatch, tmp_path):
        """Fitting, analysis and the grid in both directions share one
        resampled, trimmed series per trial."""
        import cueflow.pipeline as pipeline_module

        calls = []
        resample = pipeline_module.resample

        def counting_resample(series, rate_hz):
            calls.append(rate_hz)
            return resample(series, rate_hz)

        monkeypatch.setattr(pipeline_module, "resample", counting_resample)
        trials = var1_trial_set(var1_trial("t000", seed=10, n=600)[0],
                                var1_trial("t001", seed=11, n=600)[0],
                                metadata={"trim_start_s.t001": "1.0"})
        cfg = make_config(aggregate=dict(bin_dt=1.0, cell_size_m=1.0,
                                         position_channels=("x", "y")))
        result, _ = run_read_back(trials, cfg, tmp_path)
        assert len(calls) == 2
        assert (tmp_path / "grid_src2tgt.csv").is_file()
        assert (tmp_path / "grid_tgt2src.csv").is_file()
        assert result[1].t0 == 0.0

    @pytest.mark.parametrize("value", ["abc", "inf", "nan", ""])
    def test_bad_trim_value_names_the_key(self, value, tmp_path):
        trial, _ = var1_trial("t000", seed=7, n=500)
        trials = var1_trial_set(trial, metadata={"trim_start_s.t000": value})
        with pytest.raises(PipelineError,
                           match=r"trial 't000', stage prepare: metadata "
                                 r"trim_start_s\.t000=.* is not a finite number"):
            run_read_back(trials, make_config(), tmp_path)


def two_trial_200hz_scenario():
    """A var_linear config at 200 Hz, one scenario of two 30 s trials
    prepared, their history rows, and the width of the history the config
    embeds."""
    cfg = _e2e_config()
    cfg = replace(cfg, io=replace(cfg.io, resample_hz=200.0),
                  model=ModelConfig(kind="var_linear", te_mode="loglik_ratio"))
    scen = CueScenario(duration_s=30.0, cue_times=(8.0,), response_delay_s=0.05,
                       amplitude=1.5, noise_sigma=0.2, seed=0, rate_hz=200.0)
    trials = TrialSet(trials=tuple(_cue_trial(f"t00{i}", "driven", replace(scen, seed=i))
                                   for i in range(2)))
    prepared = prepare_trials(trials, cfg)
    horizon = cfg.embedding.d * round(cfg.embedding.delta_s * 200.0)
    rows = sum(trial.series.n_samples - horizon for trial in prepared)
    width = cfg.embedding.d * (len(cfg.io.target_channels) + len(cfg.io.source_channels))
    return cfg, prepared, rows, width


class TestNestedFitCheck:
    """An augmented fit sees a superset of its baseline's inputs, so a pair
    whose augmented NLL is above the baseline's by more than rounding is
    logged as one warning; a tie is not."""

    @staticmethod
    def fit_null_pairs(kind, caplog):
        """Both directions fitted on two 20 s null trials at 10 Hz, whose
        leader keeps one heading: its velocity is constant."""
        trials = var1_trial_set(*(
            _cue_trial(f"n{i}", "null",
                       CueScenario(duration_s=20.0, cue_times=(), response_delay_s=0.05,
                                   amplitude=1.5, noise_sigma=0.2, seed=seed,
                                   rate_hz=E2E_RATE_HZ))
            for i, seed in enumerate((300, 301))))
        cfg = _e2e_config()
        cfg = replace(cfg, io=replace(cfg.io, directions="both"),
                      model=replace(cfg.model, kind=kind, te_mode="loglik_ratio"))
        with caplog.at_level("INFO", logger="cueflow"):
            pairs = fit_models(prepare_trials(trials, cfg), cfg)
        nlls = {direction: (pair.baseline.train_report.final_nll,
                            pair.augmented.train_report.final_nll)
                for (_, direction), pair in pairs.items()}
        return nlls, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    def test_a_worse_augmented_fit_is_flagged(self, caplog):
        """The null src2tgt network pair ends with the augmented NLL above the
        baseline's: one warning names the scenario, direction, model kind and
        both NLLs.  The tgt2src pair, whose target is the constant leader,
        sits on the variance floor in both fits and ties."""
        nlls, warnings = self.fit_null_pairs("mlp_gaussian", caplog)
        base, full = nlls["src2tgt"]
        assert full > base + pipeline.NLL_TIE_NATS
        assert warnings == [
            f"scenario 'null', direction src2tgt (mlp_gaussian): the augmented "
            f"fit's NLL {full:.6g} is above the baseline's {base:.6g}, although "
            "it sees the baseline's inputs too"]
        base, full = nlls["tgt2src"]
        assert abs(full - base) <= pipeline.NLL_TIE_NATS

    def test_tied_linear_fits_are_not_flagged(self, caplog):
        """Nested linear fits on a null scenario tie to within 1e-11 nats,
        far inside the tolerance, in both directions, and nothing is flagged."""
        nlls, warnings = self.fit_null_pairs("var_linear", caplog)
        assert warnings == []
        for base, full in nlls.values():
            assert abs(full - base) < 1e-11


class TestFitMemory:
    def test_fit_peak_is_bounded_by_the_pooled_history(self):
        """Fitting a two-trial 200 Hz var_linear scenario holds the stacked
        history block and one design matrix at a time: no per-trial blocks
        kept past stacking, no second joint copy.  Its traced peak stays
        under 3x the pooled history's bytes."""
        import tracemalloc

        cfg, prepared, rows, width = two_trial_200hz_scenario()
        hist_bytes = rows * width * 8
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            fit_models(prepared, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 3.0 * hist_bytes

    def test_fit_peak_is_bounded_by_the_design_block(self):
        """Fitting a two-trial 200 Hz var_linear scenario embeds both trials
        into one design block and fits both conditionings from column views
        of it, with no stacked or per-conditioning copy.  Its traced peak
        stays under 1.5x that block's bytes."""
        import tracemalloc

        cfg, prepared, rows, width = two_trial_200hz_scenario()
        design_bytes = rows * (1 + width) * 8
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            fit_models(prepared, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * design_bytes

    def test_embedding_reads_the_trials_channels_in_place(self, monkeypatch):
        """The fit stage fills its design block from views of each prepared
        series, so the traced peak up to the end of the first embedding is
        the block, its target and time columns and a few temporaries: under
        1.25x the block's bytes.  Copies of every trial's target and source
        channels, alive together while the block fills, would add a quarter
        of the block here."""
        import tracemalloc

        import cueflow.pipeline as pipeline_module

        cfg, prepared, rows, width = two_trial_200hz_scenario()
        design_bytes = rows * (1 + width) * 8
        peaks = []
        embed = pipeline_module.embed

        def recording(*args, **kwargs):
            result = embed(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        monkeypatch.setattr(pipeline_module, "embed", recording)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            fit_models(prepared, cfg)
        finally:
            tracemalloc.stop()
        assert peaks[0] - start < 1.25 * design_bytes


class TestAnalysisMemory:
    def test_run_holds_one_trials_traces_at_a_time(self, monkeypatch, tmp_path):
        """Each trial's TE traces are written as soon as it is analysed and
        then dropped, so the live heap after the last of four trials is
        within one trial's trace bytes of its level after the first."""
        import tracemalloc

        import cueflow.pipeline as pipeline_module

        cfg = _e2e_config()
        cfg = replace(cfg, io=replace(cfg.io, resample_hz=200.0, directions="both"),
                      model=ModelConfig(kind="var_linear", te_mode="loglik_ratio"))
        scen = CueScenario(duration_s=20.0, cue_times=(8.0,), response_delay_s=0.05,
                           amplitude=1.5, noise_sigma=0.2, seed=0, rate_hz=200.0)
        trials = TrialSet(trials=tuple(_cue_trial(f"t00{i}", "driven", replace(scen, seed=i))
                                       for i in range(4)))
        levels = []
        analyze = pipeline_module._analyze_trial

        def recording(*args):
            result = analyze(*args)
            levels.append(tracemalloc.get_traced_memory()[0])
            return result

        monkeypatch.setattr(pipeline_module, "_analyze_trial", recording)
        tracemalloc.start()
        try:
            run_read_back(trials, cfg, tmp_path)
        finally:
            tracemalloc.stop()
        rows = trials.trials[0].series.n_samples - cfg.embedding.d * round(
            cfg.embedding.delta_s * 200.0)
        # a trace's times and te_raw in float64 and its cue in bool, both directions
        trace_bytes = 2 * rows * (2 * 8 + 1)
        assert len(levels) == 4
        assert levels[-1] - levels[0] < trace_bytes


class TestRunErrors:
    def test_a_loaded_trial_set_is_not_analysed(self, tmp_path):
        """A trial set as loaded, neither resampled nor trimmed, is refused
        by fitting and analysis alike; they take prepare_trials' output."""
        trial, _ = var1_trial("t000", seed=0, n=500)
        storage.write_trial_dir(var1_trial_set(trial, metadata={"trim_start_s.t000": "1.0"}),
                                tmp_path / "trials")
        loaded = storage.load_trial_dir(tmp_path / "trials")
        cfg = make_config()
        with pytest.raises(TypeError, match="expected trials from prepare_trials, got TrialSet"):
            run(loaded, cfg, tmp_path / "run")
        with pytest.raises(TypeError, match="expected trials from prepare_trials, got TrialSet"):
            fit_models(loaded, cfg)
        assert not (tmp_path / "run").exists()

    def test_empty_trial_set_rejected(self, tmp_path):
        from cueflow.timeseries import TrialSet, resample
        with pytest.raises(PipelineError, match="no trials"):
            run_read_back(TrialSet(trials=()), make_config(), tmp_path)

    def test_invalid_config_rejected_up_front(self):
        """An off-grid embedding step is refused when the config is built,
        before there is a config to run trials with."""
        with pytest.raises(ConfigError, match="not an integer multiple"):
            make_config(resample_hz=115.0, delta_s=0.1)

    def test_missing_channel_names_trial_and_stage(self, tmp_path):
        """A configured channel the trials lack is named with its key when
        the trials are prepared, before anything is fitted or written."""
        trial, _ = var1_trial("t000", seed=0, n=500)
        cfg = PipelineConfig(
            io=IoConfig(target_channels=("z",), source_channels=("y",),
                        resample_hz=100.0),
            embedding=EmbeddingSpec(d=1, delta_s=0.01),
            detector=DetectorConfig(alpha=0.01, beta=0.05),
        )
        with pytest.raises(PipelineError,
                           match=r"stage prepare: \[io\] target_channels names channel 'z'"):
            run_read_back(var1_trial_set(trial), cfg, tmp_path)
        assert not tmp_path.joinpath("events.csv").exists()

    def test_every_configured_channel_is_checked_at_prepare(self):
        trials = var1_trial_set(var1_trial("t000", seed=0, n=500)[0])
        cfg = make_config()
        for bad, named in (
                (replace(cfg, io=replace(cfg.io, source_channels=("y", "w"))),
                 "[io] source_channels names channel 'w'"),
                (make_config(aggregate=dict(cell_size_m=1.0, position_channels=("x", "py"))),
                 "[aggregate] position_channels names channel 'py'")):
            with pytest.raises(PipelineError, match=re.escape(
                    f"stage prepare: {named}, which the trials lack; they hold ['x', 'y']")):
                prepare_trials(trials, bad)

    def test_a_trial_too_short_to_embed_is_named_at_prepare(self):
        """Each prepared series must outlast the embedding horizon; here a
        trim leaves t001 with 3 samples against a horizon of 4."""
        trials = var1_trial_set(var1_trial("t000", seed=0, n=500)[0],
                                var1_trial("t001", seed=1, n=500)[0],
                                metadata={"trim_start_s.t001": "4.97"})
        with pytest.raises(PipelineError, match=r"trial 't001', stage prepare: series too "
                                                r"short to embed: need more than 4 samples, got 3"):
            prepare_trials(trials, make_config(d=4))

    @pytest.mark.parametrize("rate_hz", [100.0, 50.0, 115.0])
    def test_every_prepared_series_is_on_the_embedding_step(self, rate_hz):
        """``embed`` takes its series to be on the spec's step: prepare
        resamples each trial to ``1/resample_hz``, the very float the spec
        holds, trimmed or not."""
        trials = var1_trial_set(var1_trial("t000", seed=0, n=500)[0],
                                var1_trial("t001", seed=1, n=500)[0],
                                metadata={"trim_start_s.t001": "1.0"})
        cfg = make_config(resample_hz=rate_hz, delta_s=1.0 / rate_hz)
        prepared = prepare_trials(trials, cfg)
        assert [trial.series.dt for trial in prepared] == [cfg.dt] * 2


class TestTraceTimes:
    @pytest.mark.parametrize("rate_hz", [10.0, 49.0, 115.0, 200.0])
    def test_equal_the_prepared_times_of_the_embedded_rows(self, rate_hz):
        """A trace's instants, rebuilt from its trial's t0 as manifest.csv
        prints it, the config and the number of rows embed gives, are bitwise
        the prepared series' instants from the embedding horizon on, on a
        trial trimmed off the grid as on one that is not."""
        trials = var1_trial_set(var1_trial("t000", seed=0, n=500)[0],
                                var1_trial("t001", seed=1, n=500)[0],
                                metadata={"trim_start_s.t001": "1.0025"})
        cfg = make_config(d=2, delta_s=2.0 / rate_hz, resample_hz=rate_hz)
        prepared = prepare_trials(trials, cfg)
        assert prepared[0].series.t0 == 0.0 and 0.0 < prepared[1].series.t0 < cfg.dt
        horizon = cfg.embedding.horizon(cfg.dt)
        for trial in prepared:
            n_rows = len(embed([trial.series], cfg.embedding, (("x",), ("y",))).targets)
            want = trial.series.times[horizon:]
            got = trace_times(float(repr(trial.series.t0)), n_rows, cfg)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate_hz", [10.0, 49.0, 115.0, 200.0])
    def test_keep_the_prepared_clock_of_a_recording(self, rate_hz, tmp_path):
        """On a decimal-stamped recording the instants are the resampled
        series' from the horizon on, bitwise, at any rate; at 10 or 200 Hz
        they are the recording's own stamps."""
        path = tmp_path / "trial.csv"
        write_decimal_trial(path, rate_hz, n=600)
        loaded = storage.load_csv(path)
        prepared = resample(loaded, rate_hz)
        cfg = make_config(d=3, delta_s=2.0 / rate_hz, resample_hz=rate_hz)
        horizon = cfg.embedding.horizon(cfg.dt)
        n_rows = len(embed([prepared], cfg.embedding, (("x",), ("x",))).targets)
        times = trace_times(prepared.t0, n_rows, cfg)
        assert times.tobytes() == prepared.times[horizon:].tobytes()
        if rate_hz in (10.0, 200.0):
            assert times.tobytes() == loaded.times[horizon:].tobytes()


class TestPrepareKeepsRecordedSamples:
    @pytest.mark.parametrize("rate_hz", [200.0, 115.0, 10.0])
    def test_trials_written_at_the_analysis_rate_keep_every_row(self, rate_hz, tmp_path):
        """Trials that ``write_trial_dir`` wrote at ``resample_hz`` come out of
        ``prepare_trials`` with every written row, timestamp and value bitwise:
        resampling reads the recorded clock, which is the analysis grid."""
        cfg = _e2e_config()
        cfg = replace(cfg, io=replace(cfg.io, resample_hz=rate_hz),
                      embedding=EmbeddingSpec(d=4, delta_s=1.0 / rate_hz))
        scen = CueScenario(duration_s=12.0, cue_times=(8.0,), response_delay_s=0.05,
                           amplitude=1.5, noise_sigma=0.2, seed=0, rate_hz=rate_hz)
        storage.write_trial_dir(TrialSet(trials=tuple(
            _cue_trial(f"t00{i}", "driven", replace(scen, seed=i)) for i in range(4))),
            tmp_path)
        prepared = prepare_trials(storage.load_trial_dir(tmp_path), cfg)
        for trial in prepared:
            rows = read_numeric_csv(tmp_path / f"driven__{trial.trial_id}.csv",
                                    lambda header: None)[1]
            assert trial.series.n_samples == rows.shape[0] == round(12.0 * rate_hz) + 1
            assert trial.series.times.tobytes() == rows[:, 0].tobytes()
            assert trial.series.data.tobytes() == np.ascontiguousarray(rows[:, 1:]).tobytes()


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    trials = var1_trial_set(
        var1_trial("a0", seed=0, n=1200, scenario="coupled")[0],
        var1_trial("a1", seed=1, n=1200, scenario="coupled")[0],
        var1_trial("b0", seed=2, n=1200, scenario="baseline")[0],
        var1_trial("b1", seed=3, n=1200, scenario="baseline")[0],
    )
    cfg = make_config(
        directions="src2tgt",
        model=dict(te_mode="loglik_ratio"),
        detector=dict(alpha=0.01, beta=0.05, gamma=1.5),
        aggregate=dict(bin_dt=1.0, cell_size_m=1.0,
                       position_channels=("x", "y")),
    )
    run_dir = tmp_path_factory.mktemp("study") / "run"
    result, _ = run_read_back(trials, cfg, run_dir)
    return trials, cfg, result, run_dir


class TestRunDirProducts:
    def test_two_scenarios_produce_a_report(self, study, tmp_path):
        _, cfg, _, run_dir = study
        assert "peak_te_report.csv" in build_reports(run_dir, tmp_path, cfg)
        report = storage.read_report_csv(tmp_path / "peak_te_report.csv")
        assert [d for d, _ in report.rows] == ["src2tgt"]

    def test_run_dir_layout(self, study):
        _, _, _, run_dir = study
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["events.csv", "grid_src2tgt.csv", "grid_src2tgt.csv.meta",
                         "histogram_src2tgt.csv", "histogram_src2tgt.csv.meta",
                         "manifest.csv", "peak_te_report.csv", "te_a0_src2tgt.csv",
                         "te_a1_src2tgt.csv", "te_b0_src2tgt.csv",
                         "te_b1_src2tgt.csv"]
        manifest = (run_dir / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "trial,scenario,t0,duration_s"
        assert len(manifest) == 5

    def test_rebuilt_aggregates_are_byte_identical(self, study, tmp_path):
        """The aggregates ``run`` writes from its own prepared series match
        those rebuilt from re-derived positions (as ``report --trials``
        does) byte for byte."""
        trials, cfg, _, run_dir = study
        names = ["histogram_src2tgt.csv", "grid_src2tgt.csv", "peak_te_report.csv"]
        assert build_reports(run_dir, tmp_path / "rep", cfg,
                             positions=positions(trials, cfg)) == names
        for rebuilt in (tmp_path / "rep").iterdir():
            assert rebuilt.read_bytes() == (run_dir / rebuilt.name).read_bytes()

    def test_report_rebuild_needs_all_position_series(self, study, tmp_path):
        trials, cfg, _, run_dir = study
        partial = positions(trials, cfg)
        partial.pop("a1")
        with pytest.raises(PipelineError, match="no position series for trial 'a1'"):
            build_reports(run_dir, tmp_path / "rep", cfg,
                          positions=partial)

    def test_rebuild_requires_a_manifest(self, study, tmp_path):
        from cueflow.errors import DataFormatError
        _, cfg, _, _ = study
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataFormatError, match="missing manifest"):
            build_reports(tmp_path / "empty", tmp_path / "rep", cfg)
