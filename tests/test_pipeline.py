"""Tests for pipeline orchestration: validation, runs, and run-dir products."""

from dataclasses import replace

import numpy as np
import pytest

from cueflow import storage
from cueflow.config import (
    AggregateConfig,
    DetectorSettings,
    EmbeddingConfig,
    IoConfig,
    ModelConfig,
    PipelineConfig,
)
from cueflow.errors import PipelineError
from cueflow.pipeline import (
    build_reports,
    fit_models,
    prepare_position_series,
    run,
    validate_config,
    write_run_dir,
)
from cueflow.synth import CueScenario, te_oracle_var1

from conftest import (E2E_CUE_T, E2E_RATE_HZ, _cue_trial, _e2e_config,
                      var1_trial, var1_trial_set)


def make_config(*, directions="both", d=1, delta_s=0.01, resample_hz=100.0,
                model=None, detector=None, aggregate=None, seed=0):
    return PipelineConfig(
        io=IoConfig(target_channels=("x",), source_channels=("y",),
                    resample_hz=resample_hz, directions=directions, seed=seed),
        embedding=EmbeddingConfig(d=d, delta_s=delta_s),
        model=ModelConfig(**(model or {})),
        detector=DetectorSettings(**(detector or dict(alpha=0.01, beta=0.05))),
        aggregate=AggregateConfig(**(aggregate or {})),
    )


class TestValidateConfig:
    def test_clean_config_reports_only_time_constants(self):
        cfg = make_config(resample_hz=200.0, delta_s=0.1, d=4)
        diags = validate_config(cfg)
        assert [d.severity for d in diags] == ["info"]
        assert "threshold level time constant 0.4975 s" in diags[0].message
        assert "trend time constant 0.09748 s" in diags[0].message

    def test_cutoff_at_nyquist_is_an_error(self):
        cfg = make_config(resample_hz=2.0, delta_s=0.5,
                          detector=dict(alpha=0.01, beta=0.05, hp_cutoff_hz=1.0))
        severities = {d.severity for d in validate_config(cfg)}
        assert "error" in severities
        messages = " ".join(d.message for d in validate_config(cfg))
        assert "Nyquist" in messages

    def test_off_grid_embedding_step_is_an_error(self):
        # 0.1 s is not a whole number of 1/115 s samples.
        cfg = make_config(resample_hz=115.0, delta_s=0.1)
        errors = [d for d in validate_config(cfg) if d.severity == "error"]
        assert len(errors) == 1
        assert "not an integer multiple" in errors[0].message

    def test_sluggish_trend_smoother_warns(self):
        cfg = make_config(detector=dict(alpha=0.05, beta=0.005))
        warnings = [d for d in validate_config(cfg) if d.severity == "warning"]
        assert any("adapts more slowly" in d.message for d in warnings)

    def test_cell_size_without_positions_warns(self):
        cfg = make_config(aggregate=dict(cell_size_m=0.5))
        warnings = [d for d in validate_config(cfg) if d.severity == "warning"]
        assert any("no spatial grid" in d.message for d in warnings)

    def test_out_of_range_smoothing_becomes_a_diagnostic(self):
        """Bad smoothing constants surface as an error entry, not an exception."""
        cfg = make_config(detector=dict(alpha=1.5, beta=0.05))
        diags = validate_config(cfg)
        assert [d.severity for d in diags] == ["error"]


class TestRunOnCoupledVar:
    def test_mean_te_matches_closed_form(self):
        """A long coupled AR pair recovers the analytic TE in the driven
        direction and stays near zero in the reverse one."""
        trial, spec = var1_trial("t000", seed=0, n=100_000)
        result = run(var1_trial_set(trial), make_config())
        fwd = float(np.mean(result.trials[0].traces["src2tgt"].te_raw))
        rev = float(np.mean(result.trials[0].traces["tgt2src"].te_raw))
        oracle = te_oracle_var1(spec)
        assert abs(fwd - oracle) < 0.01
        assert abs(rev) < 0.005

    def test_swapping_roles_swaps_directions_exactly(self):
        """Exchanging target and source channels relabels the directions
        without changing a single TE value."""
        trial, _ = var1_trial("t000", seed=3, n=5000)
        trials = var1_trial_set(trial)
        model = dict(te_mode="loglik_ratio")
        forward = run(trials, make_config(d=2, model=model))
        swapped_cfg = PipelineConfig(
            io=IoConfig(target_channels=("y",), source_channels=("x",),
                        resample_hz=100.0),
            embedding=EmbeddingConfig(d=2, delta_s=0.01),
            model=ModelConfig(**model),
            detector=DetectorSettings(alpha=0.01, beta=0.05),
            aggregate=AggregateConfig(),
        )
        swapped = run(trials, swapped_cfg)
        a, b = forward.trials[0].traces, swapped.trials[0].traces
        np.testing.assert_array_equal(a["src2tgt"].te_raw, b["tgt2src"].te_raw)
        np.testing.assert_array_equal(a["tgt2src"].te_raw, b["src2tgt"].te_raw)

    def test_var_entropy_difference_is_time_constant(self):
        """Linear models have one shared residual covariance, so the
        entropy-difference series cannot vary over time."""
        trial, _ = var1_trial("t000", seed=4, n=2000)
        result = run(var1_trial_set(trial), make_config())
        te = result.trials[0].traces["src2tgt"].te_raw
        assert float(np.ptp(te)) == 0.0

    def test_reruns_are_deterministic(self):
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
        first = run(trials, cfg)
        second = run(trials, cfg)
        compared = []
        for i in range(2):
            for direction in ("src2tgt", "tgt2src"):
                np.testing.assert_array_equal(
                    first.trials[i].traces[direction].te_raw,
                    second.trials[i].traces[direction].te_raw)
                assert (first.trials[i].traces[direction].events
                        == second.trials[i].traces[direction].events)
                compared += first.trials[i].traces[direction].events
        assert compared

    def test_fit_log_names_scenario_and_direction(self, caplog):
        t0, _ = var1_trial("t000", seed=8, n=600, scenario="baseline")
        t1, _ = var1_trial("t001", seed=9, n=600, scenario="handover")
        with caplog.at_level("INFO", logger="cueflow"):
            fit_models(var1_trial_set(t0, t1), make_config())
        fitted = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("fitted")]
        assert len(fitted) == 4
        for message, (scenario, direction) in zip(fitted, [
                ("baseline", "src2tgt"), ("baseline", "tgt2src"),
                ("handover", "src2tgt"), ("handover", "tgt2src")]):
            assert message.startswith(
                f"fitted scenario {scenario!r}, direction {direction} (var_linear):")

    def test_trim_metadata_drops_the_lead_in(self):
        trial, _ = var1_trial("t000", seed=7, n=2000)
        trials = var1_trial_set(trial, metadata={"trim_start_s.t000": "5.0"})
        result = run(trials, make_config())
        out = result.trials[0]
        assert out.t0 == 0.0
        assert out.duration_s == pytest.approx(14.99)
        assert out.traces["src2tgt"].te_raw.size == 1499


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
        result = run(trials, cfg)
        write_run_dir(result, cfg, tmp_path)
        written = build_reports(tmp_path, tmp_path, cfg,
                                {r.trial_id: r.prepared for r in result.trials})
        assert len(calls) == 2
        assert {"grid_src2tgt.csv", "grid_tgt2src.csv"} <= set(written)
        assert result.trials[1].t0 == 0.0

    @pytest.mark.parametrize("value", ["abc", "inf", "nan", ""])
    def test_bad_trim_value_names_the_key(self, value):
        trial, _ = var1_trial("t000", seed=7, n=500)
        trials = var1_trial_set(trial, metadata={"trim_start_s.t000": value})
        with pytest.raises(PipelineError,
                           match=r"trial 't000', stage prepare: metadata "
                                 r"trim_start_s\.t000=.* is not a finite number"):
            run(trials, make_config())


class TestRunErrors:
    def test_empty_trial_set_rejected(self):
        from cueflow.timeseries import TrialSet
        with pytest.raises(PipelineError, match="no trials"):
            run(TrialSet(trials=()), make_config())

    def test_invalid_config_rejected_up_front(self):
        trial, _ = var1_trial("t000", seed=0, n=500)
        cfg = make_config(resample_hz=115.0, delta_s=0.1)
        with pytest.raises(PipelineError, match="invalid configuration"):
            run(var1_trial_set(trial), cfg)

    def test_missing_channel_names_trial_and_stage(self):
        trial, _ = var1_trial("t000", seed=0, n=500)
        cfg = PipelineConfig(
            io=IoConfig(target_channels=("z",), source_channels=("y",),
                        resample_hz=100.0),
            embedding=EmbeddingConfig(d=1, delta_s=0.01),
            detector=DetectorSettings(alpha=0.01, beta=0.05),
        )
        with pytest.raises(PipelineError,
                           match=r"trial 't000', stage embed \(src2tgt\)"):
            run(var1_trial_set(trial), cfg)


@pytest.fixture(scope="module")
def study():
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
    return trials, cfg, run(trials, cfg)


class TestRunDirProducts:
    def test_two_scenarios_produce_a_report(self, study, tmp_path):
        _, cfg, result = study
        write_run_dir(result, cfg, tmp_path)
        assert "peak_te_report.csv" in build_reports(tmp_path, tmp_path, cfg)
        report = storage.read_report_csv(tmp_path / "peak_te_report.csv")
        assert [d for d, _ in report.rows] == ["src2tgt"]

    def test_run_dir_layout(self, study, tmp_path):
        trials, cfg, result = study
        write_run_dir(result, cfg, tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == ["events.csv", "manifest.csv", "te_a0_src2tgt.csv",
                         "te_a1_src2tgt.csv", "te_b0_src2tgt.csv",
                         "te_b1_src2tgt.csv"]
        manifest = (tmp_path / "run" / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "trial,scenario,t0,duration_s"
        assert len(manifest) == 5

    def test_rebuilt_aggregates_are_byte_identical(self, study, tmp_path):
        """Aggregates built from the run's own prepared series (as ``run``
        does) match those rebuilt from re-derived positions (as ``report
        --trials`` does) byte for byte."""
        trials, cfg, result = study
        write_run_dir(result, cfg, tmp_path / "run")
        names = ["histogram_src2tgt.csv", "grid_src2tgt.csv", "peak_te_report.csv"]
        assert build_reports(tmp_path / "run", tmp_path / "direct", cfg,
                             positions={r.trial_id: r.prepared
                                        for r in result.trials}) == names
        assert build_reports(tmp_path / "run", tmp_path / "rep", cfg,
                             positions=prepare_position_series(trials, cfg)) == names
        for name in names:
            assert ((tmp_path / "direct" / name).read_bytes()
                    == (tmp_path / "rep" / name).read_bytes())

    def test_report_rebuild_needs_all_position_series(self, study, tmp_path):
        trials, cfg, result = study
        write_run_dir(result, cfg, tmp_path / "run")
        positions = prepare_position_series(trials, cfg)
        positions.pop("a1")
        with pytest.raises(PipelineError, match="no position series for trial 'a1'"):
            build_reports(tmp_path / "run", tmp_path / "rep", cfg,
                          positions=positions)

    def test_rebuild_requires_a_manifest(self, study, tmp_path):
        from cueflow.errors import DataFormatError
        _, cfg, _ = study
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataFormatError, match="missing manifest"):
            build_reports(tmp_path / "empty", tmp_path / "rep", cfg)
