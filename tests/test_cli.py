"""CLI tests: each subcommand run in-process through ``main``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cueflow
from cueflow import storage
from cueflow.cli import main

VAR1_INI = """\
[io]
target_channels = x
source_channels = y
resample_hz = 100

[embedding]
d = 1
delta_s = 0.01

[model]
te_mode = loglik_ratio

[detector]
alpha = 0.01
beta = 0.05

[synth]
kind = var1
n_trials = 1
n = 3000
seed = 0
dt = 0.01
"""

# Scripted cues after the ~6 s level warm-up of the detector, analysed with
# closed-form linear models in both directions.
CUE_RUN_INI = """\
[io]
target_channels = follower_vx, follower_vy
source_channels = leader_vx, leader_vy
resample_hz = 10

[embedding]
d = 4
delta_s = 0.1

[model]
kind = var_linear
te_mode = loglik_ratio

[detector]
alpha = 0.0165
beta = 0.0952

[synth]
kind = cue_scenario
n_trials = 3
duration_s = 20
cue_times = 8.0
response_delay_s = 0.05
amplitude = 1.5
rate_hz = 10
seed = 0
"""

CUE_INI = """\
[io]
target_channels = follower_vx, follower_vy
source_channels = leader_vx, leader_vy
resample_hz = 10

[embedding]
d = 4
delta_s = 0.1

[detector]
alpha = 0.0165
beta = 0.0952

[synth]
kind = cue_scenario
n_trials = 2
duration_s = 10
cue_times = 2.0
rate_hz = 10
seed = 0
"""


@pytest.fixture()
def var1_config(tmp_path):
    path = tmp_path / "var1.ini"
    path.write_text(VAR1_INI)
    return path


@pytest.fixture()
def cue_run_config(tmp_path):
    path = tmp_path / "cue_run.ini"
    path.write_text(CUE_RUN_INI)
    return path


@pytest.fixture()
def cue_config(tmp_path):
    path = tmp_path / "cue.ini"
    path.write_text(CUE_INI)
    return path


@pytest.fixture()
def two_scenario_trials(cue_run_config, tmp_path):
    """Four synthetic trials in two scenarios of two, so that a run with
    ``cue_run_config`` builds the peak-TE report."""
    trials_dir = tmp_path / "two_scenarios"
    assert main(["synth", "--config", str(cue_run_config), "--set", "synth.n_trials=4",
                 "--out", str(trials_dir)]) == 0
    for i, scenario in enumerate(("driven", "driven", "null", "null")):
        (trials_dir / f"cue_scenario__t00{i}.csv").rename(
            trials_dir / f"{scenario}__t00{i}.csv")
    return trials_dir


class TestRunFlow:
    def test_synth_run_report_round_trip(self, cue_run_config, tmp_path,
                                         capsys):
        trials_dir = tmp_path / "trials"
        run_dir = tmp_path / "run"
        rep_dir = tmp_path / "rep"

        assert main(["synth", "--config", str(cue_run_config),
                     "--out", str(trials_dir)]) == 0
        assert "wrote 3 trials" in capsys.readouterr().out
        assert (trials_dir / "cue_scenario__t000.csv").exists()

        assert main(["run", "--config", str(cue_run_config),
                     "--trials", str(trials_dir),
                     "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        m = re.search(r"analyzed 3 trials; (\d+) cue events", out)
        assert m is not None
        n_events = int(m.group(1))
        assert n_events > 0
        event_rows = (run_dir / "events.csv").read_text().splitlines()
        assert event_rows[0] == "trial,direction,start_t,end_t,peak_te"
        assert len(event_rows) - 1 == n_events
        for name in ("te_t000_src2tgt.csv", "te_t000_tgt2src.csv",
                     "manifest.csv", "histogram_src2tgt.csv",
                     "histogram_tgt2src.csv"):
            assert (run_dir / name).exists()

        assert main(["report", "--config", str(cue_run_config),
                     "--events", str(run_dir), "--out", str(rep_dir)]) == 0
        assert "wrote 2 aggregate file(s)" in capsys.readouterr().out
        for direction in ("src2tgt", "tgt2src"):
            name = f"histogram_{direction}.csv"
            assert ((run_dir / name).read_bytes()
                    == (rep_dir / name).read_bytes())

    def test_reruns_give_identical_outputs(self, cue_run_config, tmp_path, capsys):
        trials_dir = tmp_path / "trials"
        main(["synth", "--config", str(cue_run_config), "--out", str(trials_dir)])
        for out_dir in ("run1", "run2"):
            assert main(["run", "--config", str(cue_run_config),
                         "--trials", str(trials_dir),
                         "--out", str(tmp_path / out_dir)]) == 0
        capsys.readouterr()
        event_rows = (tmp_path / "run1" / "events.csv").read_text().splitlines()
        assert len(event_rows) > 1
        for name in ("events.csv", "te_t000_src2tgt.csv", "te_t000_tgt2src.csv"):
            assert ((tmp_path / "run1" / name).read_bytes()
                    == (tmp_path / "run2" / name).read_bytes())

    def test_trial_id_with_a_comma(self, cue_run_config, tmp_path, capsys):
        trials_dir = tmp_path / "trials"
        run_dir = tmp_path / "run"
        main(["synth", "--config", str(cue_run_config), "--out", str(trials_dir)])
        (trials_dir / "cue_scenario__t001.csv").rename(
            trials_dir / "cue_scenario__t,001.csv")
        assert main(["run", "--config", str(cue_run_config),
                     "--trials", str(trials_dir), "--out", str(run_dir)]) == 0
        assert "analyzed 3 trials" in capsys.readouterr().out
        rows = (run_dir / "manifest.csv").read_text().splitlines()
        assert rows[1].startswith('"t,001",cue_scenario,')  # "," sorts before "0"
        assert rows[2].startswith("t000,cue_scenario,")
        assert (run_dir / "histogram_src2tgt.csv").exists()


class TestBadInputExits2:
    """A bad input file or metadata value is a data error, not a traceback."""

    def run_corrupted(self, corrupt, cue_config, tmp_path, capsys):
        trials_dir = tmp_path / "trials"
        assert main(["synth", "--config", str(cue_config),
                     "--out", str(trials_dir)]) == 0
        corrupt(trials_dir)
        capsys.readouterr()
        code = main(["run", "--config", str(cue_config), "--trials",
                     str(trials_dir), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_undecodable_byte_in_a_trial(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            bad = trials_dir / "cue_scenario__t001.csv"
            raw = bytearray(bad.read_bytes())
            raw[len(raw) // 2] = 0xFF
            bad.write_bytes(bytes(raw))

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "cue_scenario__t001.csv: not utf-8 text" in err

    def test_non_numeric_trim_metadata(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            (trials_dir / "trials.meta").write_text("trim_start_s.t000=abc\n")

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "trim_start_s.t000='abc' is not a finite number" in err

    def test_trim_key_for_an_unknown_trial(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            (trials_dir / "trials.meta").write_text("trim_start_s.t009=1.0\n")

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "metadata trim_start_s.t009: no trial with that id" in err

    def test_undecodable_byte_in_trial_metadata(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            (trials_dir / "trials.meta").write_bytes(b"note=\xff\n")

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "trials.meta: not utf-8 text" in err

    def test_undecodable_byte_in_the_config(self, var1_config, capsys):
        var1_config.write_bytes(var1_config.read_bytes().replace(b"beta", b"b\xffta"))
        assert main(["validate", "--config", str(var1_config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot read config {var1_config}" in err

    @pytest.mark.parametrize("row, message", [
        ("t000,driven,abc,20.0", "numeric parse error in ['t000', 'driven', 'abc', '20.0']"),
        ("t000,driven", "row 1 has 2 fields"),
    ])
    def test_bad_manifest_row_under_report(self, cue_config, tmp_path, capsys,
                                           row, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.csv").write_text(f"trial,scenario,t0,duration_s\n{row}\n")
        assert main(["report", "--config", str(cue_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{run_dir / 'manifest.csv'}: {message}" in err


class TestMissingFilesExit2:
    """A run directory with a file gone, or an --out that cannot be a
    directory, is a data error naming the path, not a traceback."""

    @pytest.mark.parametrize("removed", ["events.csv", "te_t001_src2tgt.csv"])
    def test_report_on_a_run_with_a_file_gone(self, cue_run_config,
                                              two_scenario_trials, tmp_path,
                                              capsys, removed):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0
        (run_dir / removed).unlink()
        capsys.readouterr()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot read {run_dir / removed}" in err

    def test_run_out_is_an_existing_file(self, cue_run_config, two_scenario_trials,
                                         tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot use --out {out} as a directory" in err


class TestSynthCommand:
    def test_cue_scenario_writes_truth_and_loadable_trials(self, cue_config,
                                                           tmp_path, capsys):
        out_dir = tmp_path / "trials"
        assert main(["synth", "--config", str(cue_config),
                     "--out", str(out_dir)]) == 0
        assert "wrote 2 trials" in capsys.readouterr().out
        truth = (out_dir / "truth.csv").read_text().splitlines()
        assert truth == ["trial,start_t,end_t", "t000,2.0,2.35", "t001,2.0,2.35"]
        trials = storage.load_trial_dir(out_dir)
        assert [t.trial_id for t in trials] == ["t000", "t001"]
        assert trials.trials[0].scenario == "cue_scenario"
        assert trials.trials[0].series.channels == (
            "leader_vx", "leader_vy", "follower_vx", "follower_vy",
            "follower_px", "follower_py")
        assert trials.trials[0].series.data.shape == (101, 6)

    def test_synth_needs_a_synth_section(self, var1_config, tmp_path):
        text = var1_config.read_text().split("[synth]")[0]
        bare = tmp_path / "bare.ini"
        bare.write_text(text)
        assert main(["synth", "--config", str(bare),
                     "--out", str(tmp_path / "x")]) == 2


class TestOracleCommand:
    def test_prints_closed_form_te_for_both_directions(self, var1_config,
                                                       capsys):
        assert main(["oracle", "--config", str(var1_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["te[y_to_x] = 0.11157177565710488 nats",
                         "te[x_to_y] = 0.0 nats"]

    def test_oracle_requires_the_var1_kind(self, cue_config):
        assert main(["oracle", "--config", str(cue_config)]) == 2


class TestValidateCommand:
    def test_clean_config_passes_with_time_constants(self, var1_config, capsys):
        assert main(["validate", "--config", str(var1_config)]) == 0
        out = capsys.readouterr().out
        assert ("INFO: threshold level time constant 0.995 s, "
                "trend time constant 0.195 s") in out
        assert out.splitlines()[-1] == "OK: 0 error(s), 0 warning(s)"

    def test_set_override_reaches_the_diagnostics(self, var1_config, capsys):
        assert main(["validate", "--config", str(var1_config),
                     "--set", "detector.alpha=0.005"]) == 0
        assert "threshold level time constant 1.995 s" in capsys.readouterr().out

    def test_inconsistent_config_exits_nonzero(self, var1_config, capsys):
        assert main(["validate", "--config", str(var1_config),
                     "--set", "detector.hp_cutoff_hz=60"]) == 2
        out = capsys.readouterr().out
        assert "Nyquist" in out
        assert out.splitlines()[-1] == "INVALID: 1 error(s), 0 warning(s)"

    @pytest.mark.parametrize("override, named", [
        ("detector.gamma=-1", "[detector] gamma"),
        ("detector.hp_cutoff_hz=-1", "[detector] hp_cutoff_hz"),
        ("embedding.d=0", "[embedding] embedding order d"),
        ("io.resample_hz=inf", "[io] resample_hz"),
        ("aggregate.bin_dt=0", "[aggregate] bin_dt"),
        ("aggregate.cell_size_m=0", "[aggregate] cell_size_m"),
    ])
    def test_every_rule_of_run_is_checked(self, var1_config, override, named,
                                          capsys):
        assert main(["validate", "--config", str(var1_config),
                     "--set", override]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert named in captured.out + captured.err

    def test_run_rejects_a_bad_detector_before_fitting(
            self, cue_run_config, two_scenario_trials, tmp_path, capsys,
            monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("models were fitted")

        monkeypatch.setattr("cueflow.pipeline.fit_models", no_fit)
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--set",
                     "detector.gamma=-1", "--trials", str(two_scenario_trials),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: [detector] gamma must be positive" in err
        assert not list((tmp_path / "run").iterdir())


class TestStartUp:
    def test_importing_the_cli_loads_no_scipy(self):
        """Start-up loads numpy alone; checked in a fresh interpreter."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cueflow.__file__).resolve().parents[1]))
        code = ("import sys, cueflow, cueflow.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_no_command_loads_scipy(self, cue_run_config, var1_config,
                                    two_scenario_trials, tmp_path):
        """Each command runs to completion in a fresh interpreter without
        importing scipy; ``run`` and ``report`` build the Welch report."""
        run_dir, rep_dir = tmp_path / "run", tmp_path / "rep"
        commands = [
            ["synth", "--config", str(var1_config), "--out", str(tmp_path / "var1")],
            ["oracle", "--config", str(var1_config)],
            ["validate", "--config", str(cue_run_config)],
            ["run", "--config", str(cue_run_config), "--trials",
             str(two_scenario_trials), "--out", str(run_dir)],
            ["report", "--config", str(cue_run_config), "--events", str(run_dir),
             "--out", str(rep_dir), "--trials", str(two_scenario_trials)],
        ]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cueflow.__file__).resolve().parents[1]))
        code = ("import json, sys\n"
                "from cueflow.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    code = main(argv)\n"
                "    loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "    print(json.dumps([argv[0], code, loaded]), file=sys.stderr)\n")
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                             env=env, check=True, capture_output=True, text=True,
                             timeout=120)
        results = [json.loads(line) for line in out.stderr.splitlines()
                   if line.startswith("[")]
        assert results == [[argv[0], 0, []] for argv in commands]
        for directory in (run_dir, rep_dir):
            assert (directory / "peak_te_report.csv").exists()

    @pytest.mark.parametrize("override", [
        "model.epochs=0", "model.learning_rate=-1", "model.batch_size=0",
        "model.hidden=0",
    ])
    def test_bad_model_number_exits_2(self, var1_config, override, capsys):
        assert main(["validate", "--config", str(var1_config),
                     "--set", override]) == 2
        assert override.split(".")[1].split("=")[0] in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, var1_config):
        assert main(["run", "--config", str(var1_config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_malformed_override(self, var1_config):
        assert main(["validate", "--config", str(var1_config),
                     "--set", "alpha=0.5"]) == 2
