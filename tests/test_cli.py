"""CLI tests: each subcommand run in-process through ``main``."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cueflow
from cueflow import storage
from cueflow.cli import main
from cueflow.timeseries import TimeSeries

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
    def test_loaded_trials_are_freed_once_prepared(self, cue_run_config, tmp_path,
                                                   monkeypatch, capsys):
        """``cueflow run`` holds the loaded trial set only until it is
        prepared: when fitting starts, the traced live heap holds the
        prepared series and less than half a parsed block besides.  A loaded
        set still held would add about the prepared bytes again."""
        import tracemalloc

        from cueflow import pipeline

        trials_dir = tmp_path / "trials"
        rate = ["--set", "io.resample_hz=200", "--set", "synth.rate_hz=200",
                "--set", "synth.duration_s=30"]
        assert main(["synth", "--config", str(cue_run_config), *rate,
                     "--out", str(trials_dir)]) == 0
        loaded = storage.load_trial_dir(trials_dir)
        # Resampled at their own rate, the trials keep at most their rows.
        prepared_bytes = sum(trial.series.data.nbytes for trial in loaded)
        block = min(trial.series.data.shape[0] * (trial.series.data.shape[1] + 1) * 8
                    for trial in loaded)
        del loaded
        levels = []
        fit_models = pipeline.fit_models

        def recording(*args, **kwargs):
            levels.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
            return fit_models(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_models", recording)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            assert main(["run", "--config", str(cue_run_config), *rate,
                         "--trials", str(trials_dir), "--out", str(tmp_path / "run")]) == 0
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert levels[0] - start < prepared_bytes + block / 2

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

    def test_library_run_writes_the_command_run_directory(self, cue_run_config,
                                                           two_scenario_trials, tmp_path,
                                                           capsys):
        """``pipeline.run`` writes the whole run directory, aggregates
        included: file for file, it is byte-identical to the one ``cueflow
        run`` writes from the same trials and config."""
        from cueflow import pipeline
        from cueflow.config import load_config

        overrides = ["aggregate.cell_size_m=0.25",
                     "aggregate.position_channels=follower_px, follower_py"]
        (two_scenario_trials / "trials.meta").write_text("trim_start_s.t001=1.5\n")
        cfg, _ = load_config(cue_run_config, overrides)
        results = pipeline.run(pipeline.prepare_trials(
            storage.load_trial_dir(two_scenario_trials), cfg), cfg, tmp_path / "lib")
        assert main(["run", "--config", str(cue_run_config),
                     *(arg for o in overrides for arg in ("--set", o)),
                     "--trials", str(two_scenario_trials),
                     "--out", str(tmp_path / "cli")]) == 0
        names = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert {"grid_tgt2src.csv", "histogram_src2tgt.csv", "peak_te_report.csv"} <= set(names)
        assert sorted(p.name for p in (tmp_path / "lib").iterdir()) == names
        for name in names:
            assert ((tmp_path / "lib" / name).read_bytes()
                    == (tmp_path / "cli" / name).read_bytes()), name
        assert f"analyzed {len(results)} trials" in capsys.readouterr().out

    def test_no_written_file_holds_a_carriage_return(self, cue_run_config,
                                                     two_scenario_trials, tmp_path, capsys):
        """Every line cueflow writes ends in \\n alone: the synthetic trials
        and truth table, and every file of a run directory and of its
        ``report --trials`` rebuild, grids and sidecars included."""
        grid = ["--set", "aggregate.cell_size_m=0.25",
                "--set", "aggregate.position_channels=follower_px, follower_py"]
        run_dir, rep_dir = tmp_path / "run", tmp_path / "rep"
        assert main(["run", "--config", str(cue_run_config), *grid, "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0
        assert main(["report", "--config", str(cue_run_config), *grid, "--events",
                     str(run_dir), "--trials", str(two_scenario_trials),
                     "--out", str(rep_dir)]) == 0
        capsys.readouterr()
        files = [p for d in (two_scenario_trials, run_dir, rep_dir) for p in d.iterdir()]
        names = {p.name for p in files}
        assert {"truth.csv", "te_t000_src2tgt.csv", "events.csv", "manifest.csv",
                "grid_src2tgt.csv.meta", "histogram_tgt2src.csv",
                "peak_te_report.csv"} <= names
        assert [p for p in files if b"\r" in p.read_bytes()] == []

    def test_config_without_a_model_section_runs_loglik_ratio(self, cue_run_config,
                                                              two_scenario_trials,
                                                              tmp_path, capsys):
        """The default [model] is var_linear with loglik_ratio: validate warns
        of nothing, and a config with no [model] section writes the same
        run directory as one that names both, events and peak-TE report
        included."""
        section = "[model]\nkind = var_linear\nte_mode = loglik_ratio\n\n"
        assert section in CUE_RUN_INI
        minimal = tmp_path / "minimal.ini"
        minimal.write_text(CUE_RUN_INI.replace(section, ""))
        assert main(["validate", "--config", str(minimal)]) == 0
        assert "OK: 0 error(s), 0 warning(s)" in capsys.readouterr().out
        for config, out_dir in ((minimal, "minimal"), (cue_run_config, "named")):
            assert main(["run", "--config", str(config), "--trials",
                         str(two_scenario_trials), "--out", str(tmp_path / out_dir)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "named").iterdir())
        assert "peak_te_report.csv" in names
        assert sorted(p.name for p in (tmp_path / "minimal").iterdir()) == names
        for name in names:
            assert ((tmp_path / "minimal" / name).read_bytes()
                    == (tmp_path / "named" / name).read_bytes()), name
        assert storage.read_events_csv(tmp_path / "minimal" / "events.csv")

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

    def test_written_traces_redetect_to_their_cues_and_events(self, cue_run_config,
                                                                 tmp_path, capsys):
        """Each TE trace holds what detection needs with the manifest: the
        detector run under the run's [detector] section on a trace's te_raw,
        at the instants trace_times rebuilds from the trial's manifest t0,
        gives its trial's events.csv rows, bitwise.  The cue mask is not
        written; this run of the detector is what rebuilds it."""
        from cueflow.config import load_config
        from cueflow.detector import detect_trace
        from cueflow.pipeline import MANIFEST_HEADER, te_csv_name, trace_times

        trials_dir, run_dir = tmp_path / "trials", tmp_path / "run"
        main(["synth", "--config", str(cue_run_config), "--out", str(trials_dir)])
        assert main(["run", "--config", str(cue_run_config),
                     "--trials", str(trials_dir), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        cfg, _ = load_config(cue_run_config)

        def bits(ev):
            return ev.direction, ev.start_t.hex(), ev.end_t.hex(), ev.peak_te.hex()

        written = storage.read_events_csv(run_dir / "events.csv")
        t0s = {row[0]: row[2] for row in storage.read_rows(
            run_dir / "manifest.csv", MANIFEST_HEADER, (str, str, float, float))}
        names = {te_csv_name(trial_id, direction) for trial_id in t0s
                 for direction in cfg.io.direction_list}
        assert {p.name for p in run_dir.glob("te_*.csv")} == names
        redetected = 0
        for trial_id, t0 in t0s.items():
            for direction in cfg.io.direction_list:
                te_raw = storage.read_te_csv(run_dir / te_csv_name(trial_id, direction))
                times = trace_times(t0, te_raw.size, cfg)
                trace = detect_trace(direction, times, te_raw, cfg.detector, cfg.dt)
                assert ([bits(ev) for ev in trace.events]
                        == [bits(ev) for t, ev in written
                            if t == trial_id and ev.direction == direction])
                redetected += len(trace.events)
        assert redetected == len(written) > 0

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

    def test_a_200hz_trial_keeps_its_full_duration(self, cue_run_config, tmp_path, capsys):
        """A 120 s trial recorded at the analysis rate of 200 Hz is analysed
        over its 24,001 recorded samples, so the manifest lists it at
        120.0 s, not one sample short."""
        rate = ["--set", "io.resample_hz=200", "--set", "synth.rate_hz=200"]
        trials_dir, run_dir = tmp_path / "trials", tmp_path / "run"
        assert main(["synth", "--config", str(cue_run_config), *rate,
                     "--set", "synth.n_trials=1", "--set", "synth.duration_s=120",
                     "--out", str(trials_dir)]) == 0
        assert main(["run", "--config", str(cue_run_config), *rate,
                     "--trials", str(trials_dir), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        rows = (run_dir / "manifest.csv").read_text().splitlines()
        assert rows == ["trial,scenario,t0,duration_s", "t000,cue_scenario,0.0,120.0"]

    def test_epoch_stamped_trials_run_to_their_last_instant(self, cue_run_config, tmp_path,
                                                            capsys):
        """Two 200 Hz trials stamped from a Unix-epoch t0, with a cue so
        near the end that an event ends on a trial's last instant, run
        through to every aggregate and keep their full 30.005 s."""
        settings = [f"--set={s}" for s in (
            "io.resample_hz=200", "io.directions=both", "synth.rate_hz=200",
            "synth.n_trials=2", "synth.duration_s=30.005", "synth.cue_times=8.0, 29.78",
            "detector.alpha=0.01", "detector.beta=0.05", "detector.hp_cutoff_hz=1.0")]
        trials_dir, run_dir = tmp_path / "trials", tmp_path / "run"
        assert main(["synth", "--config", str(cue_run_config), *settings,
                     "--out", str(trials_dir)]) == 0
        for f in trials_dir.glob("cue_scenario__*.csv"):
            rec = storage.load_csv(f)
            storage.write_trial_csv(TimeSeries(rec.channels, rec.data, dt=0.005,
                                               t0=1700085649.167), f)
        code = main(["run", "--config", str(cue_run_config), *settings,
                     "--trials", str(trials_dir), "--out", str(run_dir)])
        assert code == 0, capsys.readouterr().err
        rows = (run_dir / "manifest.csv").read_text().splitlines()
        assert rows[1:] == [f"t00{i},cue_scenario,1700085649.167,30.005" for i in (0, 1)]
        last = repr(1700085649.167 + 30.005)
        assert any(line.split(",")[3] == last
                   for line in (run_dir / "events.csv").read_text().splitlines())
        assert all((run_dir / f"histogram_{d}.csv").exists() for d in ("src2tgt", "tgt2src"))


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

    def test_diverging_fit_is_one_clean_error(self, cue_run_config,
                                              two_scenario_trials, tmp_path):
        """A learning rate that makes training diverge (the trainer's
        constant, set to 1e3) ends the run with exit code 2 and one message
        naming the fit stage; numpy's overflow and invalid-value warnings do
        not reach stderr (checked in a fresh interpreter, where warnings are
        printed, not raised)."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cueflow.__file__).resolve().parents[1]))
        code = ("import sys\n"
                "from cueflow import cli, models\n"
                "models.LEARNING_RATE = 1e3\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, "run", "--config", str(cue_run_config),
             "--trials", str(two_scenario_trials), "--out", str(tmp_path / "run"),
             "--set", "model.kind=mlp_gaussian"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert len(re.findall(r"stage fit .*: non-finite NLL at epoch \d+, step \d+",
                              out.stderr)) == 1
        assert "Warning" not in out.stderr
        assert "Traceback" not in out.stderr

    def test_undecodable_byte_in_a_trial(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            bad = trials_dir / "cue_scenario__t001.csv"
            raw = bytearray(bad.read_bytes())
            raw[len(raw) // 2] = 0xFF
            bad.write_bytes(bytes(raw))

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "cue_scenario__t001.csv: not utf-8 text" in err

    @pytest.mark.parametrize("header, named", [
        (b"", "cue_scenario__t000.csv: empty file"),
        (b"time,leader_vx\r\n", "cue_scenario__t000.csv: first column must be 't'"),
        (b"t,leader_\xffvx\r\n", "cue_scenario__t000.csv: not utf-8 text"),
    ])
    def test_bad_header_of_the_first_trial(self, cue_config, tmp_path, capsys,
                                           header, named):
        """The first trial's header, which the configured channels are
        checked against, is read with load_csv's checks."""
        def corrupt(trials_dir):
            first = trials_dir / "cue_scenario__t000.csv"
            body = first.read_bytes().split(b"\n", 1)[1] if header else b""
            first.write_bytes(header + body)

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert named in err

    def test_non_numeric_trim_metadata(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            (trials_dir / "trials.meta").write_text("trim_start_s.t000=abc\n")

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "trim_start_s.t000='abc' is not a finite number" in err

    def test_repeated_trim_key(self, cue_config, tmp_path, capsys):
        def corrupt(trials_dir):
            (trials_dir / "trials.meta").write_text("trim_start_s.t000=1.0\n"
                                                    "trim_start_s.t000=2.0\n")

        code, err = self.run_corrupted(corrupt, cue_config, tmp_path, capsys)
        assert code == 2
        assert "trials.meta: line 2 repeats key 'trim_start_s.t000'" in err

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
        ("t000,driven,abc,20.0", "numeric parse error at row 1"),
        ("t000,driven", "row 1 has 2 fields, expected 4"),
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


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trace_value_under_report(self, cue_run_config, two_scenario_trials,
                                                 tmp_path, capsys, value):
        """A trace whose te_raw holds a non-finite value is named by file and
        row, rows counted from 1 after the header with blank lines included."""
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0
        trace = run_dir / "te_t001_src2tgt.csv"
        lines = trace.read_text().splitlines(keepends=True)
        lines[5] = f"{value}\n"
        lines.insert(2, "\n")
        trace.write_text("".join(lines))
        capsys.readouterr()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{trace}: te_raw value {value} at row 6 is not finite" in err


    def test_huge_duration_under_report(self, cue_run_config, two_scenario_trials,
                                        tmp_path, capsys):
        """A manifest duration too long to histogram at ``bin_dt`` is named
        by the manifest and its row, not a numpy traceback."""
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0
        manifest = run_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[1] = ",".join([*lines[1].split(",")[:3], "1e300"])
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"{manifest}: row 1: bin_dt = 1.0 over duration_s 1e+300 gives 1e+300 bins, "
                "more than a numpy array can index") in err

    def test_corrupt_run_directory_under_report(self, cue_run_config, two_scenario_trials,
                                                tmp_path, capsys):
        """Each numeric field of one events.csv row and one manifest.csv row
        set to nan, inf and -inf in turn, and each row that disagrees with
        the others, stops ``report`` with exit code 2 and a message naming
        the file and the row, not a traceback."""
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0

        def row(name, index):
            lines = (run_dir / name).read_text().splitlines()
            return dict(zip(lines[0].split(","), lines[index].split(",")))

        event, entry = row("events.csv", 2), row("manifest.csv", 1)
        start = float(event["start_t"])
        cases = [(name, {column: value}, f"{column} value {value} at row 2 is not finite")
                 for value in ("nan", "inf", "-inf")
                 for name, columns in (("events.csv", ("start_t", "end_t", "peak_te")),
                                       ("manifest.csv", ("t0", "duration_s")))
                 for column in columns]
        cases += [
            ("events.csv", {"trial": "t999"}, "row 2: trial 't999' is not in manifest.csv"),
            ("events.csv", {"direction": "sideways"},
             "row 2: direction 'sideways' is neither src2tgt nor tgt2src"),
            ("events.csv", {"end_t": repr(start - 0.5)},
             f"row 2: end_t {start - 0.5!r} is before start_t {start!r}"),
            ("events.csv", {"start_t": "1000.0", "end_t": "1000.5"},
             f"row 2: event [1000.0, 1000.5] is outside trial {event['trial']!r}"),
            ("manifest.csv", {"trial": entry["trial"]},
             f"row 2: trial {entry['trial']!r} is listed again"),
            ("manifest.csv", {"duration_s": "-1.0"}, "row 2: duration_s -1.0 is not positive"),
        ]
        for k, (name, fields, message) in enumerate(cases):
            case_dir = tmp_path / f"case{k}"
            shutil.copytree(run_dir, case_dir)
            lines = (case_dir / name).read_text().splitlines()
            lines[2] = ",".join(dict(zip(lines[0].split(","), lines[2].split(",")),
                                     **fields).values())
            (case_dir / name).write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            code = main(["report", "--config", str(cue_run_config), "--events",
                         str(case_dir), "--out", str(tmp_path / f"rep{k}")])
            err = capsys.readouterr().err
            assert (code, "Traceback" in err) == (2, False), (name, fields, err)
            assert f"{case_dir / name}: {message}" in err, (name, fields, err)

    def test_event_ending_on_the_last_instant_of_an_epoch_stamped_trial(
            self, cue_run_config, tmp_path, capsys):
        """An event that ends on its trial's last instant lies within the
        trial, also where ``t0 + duration_s`` is far from 0 and the span
        ``end_t - t0`` rounds past ``duration_s``, as on a Unix-epoch clock."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.csv").write_text("trial,scenario,t0,duration_s\n"
                                              "t1,s,1700144159.613,143.055\n")
        (run_dir / "events.csv").write_text("trial,direction,start_t,end_t,peak_te\n"
                                            "t1,src2tgt,1700144302.658,1700144302.668,1.0\n")
        code = main(["report", "--config", str(cue_run_config), "--events", str(run_dir),
                     "--out", str(tmp_path / "rep")])
        assert code == 0, capsys.readouterr().err

    def test_event_starting_before_an_epoch_stamped_trial(self, cue_run_config, tmp_path,
                                                          capsys):
        """An event that starts one sample before its trial's first instant
        lies outside the trial, also on a Unix-epoch clock."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.csv").write_text("trial,scenario,t0,duration_s\n"
                                              "t1,s,1700144159.613,143.055\n")
        (run_dir / "events.csv").write_text("trial,direction,start_t,end_t,peak_te\n"
                                            "t1,src2tgt,1700144159.608,1700144159.618,1.0\n")
        code = main(["report", "--config", str(cue_run_config), "--events", str(run_dir),
                     "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert (code, "Traceback" in err) == (2, False), err
        assert (f"{run_dir / 'events.csv'}: row 1: event [1700144159.608, 1700144159.618] "
                "is outside trial 't1'") in err


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


class TestReportReadsBeforeWriting:
    """``report`` reads a trace only for the peak-TE report it will write,
    and reads every input before its first file, so a report that exits 2
    leaves ``--out`` as it found it."""

    def run_dir(self, cue_run_config, trials_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(trials_dir), "--out", str(run_dir)]) == 0
        return run_dir

    def test_traces_without_a_report_due_are_not_read(self, cue_run_config,
                                                      two_scenario_trials, tmp_path,
                                                      capsys):
        """With one null trial no peak-TE report is due, so its trace is
        not needed: the report builds the histograms without it."""
        (two_scenario_trials / "null__t003.csv").unlink()
        run_dir = self.run_dir(cue_run_config, two_scenario_trials, tmp_path)
        (run_dir / "te_t002_src2tgt.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 0
        assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [
            "histogram_src2tgt.csv", "histogram_src2tgt.csv.meta",
            "histogram_tgt2src.csv", "histogram_tgt2src.csv.meta"]
        for rebuilt in (tmp_path / "rep").iterdir():
            assert rebuilt.read_bytes() == (run_dir / rebuilt.name).read_bytes()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda trace: trace.unlink(), "cannot read {trace}"),
        (lambda trace: trace.write_text("t,te_raw\n" + "".join(
            f"{k / 10!r},{v}" for k, v in enumerate(trace.read_text().splitlines(True)[1:]))),
         "{trace}: header ['t', 'te_raw'] does not match ['te_raw']"),
    ], ids=["missing", "t_column"])
    def test_a_failed_report_writes_nothing(self, cue_run_config, two_scenario_trials,
                                            tmp_path, capsys, corrupt, message):
        """A trace the peak-TE report needs that is gone, or that holds the
        older ``t,te_raw`` layout, stops the report with exit code 2 naming
        the file (and the header), before any histogram is written."""
        run_dir = self.run_dir(cue_run_config, two_scenario_trials, tmp_path)
        trace = run_dir / "te_t003_tgt2src.csv"
        corrupt(trace)
        capsys.readouterr()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message.format(trace=trace) in err
        assert list((tmp_path / "rep").iterdir()) == []


class TestReportOfAGrid:
    GRID = ["--set", "aggregate.cell_size_m=0.25",
            "--set", "aggregate.position_channels=follower_px, follower_py"]

    def test_a_grid_needs_trials(self, cue_run_config, two_scenario_trials, tmp_path,
                                 capsys):
        """Without ``--trials`` a configured grid is refused before ``--out``
        is made, not skipped; with both grid keys unset, the report rebuilds
        the run's other aggregates alone."""
        run_dir, out = tmp_path / "run", tmp_path / "rep"
        assert main(["run", "--config", str(cue_run_config), *self.GRID, "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        report = ["report", "--config", str(cue_run_config), *self.GRID,
                  "--events", str(run_dir), "--out", str(out)]
        assert main(report) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "[aggregate] cell_size_m sets a spatial grid: report needs --trials" in err
        assert not out.exists()
        assert main([*report, "--set", "aggregate.cell_size_m=",
                     "--set", "aggregate.position_channels="]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "histogram_src2tgt.csv", "histogram_src2tgt.csv.meta",
            "histogram_tgt2src.csv", "histogram_tgt2src.csv.meta", "peak_te_report.csv"]
        for rebuilt in out.iterdir():
            assert rebuilt.read_bytes() == (run_dir / rebuilt.name).read_bytes()


class TestPartialRun:
    def test_a_failed_run_leaves_no_manifest(self, cue_run_config, two_scenario_trials,
                                             tmp_path, capsys):
        """Traces are written trial by trial, and ``events.csv`` and
        ``manifest.csv`` last: a run whose last trial fails at stage te
        leaves the earlier traces but no manifest, which ``report`` refuses."""
        last = two_scenario_trials / "null__t003.csv"
        # Five samples: one embedded row, too few for the detector.  Pooled
        # with t002 the scenario still fits.
        last.write_text("".join(last.read_text().splitlines(keepends=True)[:6]))
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "trial 't003', stage te (src2tgt)" in err
        assert (run_dir / "te_t002_tgt2src.csv").is_file()
        assert not (run_dir / "manifest.csv").exists()
        assert not (run_dir / "events.csv").exists()
        assert main(["report", "--config", str(cue_run_config), "--events",
                     str(run_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"missing manifest {run_dir / 'manifest.csv'}" in err


class TestUnwritableOutputExits2:
    """An output file that cannot be written, here because a directory holds
    its name, is a data error naming the file, not a traceback."""

    @pytest.mark.parametrize("blocked", ["te_t000_src2tgt.csv", "events.csv",
                                         "manifest.csv", "peak_te_report.csv"])
    def test_run(self, cue_run_config, two_scenario_trials, tmp_path, capsys, blocked):
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot write {out / blocked}: " in err

    @pytest.mark.parametrize("blocked", ["truth.csv", "cue_scenario__t001.csv"])
    def test_synth(self, cue_config, tmp_path, capsys, blocked):
        out = tmp_path / "trials"
        (out / blocked).mkdir(parents=True)
        assert main(["synth", "--config", str(cue_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot write {out / blocked}: " in err


class TestImpossibleSizesExit2:
    """A size that asks numpy for far more memory than any machine has ends
    the command with exit code 2 and one error line naming it, not a
    traceback.  Every size here fails at once: each asks for tens of TiB."""

    def assert_one_error_line(self, capsys, command):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR cueflow.cli: {command}: out of memory: "
                                    "Unable to allocate ")

    def test_synth_at_a_huge_rate(self, cue_config, tmp_path, capsys):
        assert main(["synth", "--config", str(cue_config), "--set", "synth.rate_hz=1e12",
                     "--out", str(tmp_path / "trials")]) == 2
        self.assert_one_error_line(capsys, "synth")

    def test_synth_of_a_huge_var1_draw(self, var1_config, tmp_path, capsys):
        assert main(["synth", "--config", str(var1_config),
                     "--set", "synth.n=10000000000000",
                     "--out", str(tmp_path / "trials")]) == 2
        self.assert_one_error_line(capsys, "synth")

    @pytest.mark.parametrize("overrides", [
        ["io.resample_hz=1e12", "embedding.delta_s=1"],
        ["model.kind=mlp_gaussian", "model.hidden=1000000000000"],
    ])
    def test_run(self, cue_run_config, two_scenario_trials, tmp_path, capsys,
                 overrides):
        capsys.readouterr()
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(tmp_path / "run"),
                     *sets]) == 2
        self.assert_one_error_line(capsys, "run")


class TestSynthInputsExit2:
    """A ``[synth]`` setting that no series can be made from is named where
    it enters, with exit code 2; ``synth`` and ``oracle`` apply one set of
    rules."""

    def assert_named(self, capsys, message):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"ERROR cueflow.cli: [synth] {message}" in err

    @pytest.mark.parametrize("command", ["synth", "oracle"])
    def test_single_sample_var1_draw(self, var1_config, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "trials")] if command == "synth" else []
        assert main([command, "--config", str(var1_config),
                     "--set", "synth.n=1", *out]) == 2
        self.assert_named(capsys, "n must be at least 2, got 1")

    def test_broken_cue_rule_names_the_section(self, cue_config, tmp_path, capsys):
        assert main(["synth", "--config", str(cue_config), "--set", "synth.cue_times=99",
                     "--out", str(tmp_path / "trials")]) == 2
        self.assert_named(capsys, "cue time 99.0 outside [0, ")

    @pytest.mark.parametrize("key, value, message", [
        ("amplitude", "nan", "amplitude must be finite, got nan"),
        ("response_delay_s", "nan", "response_delay_s must be non-negative and finite"),
        ("noise_sigma", "inf", "noise_sigma must be non-negative and finite"),
    ])
    def test_non_finite_cue_setting(self, cue_config, tmp_path, capsys, key, value,
                                    message):
        assert main(["synth", "--config", str(cue_config), "--set", f"synth.{key}={value}",
                     "--out", str(tmp_path / "trials")]) == 2
        self.assert_named(capsys, message)

    @pytest.mark.parametrize("command", ["synth", "oracle"])
    def test_non_finite_var1_matrix(self, var1_config, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "trials")] if command == "synth" else []
        assert main([command, "--config", str(var1_config),
                     "--set", "synth.a=0.5,0.5,0,nan", *out]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "A and Q must be finite" in err


class TestOtherKindsSynthKeysExit2:
    @pytest.mark.parametrize("command", ["synth", "oracle", "validate", "run", "report"])
    def test_every_command_refuses_them(self, cue_config, tmp_path, capsys, command):
        """A ``[synth]`` key the chosen kind does not read is refused when
        the config is parsed, before any command reads or writes a file."""
        out = tmp_path / "out"
        args = {"synth": ["--out", str(out)], "oracle": [], "validate": [],
                "run": ["--trials", str(tmp_path), "--out", str(out)],
                "report": ["--events", str(tmp_path), "--out", str(out)]}[command]
        assert main([command, "--config", str(cue_config), "--set", "synth.a=0.9,0.9,0.9,0.9",
                     "--set", "synth.n=5", *args]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "ERROR cueflow.cli: [synth] kind cue_scenario does not read keys ['a', 'n']" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("override, named", [
        ("synth.seed=-1", "[synth] seed must be non-negative"),
        ("synth.amplitude=nan", "[synth] amplitude must be finite"),
    ])
    def test_a_bad_spec_exits_2_before_writing(self, cue_config, tmp_path, capsys,
                                               override, named):
        """A rule of the section (seed) or of the generator (amplitude)."""
        out_dir = tmp_path / "trials"
        assert main(["synth", "--config", str(cue_config), "--set", override,
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err
        assert not out_dir.exists()

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
        """A broken rule stops the parse: it is named on stderr, as every
        other config error is, and nothing reaches stdout."""
        assert main(["validate", "--config", str(var1_config),
                     "--set", "detector.hp_cutoff_hz=60"]) == 2
        captured = capsys.readouterr()
        assert "[detector] hp_cutoff_hz=60.0 must be below Nyquist" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("override", ["io.target_channels=x, x",
                                          "io.source_channels=y, y"])
    def test_a_channel_named_twice_in_one_role(self, var1_config, override, capsys):
        assert main(["validate", "--config", str(var1_config), "--set", override]) == 2
        key = override.split("=")[0].split(".")[1]
        assert f"[io] {key} names a channel twice" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(
        [*Path(__file__).resolve().parents[1].glob("presets/*.ini"),
         *Path(__file__).resolve().parents[1].glob("perfbench/*.ini")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_every_shipped_config_validates(self, path, capsys):
        """Every preset and benchmark workload config passes the parse-time
        rules; read only."""
        assert main(["validate", "--config", str(path)]) == 0
        assert "OK: 0 error(s), 0 warning(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("override, named", [
        ("detector.gamma=-1", "[detector] gamma"),
        ("detector.hp_cutoff_hz=-1", "[detector] hp_cutoff_hz"),
        ("embedding.d=0", "[embedding] embedding order d"),
        ("io.resample_hz=inf", "[io] resample_hz"),
        ("aggregate.bin_dt=0", "[aggregate] bin_dt"),
        ("aggregate.bin_dt=1e-300", "[aggregate] bin_dt"),
        ("aggregate.bin_dt=0.009", "[aggregate] bin_dt"),
        ("aggregate.cell_size_m=0", "[aggregate] cell_size_m"),
        ("aggregate.cell_size_m=0.5", "[aggregate] cell_size_m and position_channels"),
        ("aggregate.position_channels=px, py",
         "[aggregate] cell_size_m and position_channels"),
        ("detector.skip_warmup=no", "unknown key 'skip_warmup' in [detector]"),
        ("io.seed=-1", "[io] seed"),
    ])
    def test_every_rule_of_run_is_checked(self, var1_config, override, named,
                                          capsys):
        assert main(["validate", "--config", str(var1_config),
                     "--set", override]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert named in captured.out + captured.err

    @pytest.mark.parametrize("key", ["learning_rate", "batch_size"])
    @pytest.mark.parametrize("where", ["section", "--set"])
    def test_run_refuses_a_trainer_constant_as_a_key(
            self, cue_run_config, two_scenario_trials, tmp_path, capsys, key, where):
        """The network's Adam step and batch rows are constants of the
        trainer, not ``[model]`` keys: naming either, in the file or in
        ``--set``, exits 2 naming the key before ``--out`` is made."""
        overrides = []
        if where == "section":
            cue_run_config.write_text(
                CUE_RUN_INI.replace("[model]\n", f"[model]\n{key} = 1\n"))
        else:
            overrides = ["--set", f"model.{key}=1"]
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), *overrides,
                     "--trials", str(two_scenario_trials),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

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
        assert "[detector] gamma must be positive" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, named", [
        ("detector.hp_cutoff_hz=5", "[detector] hp_cutoff_hz=5.0 must be below Nyquist"),
        ("embedding.delta_s=0.15", "[embedding] delta_s=0.15 is not an integer multiple"),
        ("model.te_mode=other", "te_mode must be one of"),
        ("detector.alpha=1", "[detector] alpha must lie in (0, 1)"),
        ("aggregate.bin_dt=0", "[aggregate] bin_dt must be positive"),
        ("aggregate.cell_size_m=-1", "[aggregate] cell_size_m must be positive"),
        ("aggregate.cell_size_m=0.5",
         "[aggregate] cell_size_m and position_channels must be set together"),
    ])
    def test_run_rejects_a_bad_section_before_reading_trials(
            self, cue_run_config, two_scenario_trials, tmp_path, capsys, monkeypatch,
            override, named):
        """The section rules are checked at parse, and only there, so ``run``
        exits 2 before it reads a trial CSV or makes ``--out``."""
        def no_load(*args, **kwargs):
            raise AssertionError("trials were read")

        monkeypatch.setattr(storage, "load_trial_dir", no_load)
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--set", override,
                     "--trials", str(two_scenario_trials),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err
        assert not (tmp_path / "run").exists()

    def test_a_misspelled_position_channel_stops_run_and_report_at_prepare(
            self, cue_run_config, two_scenario_trials, tmp_path, capsys, monkeypatch):
        """``run`` and ``report --trials`` check every configured channel
        against the trial directory's header before any trial body is
        parsed, so before any stage writes a file."""
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cue_run_config), "--trials",
                     str(two_scenario_trials), "--out", str(run_dir)]) == 0

        def no_parse(*args, **kwargs):
            raise AssertionError("a trial body was parsed")

        monkeypatch.setattr(storage, "load_csv", no_parse)
        bad = ["--set", "aggregate.cell_size_m=0.25",
               "--set", "aggregate.position_channels=px, follower_py"]
        named = "[aggregate] position_channels names channel 'px', which the trials lack"
        for argv, out in (
                (["run", "--trials", str(two_scenario_trials)], tmp_path / "bad_run"),
                (["report", "--events", str(run_dir), "--trials", str(two_scenario_trials)],
                 tmp_path / "bad_rep")):
            capsys.readouterr()
            assert main([*argv, "--config", str(cue_run_config), *bad,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert named in err
            assert list(out.iterdir()) == []

    def test_run_rejects_a_sub_sample_bin_before_fitting(
            self, cue_run_config, two_scenario_trials, tmp_path, capsys,
            monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("models were fitted")

        monkeypatch.setattr("cueflow.pipeline.fit_models", no_fit)
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), "--set",
                     "aggregate.bin_dt=1e-300", "--trials", str(two_scenario_trials),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "[aggregate] bin_dt must be at least one sample" in err
        assert not (tmp_path / "run").exists()


class TestArraysTooLargeToIndexExit2:
    """A rate or cell size that passes ``validate`` but asks numpy for more
    items than an array can index is a data error naming the setting."""

    @pytest.mark.parametrize("overrides, named", [
        (["io.resample_hz=1e300"], "stage prepare: resample_hz = 1e+300 gives"),
        (["aggregate.cell_size_m=1e-300",
          "aggregate.position_channels=follower_px, follower_py"],
         "cell_size_m = 1e-300 gives"),
    ])
    def test_run(self, cue_run_config, two_scenario_trials, tmp_path, capsys,
                 overrides, named):
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert main(["validate", "--config", str(cue_run_config), *sets]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(cue_run_config), *sets, "--trials",
                     str(two_scenario_trials), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err

    def test_synth(self, cue_config, tmp_path, capsys):
        assert main(["synth", "--config", str(cue_config), "--set", "synth.duration_s=1e300",
                     "--out", str(tmp_path / "trials")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("duration_s = 1e+300 at rate_hz = 10.0 gives 1e+302 tracking-loop "
                "samples, more than a numpy array can index") in err


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

    def test_importing_the_package_loads_no_numpy(self):
        """So that ``cueflow.cli`` runs its BLAS pin before numpy loads."""
        assert self.fresh("import sys, cueflow; print('numpy' in sys.modules)",
                          None) == "False"

    @pytest.mark.parametrize("imports, preset, expected", [
        ("cueflow.cli", None, "1"),
        ("cueflow.cli", "3", "3"),
        # What perfbench's harness imports before its BLAS reference pass.
        ("cueflow.config, cueflow.storage, cueflow.synth", None, "None"),
    ])
    def test_only_the_cli_pins_blas_threads(self, imports, preset, expected):
        """The CLI runs OpenBLAS on one thread unless the environment says
        otherwise; importing the library leaves the environment alone."""
        code = f"import os, {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self.fresh(code, preset) == expected

    @staticmethod
    def fresh(code, blas_threads):
        """stdout of ``code`` in a new interpreter whose environment sets
        OPENBLAS_NUM_THREADS to ``blas_threads`` (unset when None)."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(cueflow.__file__).resolve().parents[1])
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        return out.stdout.strip()

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
        assert self.loaded_after(commands, ["scipy"]) == [
            [argv[0], 0, []] for argv in commands]
        for directory in (run_dir, rep_dir):
            assert (directory / "peak_te_report.csv").exists()

    def test_run_report_and_validate_load_neither_synth_nor_numpy_ma(
            self, cue_run_config, two_scenario_trials, tmp_path):
        """Only synth and oracle import cueflow.synth, and load_csv takes its
        median without np.median, which imports numpy.ma.  On a var_linear
        config nothing imports numpy.random either: it loads hashlib and
        libcrypto, and only MLP fits draw from it."""
        run_dir = tmp_path / "run"
        commands = [
            ["validate", "--config", str(cue_run_config)],
            ["run", "--config", str(cue_run_config), "--trials",
             str(two_scenario_trials), "--out", str(run_dir)],
            ["report", "--config", str(cue_run_config), "--events", str(run_dir),
             "--out", str(tmp_path / "rep"), "--trials", str(two_scenario_trials)],
        ]
        assert self.loaded_after(commands, ["cueflow.synth", "numpy.ma", "numpy.random"]) == [
            [argv[0], 0, []] for argv in commands]

    @staticmethod
    def loaded_after(commands, packages):
        """Run each command through ``main`` in turn in one new interpreter;
        for each, its name, its exit code and the modules of ``packages``
        loaded by its end."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cueflow.__file__).resolve().parents[1]))
        code = ("import json, sys\n"
                "from cueflow.cli import main\n"
                "commands, packages = json.loads(sys.argv[1])\n"
                "for argv in commands:\n"
                "    code = main(argv)\n"
                "    loaded = sorted(m for m in sys.modules for p in packages\n"
                "                    if m == p or m.startswith(p + '.'))\n"
                "    print(json.dumps([argv[0], code, loaded]), file=sys.stderr)\n")
        out = subprocess.run([sys.executable, "-c", code,
                              json.dumps([commands, packages])],
                             env=env, check=True, capture_output=True, text=True,
                             timeout=120)
        return [json.loads(line) for line in out.stderr.splitlines()
                if line.startswith("[")]

    @pytest.mark.parametrize("override", [
        "model.epochs=0", "model.hidden=0",
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

    @pytest.mark.parametrize("argv", [
        ["run", "--trials", "trials", "--out", "run"],
        ["synth", "--out", "synth"],
        ["oracle"],
        ["validate"],
        ["report", "--events", "run", "--out", "report"],
    ], ids=lambda argv: argv[0])
    def test_verbose_is_not_a_flag(self, var1_config, tmp_path, capsys, argv):
        """Nothing logs below INFO, so no flag raises the verbosity: given
        every other argument its command needs, ``--verbose`` is a usage
        error, and nothing is written."""
        command, *rest = argv
        args = [a if a.startswith("--") else str(tmp_path / a) for a in rest]
        assert main([command, "--config", str(var1_config), *args, "--verbose"]) == 1
        assert "usage error: unrecognized arguments: --verbose" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [var1_config]

    def test_malformed_override(self, var1_config):
        assert main(["validate", "--config", str(var1_config),
                     "--set", "alpha=0.5"]) == 2
