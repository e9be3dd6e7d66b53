"""CSV persistence round-trips for traces, events, aggregates, and trial dirs."""
import dataclasses

import numpy as np
import pytest

from cueflow.aggregate import CueGrid, CueHistogram, WelchResult, PeakTeReport
from cueflow.detector import CueEvent, DetectionTrace, DetectorConfig, detect_trace
from cueflow.errors import DataFormatError
from cueflow.storage import (load_trial_dir, read_events_csv, read_grid_csv,
                             read_histogram_csv, read_report_csv, read_te_csv,
                             write_events_csv, write_grid_csv,
                             write_histogram_csv, write_report_csv,
                             write_te_csv, write_trial_dir)
from cueflow.te import TeSeries
from cueflow.timeseries import TimeSeries, Trial, TrialSet


def sample_trace():
    """A real detector output, so the round-trip covers NaN thresholds and events."""
    rng = np.random.default_rng(5)
    n = 400
    te = rng.standard_normal(n) * 0.05
    te[200:215] += 2.0
    series = TeSeries(direction="src2tgt", times=0.01 * np.arange(n),
                      te_raw=te, mode="entropy_diff")
    cfg = DetectorConfig(alpha=0.05, beta=0.1, gamma=3.0, hp_cutoff_hz=1.0,
                         dt=0.01, skip_warmup=False)
    return detect_trace(series, cfg)


class TestTeCsv:
    def test_round_trip_is_exact(self, tmp_path):
        """Every trace field but the events (which events.csv holds) reads
        back bitwise, so a field the CSV does not store fails here."""
        trace = sample_trace()
        path = tmp_path / "te_t0_src2tgt.csv"
        write_te_csv(trace, path)
        back = read_te_csv(path, direction=trace.direction)
        for f in dataclasses.fields(DetectionTrace):
            if f.name == "events":
                continue
            got, want = getattr(back, f.name), getattr(trace, f.name)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray), f.name
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name

    def test_bytes_match_csv_writer_of_repr(self, tmp_path):
        """Bulk formatting writes exactly what csv.writer writes for repr()
        fields, NaN, signed zero, subnormals and large magnitudes included."""
        import csv

        special = [float("nan"), -0.0, 1e-5, 1e16, 5e-324, 0.1, -2.5, 123456789.125]
        n = len(special)
        trace = DetectionTrace(direction="src2tgt", times=0.005 * np.arange(n),
                               te_raw=np.array(special), te_filtered=-np.array(special),
                               threshold=np.array(special[::-1]),
                               cue=np.arange(n) % 3 == 0)
        path = tmp_path / "te.csv"
        write_te_csv(trace, path)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "te_raw", "te_filtered", "threshold", "cue"])
            for row in zip(trace.times, trace.te_raw, trace.te_filtered,
                           trace.threshold, trace.cue):
                writer.writerow([repr(float(x)) for x in row[:4]] + [int(row[4])])
        assert path.read_bytes() == ref.read_bytes()

    def test_arrays_match_the_float_loop_bit_for_bit(self, tmp_path):
        """NaN thresholds, signed zero, subnormals, large magnitudes, quoted
        fields, blank lines and CRLF line ends read back as csv.reader +
        float() read them."""
        import csv

        path = tmp_path / "te.csv"
        path.write_bytes(b"t,te_raw,te_filtered,threshold,cue\r\n"
                         b"0.0,-0.0,5e-324,nan,0\r\n"
                         b"\r\n"
                         b'0.005,"1e16",-1e-05,nan,1\r\n'
                         b"0.01,0.1,-0.0,1.7976931348623157e308,\"0\"\r\n"
                         b"\r\n\r\n")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            ref = np.array([[float(v) for v in row] for row in reader if row])
        back = read_te_csv(path)
        for got, col in ((back.times, 0), (back.te_raw, 1), (back.te_filtered, 2),
                         (back.threshold, 3)):
            assert got.tobytes() == ref[:, col].tobytes()
        np.testing.assert_array_equal(back.cue, ref[:, 4] != 0.0)

    def test_header_only_trace_is_an_error_without_warning(self, tmp_path):
        import warnings

        path = tmp_path / "te.csv"
        path.write_text("t,te_raw,te_filtered,threshold,cue\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no samples"):
                read_te_csv(path)

    @pytest.mark.parametrize("row, match", [
        ("0.0,1,2,3", "row 2 has 4 fields, expected 5"),
        ("0.0,1,2,x,0", "numeric parse error at row 2"),
    ])
    def test_bad_row_is_named(self, tmp_path, row, match):
        path = tmp_path / "te.csv"
        path.write_text("t,te_raw,te_filtered,threshold,cue\n0.0,1,2,nan,0\n"
                        + row + "\n")
        with pytest.raises(DataFormatError, match=match):
            read_te_csv(path)

    def test_nan_threshold_survives(self, tmp_path):
        trace = sample_trace()
        assert np.isnan(trace.threshold[0])  # no history at the first sample
        path = tmp_path / "te.csv"
        write_te_csv(trace, path)
        assert np.isnan(read_te_csv(path, direction="src2tgt").threshold[0])


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        events = [
            ("t000", CueEvent(start_t=1.25, end_t=1.5, peak_te=0.75,
                              direction="src2tgt")),
            ("t001", CueEvent(start_t=0.1, end_t=0.30000000000000004,
                              peak_te=1e-12, direction="tgt2src")),
        ]
        path = tmp_path / "events.csv"
        write_events_csv(events, path)
        back = read_events_csv(path)
        assert back == events

    def test_empty_file_keeps_header(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv([], path)
        assert path.read_text().startswith("trial,")
        assert read_events_csv(path) == []


class TestGridCsv:
    def test_round_trip_sparse(self, tmp_path):
        counts = np.zeros((4, 3), dtype=int)
        counts[2, 1] = 7
        counts[0, 0] = 1
        grid = CueGrid(origin=(-1.5, 2.0), cell_size_m=0.5, counts=counts,
                       direction="src2tgt")
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        back = read_grid_csv(path)
        assert back.origin == grid.origin
        assert back.cell_size_m == grid.cell_size_m
        assert back.direction == grid.direction
        np.testing.assert_array_equal(back.counts, grid.counts)

    def test_only_nonzero_cells_are_written(self, tmp_path):
        counts = np.zeros((10, 10), dtype=int)
        counts[2, 3] = 1
        grid = CueGrid(origin=(0.0, 0.0), cell_size_m=1.0, counts=counts,
                       direction="")
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["ix,iy,count", "2,3,1"]

    def test_missing_sidecar_is_an_error(self, tmp_path):
        grid = CueGrid(origin=(0.0, 0.0), cell_size_m=1.0,
                       counts=np.zeros((2, 2), dtype=int), direction="")
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        (tmp_path / "grid.csv.meta").unlink()
        with pytest.raises(DataFormatError):
            read_grid_csv(path)


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        hist = CueHistogram(bin_dt=0.5, counts=np.array([0, 3, 12, 1]),
                            n_trials=12, direction="tgt2src")
        path = tmp_path / "histogram.csv"
        write_histogram_csv(hist, path)
        back = read_histogram_csv(path)
        assert back.bin_dt == hist.bin_dt
        assert back.n_trials == hist.n_trials
        assert back.direction == hist.direction
        np.testing.assert_array_equal(back.counts, hist.counts)
        np.testing.assert_allclose(back.bin_starts, [0.0, 0.5, 1.0, 1.5])


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        report = PeakTeReport(rows=(
            ("src2tgt", WelchResult(t_stat=-1.0, dof=8.0,
                                    p_value=0.34659350708733416, n_a=5, n_b=5)),
            ("tgt2src", WelchResult(t_stat=0.25, dof=17.5,
                                    p_value=0.8056, n_a=10, n_b=12)),
        ))
        path = tmp_path / "peak_te_report.csv"
        write_report_csv(report, path)
        back = read_report_csv(path)
        for (d_in, r_in), (d_out, r_out) in zip(report.rows, back.rows):
            assert d_in == d_out
            assert r_out.t_stat == r_in.t_stat
            assert r_out.p_value == r_in.p_value
            assert (r_out.n_a, r_out.n_b) == (r_in.n_a, r_in.n_b)
            assert np.isnan(r_out.dof)  # dof is not persisted

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "peak_te_report.csv"
        path.write_text("direction,whatever\nsrc2tgt,1\n")
        with pytest.raises(DataFormatError):
            read_report_csv(path)


class TestTrialDir:
    def trial(self, tid, scenario, seed):
        rng = np.random.default_rng(seed)
        series = TimeSeries(channels=("x", "y"),
                            data=rng.standard_normal((25, 2)), dt=0.05)
        return Trial(trial_id=tid, scenario=scenario, series=series)

    def test_round_trip_with_scenarios_and_metadata(self, tmp_path):
        trials = TrialSet(
            trials=(self.trial("t000", "baseline", 0),
                    self.trial("t001", "baseline", 1),
                    self.trial("t002", "cued", 2)),
            metadata={"trim_start_s.t002": "0.25", "note": "smoke"},
        )
        out = tmp_path / "trials"
        write_trial_dir(trials, out)
        stems = sorted(p.name for p in out.glob("*.csv"))
        assert stems == ["baseline__t000.csv", "baseline__t001.csv",
                         "cued__t002.csv"]
        back = load_trial_dir(out)
        assert back.metadata == trials.metadata
        assert [t.trial_id for t in back] == ["t000", "t001", "t002"]
        assert [t.scenario for t in back] == ["baseline", "baseline", "cued"]
        for a, b in zip(trials, back):
            np.testing.assert_array_equal(a.series.data, b.series.data)

    def test_plain_stems_have_empty_scenario(self, tmp_path):
        d = tmp_path / "trials"
        d.mkdir()
        (d / "walk01.csv").write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        back = load_trial_dir(d)
        assert back.trials[0].trial_id == "walk01"
        assert back.trials[0].scenario == ""

    def test_truth_table_is_not_a_trial(self, tmp_path):
        """The ground-truth sidecar written next to synthetic trials must not
        be parsed as a trial itself."""
        d = tmp_path / "trials"
        d.mkdir()
        (d / "walk01.csv").write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        (d / "truth.csv").write_text("trial,start_t,end_t\nwalk01,2.0,2.35\n")
        back = load_trial_dir(d)
        assert [t.trial_id for t in back] == ["walk01"]


class TestUndecodableBytes:
    """A byte that is not text, in any file storage reads, names the file."""

    def corrupt(self, path):
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] = 0xFF
        path.write_bytes(bytes(raw))

    def test_trial_metadata(self, tmp_path):
        d = tmp_path / "trials"
        d.mkdir()
        (d / "walk01.csv").write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        (d / "trials.meta").write_bytes(b"note=\xff\n")
        with pytest.raises(DataFormatError, match=r"trials\.meta: not utf-8 text"):
            load_trial_dir(d)

    def test_sidecar(self, tmp_path):
        hist = CueHistogram(bin_dt=0.5, counts=np.array([0, 3]), n_trials=3,
                            direction="src2tgt")
        path = tmp_path / "histogram.csv"
        write_histogram_csv(hist, path)
        self.corrupt(tmp_path / "histogram.csv.meta")
        with pytest.raises(DataFormatError,
                           match=r"histogram\.csv\.meta: not utf-8 text"):
            read_histogram_csv(path)

    def test_rows_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv([("t000", CueEvent(start_t=1.25, end_t=1.5, peak_te=0.75,
                                            direction="src2tgt"))], path)
        self.corrupt(path)
        with pytest.raises(DataFormatError, match=r"events\.csv: not utf-8 text"):
            read_events_csv(path)


class TestBadRows:
    """A malformed row in an aggregate product names the file and the row."""

    def written(self, tmp_path, kind):
        if kind == "histogram":
            path = tmp_path / "histogram.csv"
            write_histogram_csv(CueHistogram(bin_dt=0.5, counts=np.array([0, 3]),
                                             n_trials=3, direction="src2tgt"), path)
            return path, read_histogram_csv
        if kind == "grid":
            path = tmp_path / "grid.csv"
            write_grid_csv(CueGrid(origin=(0.0, 0.0), cell_size_m=1.0,
                                   counts=np.ones((2, 2), dtype=int),
                                   direction="src2tgt"), path)
            return path, read_grid_csv
        path = tmp_path / "peak_te_report.csv"
        write_report_csv(PeakTeReport(rows=(
            ("src2tgt", WelchResult(t_stat=-1.0, dof=8.0, p_value=0.25,
                                    n_a=5, n_b=5)),)), path)
        return path, read_report_csv

    def replace_last_row(self, path, row):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [row]) + "\n")

    @pytest.mark.parametrize("kind, row", [
        ("histogram", "1,0.5,abc"),
        ("grid", "1,x,1"),
        ("report", "src2tgt,5,5,-1.0,low"),
    ])
    def test_non_numeric_field(self, tmp_path, kind, row):
        path, read = self.written(tmp_path, kind)
        self.replace_last_row(path, row)
        with pytest.raises(DataFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}: numeric parse error in {row.split(',')}"

    @pytest.mark.parametrize("row, message", [
        ("2,1.0,3", "row 2 holds bin 2, expected 1"),
        ("-1,-0.5,3", "row 2 holds bin -1, expected 1"),
        ("0,0.0,3", "row 2 holds bin 0, expected 1"),
    ])
    def test_histogram_bins_in_order(self, tmp_path, row, message):
        path, _ = self.written(tmp_path, "histogram")
        self.replace_last_row(path, row)
        with pytest.raises(DataFormatError) as info:
            read_histogram_csv(path)
        assert str(info.value) == f"{path}: {message}"
