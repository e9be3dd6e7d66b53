"""CSV persistence round-trips for traces, events, aggregates, and trial dirs."""
import csv
import dataclasses
import re

import numpy as np
import pytest

from cueflow.aggregate import CueGrid, CueHistogram, WelchResult, PeakTeReport
from cueflow.detector import CueEvent, DetectionTrace, DetectorConfig, detect_trace
from cueflow.errors import CueflowError, DataFormatError
from cueflow.storage import (_WRITE_BLOCK_ROWS, load_trial_dir, read_events_csv,
                             read_grid_csv, read_histogram_csv, read_report_csv,
                             read_te_csv, write_events_csv, write_grid_csv,
                             write_histogram_csv, write_report_csv,
                             write_te_csv, write_trial_dir)
from cueflow.timeseries import Recording, TimeSeries, Trial, TrialSet, grid_times


BLOCK = _WRITE_BLOCK_ROWS


def write_te_csv_reference(trace, path):
    """The TE trace as csv.writer writes rows of repr() strings, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["te_raw"])
        for te in trace.te_raw:
            writer.writerow([repr(float(te))])


SAMPLE_CFG = DetectorConfig(alpha=0.05, beta=0.1, gamma=3.0, hp_cutoff_hz=1.0)
SAMPLE_DT = 0.01


def sample_times(n):
    """The instants of an ``n``-row trace from 0 at ``SAMPLE_DT``, as
    ``pipeline.trace_times`` rebuilds a written trace's on the grid."""
    return grid_times(0.0, SAMPLE_DT, np.arange(n))


def sample_trace():
    """A real detector output, so the round-trip covers its cue mask and events."""
    rng = np.random.default_rng(5)
    n = 400
    te = rng.standard_normal(n) * 0.05
    te[200:215] += 2.0
    return detect_trace("src2tgt", sample_times(n), te, SAMPLE_CFG, SAMPLE_DT)


class TestTeCsv:
    def test_round_trip_is_exact(self, tmp_path):
        """A trace file holds te_raw; the detector run on it at the trace's
        grid instants rebuilds every other trace field bitwise, so a field
        that is neither stored nor rebuilt fails here."""
        trace = sample_trace()
        assert trace.cue.any() and trace.events
        path = tmp_path / "te_t0_src2tgt.csv"
        write_te_csv(trace, path)
        te_raw = read_te_csv(path)
        back = detect_trace("src2tgt", sample_times(te_raw.size), te_raw, SAMPLE_CFG,
                            SAMPLE_DT)
        for f in dataclasses.fields(DetectionTrace):
            got, want = getattr(back, f.name), getattr(trace, f.name)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray), f.name
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name

    def test_file_is_te_raw_then_one_repr_per_line(self, tmp_path):
        """The instants are not written: the file is the header ``te_raw``
        and then each value's repr on a line of its own."""
        trace = sample_trace()
        path = tmp_path / "te.csv"
        write_te_csv(trace, path)
        assert path.read_bytes() == ("te_raw\n" + "".join(
            f"{v!r}\n" for v in trace.te_raw.tolist())).encode()

    def test_bytes_match_csv_writer_of_repr(self, tmp_path):
        """Bulk formatting writes exactly what csv.writer writes for repr()
        fields, NaN, signed zero, subnormals and large magnitudes included."""
        special = [float("nan"), -0.0, 1e-5, 1e16, 5e-324, 0.1, -2.5, 123456789.125]
        te = np.array(special + [-x for x in special])
        n = te.size
        trace = DetectionTrace(times=sample_times(n), te_raw=te, cue=np.arange(n) % 3 == 0)
        path = tmp_path / "te.csv"
        write_te_csv(trace, path)
        ref = tmp_path / "ref.csv"
        write_te_csv_reference(trace, ref)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_boundaries_keep_the_bytes(self, tmp_path, n):
        """Rows are formatted a block at a time; at every length around the
        block size the file holds the csv.writer bytes, with a signed zero
        and with or without a NaN.  The reader refuses the NaN by its row,
        and the trace without it reads back bitwise."""
        rng = np.random.default_rng(n)
        te = rng.standard_normal(n)
        te[0] = -0.0
        with_nan = te.copy()
        with_nan[1:2] = np.nan
        cue = rng.random(n) < 0.3
        path, ref = tmp_path / "te.csv", tmp_path / "ref.csv"
        for te_raw in (with_nan, te):
            trace = DetectionTrace(times=sample_times(n), te_raw=te_raw, cue=cue)
            write_te_csv(trace, path)
            write_te_csv_reference(trace, ref)
            assert path.read_bytes() == ref.read_bytes()
            if np.isnan(te_raw).any():
                with pytest.raises(DataFormatError, match="te_raw value nan at row 2 is not"):
                    read_te_csv(path)
        back = read_te_csv(path)
        assert (back.dtype, back.shape) == (trace.te_raw.dtype, trace.te_raw.shape)
        assert back.tobytes() == trace.te_raw.tobytes()

    def test_arrays_match_the_float_loop_bit_for_bit(self, tmp_path):
        """Signed zero, subnormals, large magnitudes, quoted fields, blank
        lines and CRLF line ends read back as csv.reader + float() read
        them."""
        path = tmp_path / "te.csv"
        path.write_bytes(b"te_raw\r\n"
                         b"-0.0\r\n"
                         b"\r\n"
                         b'"1e16"\r\n'
                         b"5e-324\r\n"
                         b"-1e-310\r\n"
                         b"-1e-05\r\n"
                         b"1.7976931348623157e308\r\n"
                         b"\r\n\r\n")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            ref = np.array([float(row[0]) for row in reader if row])
        assert read_te_csv(path).tobytes() == ref.tobytes()

    def test_header_only_trace_is_an_error_without_warning(self, tmp_path):
        import warnings

        path = tmp_path / "te.csv"
        path.write_text("te_raw\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no samples"):
                read_te_csv(path)

    @pytest.mark.parametrize("row, match", [
        ("0.0,1", "row 2 has 2 fields, expected 1"),
        ("x", "numeric parse error at row 2"),
    ])
    def test_bad_row_is_named(self, tmp_path, row, match):
        path = tmp_path / "te.csv"
        path.write_text("te_raw\nnan\n" + row + "\n")
        with pytest.raises(DataFormatError, match=match):
            read_te_csv(path)

    def test_trace_with_a_cue_column_is_an_error_naming_its_header(self, tmp_path):
        """A trace written with the older ``t,te_raw,cue`` layout is refused
        by its header, not read with a column dropped."""
        path = tmp_path / "te.csv"
        path.write_bytes(b"t,te_raw,cue\r\n0.0,0.5,1\r\n")
        with pytest.raises(DataFormatError,
                           match=r"te\.csv: header \['t', 'te_raw', 'cue'\] does not match"):
            read_te_csv(path)

    def test_non_finite_value_is_refused_by_the_reader(self, tmp_path):
        """The reader itself names the file, the column and the row of a
        value that is not finite, the blank line before it counted."""
        path = tmp_path / "te.csv"
        path.write_text("te_raw\n0.5\n\ninf\n0.25\n")
        with pytest.raises(DataFormatError,
                           match=rf"^{re.escape(str(path))}: te_raw value inf at row 3 "
                                 "is not finite$"):
            read_te_csv(path)


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

    def test_a_row_of_the_wrong_width_names_the_expected_count(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("trial,direction,start_t,end_t,peak_te\n"
                        "t000,src2tgt,1.25,1.5,0.75\n\nt001,src2tgt,1.0\n")
        with pytest.raises(DataFormatError) as info:
            read_events_csv(path)
        assert str(info.value) == f"{path}: row 3 has 3 fields, expected 5"

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
        with open(path, newline="") as fh:
            assert [row[1] for row in csv.reader(fh)] == ["t_start", "0.0", "0.5", "1.0", "1.5"]


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

    def test_loaded_trials_keep_their_stamps(self, tmp_path):
        """A loaded trial is a recording of the file's own clock, jittered
        and from a Unix-epoch start, each stamp read bitwise."""
        d = tmp_path / "trials"
        d.mkdir()
        stamps = ["1700085649.167", "1700085649.1718", "1700085649.177", "1700085649.1821"]
        (d / "s__t1.csv").write_text("t,x\n" + "".join(f"{t},{i}\n"
                                                       for i, t in enumerate(stamps)))
        series = load_trial_dir(d).trials[0].series
        assert isinstance(series, Recording)
        assert series.times.tobytes() == np.array([float(t) for t in stamps]).tobytes()
        np.testing.assert_array_equal(series.data[:, 0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("files, message", [
        ({"x__t1.csv": "t,a\n0,1\n1,2\n", "y__t1.csv": "t,a\n0,1\n1,2\n"},
         "{d}/y__t1.csv: trial id 't1' is also that of {d}/x__t1.csv"),
        ({"s__t1.csv": "t,a,b\n0,1,2\n1,2,3\n", "s__t2.csv": "t,a,c\n0,1,2\n1,2,3\n"},
         "{d}/s__t2.csv: channels ('a', 'c') differ from {d}/s__t1.csv's ('a', 'b')"),
    ], ids=["repeated_id", "other_channels"])
    def test_a_clash_between_trials_names_both_files(self, tmp_path, files, message):
        """Two files of one trial id, or a file whose channels differ from
        the first file's, is an error naming it and the earlier file."""
        d = tmp_path / "trials"
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(message.format(d=d))):
            load_trial_dir(d)


class TestRepeatedKeys:
    """A ``key=value`` file that gives a key twice is refused, naming the
    file, the line and the key, not read as its last value."""

    def test_trial_metadata(self, tmp_path):
        d = tmp_path / "trials"
        d.mkdir()
        (d / "walk01.csv").write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        (d / "trials.meta").write_text("trim_start_s.walk01=1.0\n\n"
                                       "trim_start_s.walk01 = 2.0\n")
        with pytest.raises(DataFormatError, match=r"trials\.meta: line 3 repeats key "
                                                  r"'trim_start_s\.walk01'"):
            load_trial_dir(d)

    def test_sidecar(self, tmp_path):
        hist = CueHistogram(bin_dt=0.5, counts=np.array([0, 3]), n_trials=3,
                            direction="src2tgt")
        path = tmp_path / "histogram.csv"
        write_histogram_csv(hist, path)
        meta = tmp_path / "histogram.csv.meta"
        meta.write_text(meta.read_text() + "bin_dt=0.25\n")
        with pytest.raises(DataFormatError,
                           match=r"histogram\.csv\.meta: line 4 repeats key 'bin_dt'"):
            read_histogram_csv(path)


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
        last = len(path.read_text().splitlines()) - 1
        assert str(info.value) == f"{path}: numeric parse error at row {last}"

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

    def test_histogram_bin_after_a_blank_line_names_its_file_row(self, tmp_path):
        path, _ = self.written(tmp_path, "histogram")
        path.write_text("bin,t_start,count\n\n0,0.0,1\n5,1.0,2\n")
        with pytest.raises(DataFormatError) as info:
            read_histogram_csv(path)
        assert str(info.value) == f"{path}: row 3 holds bin 5, expected 1"


class TestUnwritableFiles:
    """A file a writer cannot create, here because a directory holds its
    name, is a CueflowError naming that file, not a bare OSError."""

    HIST = CueHistogram(bin_dt=0.5, counts=np.array([0, 3]), n_trials=3,
                        direction="src2tgt")
    GRID = CueGrid(origin=(0.0, 0.0), cell_size_m=1.0,
                   counts=np.ones((2, 2), dtype=int), direction="src2tgt")
    REPORT = PeakTeReport(rows=(("src2tgt", WelchResult(t_stat=-1.0, dof=8.0,
                                                        p_value=0.25, n_a=5, n_b=5)),))
    TRIALS = TrialSet(trials=(Trial(trial_id="t000", scenario="s", series=TimeSeries(
        channels=("x",), data=np.arange(3.0), dt=0.1)),), metadata={"note": "x"})

    @pytest.mark.parametrize("name, blocked, write", [
        ("te.csv", "te.csv", lambda p: write_te_csv(sample_trace(), p)),
        ("events.csv", "events.csv", lambda p: write_events_csv([], p)),
        ("h.csv", "h.csv", lambda p: write_histogram_csv(TestUnwritableFiles.HIST, p)),
        ("h.csv", "h.csv.meta", lambda p: write_histogram_csv(TestUnwritableFiles.HIST, p)),
        ("g.csv", "g.csv", lambda p: write_grid_csv(TestUnwritableFiles.GRID, p)),
        ("g.csv", "g.csv.meta", lambda p: write_grid_csv(TestUnwritableFiles.GRID, p)),
        ("r.csv", "r.csv", lambda p: write_report_csv(TestUnwritableFiles.REPORT, p)),
        ("trials", "trials/s__t000.csv",
         lambda p: write_trial_dir(TestUnwritableFiles.TRIALS, p)),
        ("trials", "trials/trials.meta",
         lambda p: write_trial_dir(TestUnwritableFiles.TRIALS, p)),
    ])
    def test_the_file_is_named(self, tmp_path, name, blocked, write):
        (tmp_path / blocked).mkdir(parents=True)
        with pytest.raises(CueflowError) as info:
            write(tmp_path / name)
        assert str(info.value).startswith(f"cannot write {tmp_path / blocked}: ")
