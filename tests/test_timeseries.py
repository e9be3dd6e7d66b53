"""Time-series container, CSV trial format, resampling and trimming."""
import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cueflow.errors import DataFormatError
from cueflow.storage import (_WRITE_BLOCK_ROWS, _median, load_csv, read_numeric_csv,
                             write_trial_csv)
from cueflow.timeseries import TimeSeries, Trial, TrialSet, grid_times, resample, trim_start
from conftest import write_decimal_trial


def csv_float_rows(path):
    """The body of a numeric CSV as the csv.reader + float() loop that
    load_csv used before numpy's parser read it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader if row])


def write_trial_csv_reference(ts, path):
    """write_trial_csv as it was, one csv.writer row of repr() strings at a
    time, each line ending in \\n."""
    times = ts.raw_times if ts.raw_times is not None else ts.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *ts.channels])
        for t, row in zip(times, ts.data):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def make_series(data, dt=0.1, channels=None, t0=0.0):
    data = np.asarray(data, dtype=float)
    if channels is None:
        n_ch = 1 if data.ndim == 1 else data.shape[1]
        channels = tuple(f"c{i}" for i in range(n_ch))
    return TimeSeries(channels=channels, data=data, dt=dt, t0=t0)


class TestTimeSeries:
    def test_one_dimensional_data_becomes_a_column(self):
        ts = make_series([1.0, 2.0, 3.0])
        assert ts.data.shape == (3, 1)
        assert ts.n_samples == 3 and ts.n_channels == 1

    def test_times_and_duration(self):
        ts = make_series(np.zeros(5), dt=0.5, t0=2.0)
        np.testing.assert_allclose(ts.times, [2.0, 2.5, 3.0, 3.5, 4.0])
        assert ts.duration == 2.0

    def test_values_and_select_preserve_order(self):
        data = np.arange(6.0).reshape(3, 2)
        ts = make_series(data, channels=("a", "b"))
        assert ts.channel_index("b") == 1
        swapped = ts.select(("b", "a"))
        assert swapped.channels == ("b", "a")
        np.testing.assert_array_equal(swapped.data[:, 0], [1.0, 3.0, 5.0])

    def test_rejected_inputs(self):
        with pytest.raises(DataFormatError):
            make_series(np.zeros((2, 2)), channels=("a", "a"))
        with pytest.raises(DataFormatError):
            make_series([1.0, np.nan])
        with pytest.raises(DataFormatError):
            make_series([1.0, 2.0], dt=0.0)
        with pytest.raises(DataFormatError):
            ts = make_series([1.0, 2.0])
            ts.channel_index("missing")

    def test_recorded_series_starts_at_its_first_timestamp(self):
        """A recorded series has one clock: its t0 is its first timestamp,
        so the resampled grid starts there and holds the recorded samples."""
        ts = TimeSeries(("x",), [1.0, 2.0, 3.0], dt=0.1, raw_times=[0.5, 0.6, 0.7])
        assert ts.t0 == 0.5
        out = resample(ts, 10.0)
        assert out.n_samples == 3 and out.t0 == 0.5
        np.testing.assert_allclose(out.times, [0.5, 0.6, 0.7], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 0], [1.0, 2.0, 3.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("raw, match", [
        ([np.nan, 0.6, 0.7], "raw_times value nan at index 0 is not finite"),
        ([0.5, np.inf, 0.7], "raw_times value inf at index 1 is not finite"),
        ([0.7, 0.6, 0.5], "raw_times not strictly increasing at index 1"),
        ([0.5, 0.6, 0.6], "raw_times not strictly increasing at index 2"),
    ])
    def test_bad_recorded_times_are_named_where_the_series_is_built(self, raw, match):
        """Recorded times that are not finite, or do not increase, are
        refused when the series is built, naming the cause and the first bad
        index, not later by resample under a cause they do not have."""
        with pytest.raises(DataFormatError, match=match):
            TimeSeries(("x",), [1.0, 2.0, 3.0], dt=0.1, raw_times=raw)

    def test_t0_that_disagrees_with_the_recorded_clock_is_an_error(self):
        assert TimeSeries(("x",), [1.0, 2.0], dt=0.1, t0=0.5, raw_times=[0.5, 0.6]).t0 == 0.5
        with pytest.raises(DataFormatError,
                           match="t0 = 0.0 disagrees with the first recorded timestamp 0.5"):
            TimeSeries(("x",), [1.0, 2.0], dt=0.1, t0=0.0, raw_times=[0.5, 0.6])


class TestLoadCsv:
    def write(self, tmp_path, text, name="trial.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_basic_parse(self, tmp_path):
        p = self.write(tmp_path, "t,x,y\n0.0,1.0,4.0\n0.1,2.0,5.0\n0.2,3.0,6.0\n")
        ts = load_csv(p)
        assert ts.channels == ("x", "y")
        assert ts.dt == pytest.approx(0.1)
        assert same_bits(ts.raw_times, [0.0, 0.1, 0.2])  # the written t column
        np.testing.assert_array_equal(ts.data[:, 0], [1.0, 2.0, 3.0])

    def test_dt_is_median_of_diffs(self, tmp_path):
        # one dropped sample: diffs 0.1, 0.1, 0.1, 0.3 -> median 0.1
        rows = "\n".join(f"{t},{i}" for i, t in enumerate((0.0, 0.1, 0.2, 0.3, 0.6)))
        ts = load_csv(self.write(tmp_path, "t,x\n" + rows + "\n"))
        assert ts.dt == pytest.approx(0.1)
        assert ts.raw_times is not None  # jitter kept for resampling

    def test_duration_is_the_recorded_span(self, tmp_path):
        """With one sample dropped the recording spans 0.6 s, not the
        0.4 s that dt times the sample count gives; a grid series keeps
        dt * (n - 1)."""
        rows = "\n".join(f"{t},{i}" for i, t in enumerate((0.0, 0.1, 0.2, 0.3, 0.6)))
        ts = load_csv(self.write(tmp_path, "t,x\n" + rows + "\n"))
        assert ts.duration == 0.6
        assert make_series(np.zeros(5), dt=0.1).duration == 0.1 * 4

    def test_median_is_np_median_bitwise(self):
        """Odd and even lengths, ties, and spreads over many magnitudes."""
        rng = np.random.default_rng(12)
        for n in range(1, 451):
            a = rng.exponential(size=n) * 10.0 ** rng.integers(-6, 6, size=n)
            if n % 3 == 0:
                a = np.round(a, 1)  # many equal values
            assert _median(a).hex() == float(np.median(a)).hex()

    def test_non_increasing_timestamps_name_the_row(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.0,1\n0.2,2\n0.1,3\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(p)

    def test_nan_timestamp_names_the_row(self, tmp_path):
        """A NaN or infinite timestamp is named with its row.  Without the
        check a NaN after the middle difference would leave dt finite and
        the NaN unnoticed, and an infinite first or last timestamp would
        only fail in resampling, naming neither file nor row.  Rows are
        those of the file, blank lines included."""
        for times, row in (((0.0, 0.1, 0.2, 0.3, "nan"), 5),
                           ((0.0, 1.0, 2.0, "inf"), 4),
                           (("-inf", 1.0, 2.0, 3.0), 1),
                           ((0.0, "inf", 2.0, 3.0), 2),
                           ((0.0, 1.0, "-inf", 3.0), 3)):
            body = "".join(f"{t},{i}\n" for i, t in enumerate(times))
            p = self.write(tmp_path, "t,x\n" + body)
            with pytest.raises(DataFormatError, match=rf"{p.name}: t value \S+ at row {row} "):
                load_csv(p)
        for body, match in (("0,1\n\n1,2\n1,3\n", "timestamps not strictly increasing at row 4"),
                            ("0,1\n\n\nnan,2\n1,3\n", "t value nan at row 4 is not finite")):
            p = self.write(tmp_path, "t,x\n" + body)
            with pytest.raises(DataFormatError, match=f"{p.name}: {match}"):
                load_csv(p)

    def test_numeric_junk_names_the_row(self, tmp_path):
        p = self.write(tmp_path, "t,x\n0.0,1\n0.1,oops\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(p)

    def test_field_count_mismatch(self, tmp_path):
        p = self.write(tmp_path, "t,x,y\n0.0,1,2\n0.1,3\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(p)

    def test_header_must_start_with_t(self, tmp_path):
        with pytest.raises(DataFormatError, match="'t'"):
            load_csv(self.write(tmp_path, "time,x\n0,1\n1,2\n"))

    def test_single_sample_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="two samples"):
            load_csv(self.write(tmp_path, "t,x\n0.0,1\n"))

    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        ts = TimeSeries(channels=("a", "b"), data=rng.standard_normal((40, 2)),
                        dt=1.0 / 3.0, t0=0.25)
        path = tmp_path / "rt.csv"
        write_trial_csv(ts, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.data, ts.data)
        np.testing.assert_allclose(back.times, ts.times, rtol=0, atol=1e-12)
        assert back.channels == ts.channels

    @pytest.mark.parametrize("rate_hz", [200.0, 115.0, 10.0])
    def test_rewriting_a_loaded_trial_gives_the_same_bytes(self, rate_hz, tmp_path):
        """A trial cueflow wrote, loaded and written again, is the same file:
        the recorded clock is written back, not a grid rebuilt from dt."""
        rng = np.random.default_rng(5)
        ts = make_series(rng.standard_normal((int(60 * rate_hz) + 1, 2)), dt=1.0 / rate_hz)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trial_csv(ts, first)
        write_trial_csv(load_csv(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_keeps_jittered_times(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = np.sort(rng.uniform(0.0, 5.0, size=30))
        raw[0], raw[-1] = 0.0, 5.0
        ts = TimeSeries(channels=("x",), data=rng.standard_normal(30),
                        dt=float(np.median(np.diff(raw))), raw_times=raw)
        path = tmp_path / "jitter.csv"
        write_trial_csv(ts, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.raw_times, raw)

    def test_arrays_match_the_float_loop_bit_for_bit(self, tmp_path):
        """Signed zero, subnormals, large magnitudes, quoted fields, blank
        lines and CRLF line ends parse as csv.reader + float() parsed them."""
        p = tmp_path / "special.csv"
        p.write_bytes(b't,a,b\r\n'
                      b'-0.0,-0.0,5e-324\r\n'
                      b'\r\n'
                      b'0.1,"1e16",1.7976931348623157e308\r\n'
                      b'0.30000000000000004,0.1,-2.2250738585072014e-308\r\n'
                      b'\r\n\r\n'
                      b'"0.7",123456789.125,1e-05\r\n'
                      b'\r\n')
        ref = csv_float_rows(p)
        ts = load_csv(p)
        assert same_bits(ts.data, ref[:, 1:])
        assert same_bits(ts.t0, ref[0, 0])
        assert same_bits(ts.raw_times, ref[:, 0])
        assert same_bits(read_numeric_csv(p, lambda header: None)[1], ref)

    def test_header_only_file_gives_no_numpy_warning(self, tmp_path):
        for text in ("t,x\n", "t,x\r\n\r\n\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataFormatError, match="two samples"):
                    load_csv(self.write(tmp_path, text))

    @pytest.mark.parametrize("body, match", [
        ("0.0,1\n0.1,#2\n", "numeric parse error at row 2"),
        ("#0.0,1\n0.1,2\n", "numeric parse error at row 1"),
        ("0.0,1\n\n0.1,\n", "numeric parse error at row 3"),
        ("0.0,1,2\n0.1,2,3\n", "row 1 has 3 fields, expected 2"),
        ("0.0,1\n  \n0.1,2\n", "row 2 has 1 fields, expected 2"),
        ("0.0,1_0\n0.1,2\n", "trial.csv: a number is not in plain decimal"),
        ("0.0,1\n\n0.1,nan\n", "trial.csv: x value nan at row 3 is not finite"),
        ("0.0,inf\n0.1,2\n", "trial.csv: x value inf at row 1 is not finite"),
        ("0.0,1\n0.1,2\n0.2,-inf\n", "trial.csv: x value -inf at row 3 "),
    ])
    def test_bad_body_names_the_file_and_row(self, tmp_path, body, match):
        with pytest.raises(DataFormatError, match=match):
            load_csv(self.write(tmp_path, "t,x\n" + body))

    def test_duplicate_channels_name_the_file(self, tmp_path):
        with pytest.raises(DataFormatError,
                           match=r"trial\.csv: duplicate channel names: \('x', 'x'\)"):
            load_csv(self.write(tmp_path, "t,x,x\n0,1,2\n1,2,3\n"))

    def test_load_peak_is_the_parsed_block(self, tmp_path):
        """The series keeps views of the block load_csv parses, and each
        check's temporaries are at most a column: on a 120 s trial of six
        channels at 200 Hz, as the rigs record, the traced peak stays under
        1.25x the block.  A copy of the block would make it 2x."""
        rng = np.random.default_rng(5)
        n = 24001
        ts = TimeSeries(channels=tuple(f"c{i}" for i in range(6)),
                        data=rng.standard_normal((n, 6)), dt=0.005)
        path = tmp_path / "trial.csv"
        write_trial_csv(ts, path)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            back = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_bits(back.data, ts.data)
        assert peak - start < 1.25 * n * 7 * 8

    def test_undecodable_byte_names_the_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"t,x\n0.0,1\n0.1,\xff2\n")
        with pytest.raises(DataFormatError, match="bad.csv: not utf-8 text"):
            load_csv(p)

    def test_writer_bytes_match_csv_writer_of_repr(self, tmp_path):
        special = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, 1.7976931348623157e308]
        data = np.column_stack([special, special[::-1]])
        for ts in (TimeSeries(channels=("a,b", 'q"uote'), data=data, dt=0.1),
                   TimeSeries(channels=("x", "y"), data=data, dt=1.0,
                              raw_times=np.sort(special))):
            write_trial_csv(ts, tmp_path / "new.csv")
            write_trial_csv_reference(ts, tmp_path / "ref.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes())

    def test_crlf_trial_loads_as_its_lf_rows(self, tmp_path):
        """A trial is written with \\n line ends.  The same rows with CRLF
        line ends, as older recordings have them, load bitwise equal."""
        rng = np.random.default_rng(3)
        raw = np.cumsum(0.01 + 0.001 * rng.random(50))
        ts = TimeSeries(channels=("a", "b"), data=rng.standard_normal((50, 2)),
                        dt=0.0105, raw_times=raw)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_trial_csv(ts, lf)
        text = lf.read_bytes()
        assert b"\r" not in text
        crlf.write_bytes(text.replace(b"\n", b"\r\n"))
        a, b = load_csv(lf), load_csv(crlf)
        assert b.raw_times is not None
        assert a.channels == b.channels == ("a", "b")
        for x, y in ((a.data, b.data), (a.raw_times, b.raw_times), (a.dt, b.dt),
                     (a.t0, b.t0)):
            assert same_bits(x, y)
        assert same_bits(b.data, ts.data) and same_bits(b.raw_times, raw)

    @pytest.mark.parametrize("n", [1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS,
                                   _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 3])
    def test_block_boundaries_keep_the_bytes(self, tmp_path, n):
        """Rows are formatted a block at a time; at every length around the
        block size the file holds the csv.writer bytes and reads back bitwise."""
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, 2))
        data[0, 0] = -0.0
        ts = TimeSeries(channels=("a", "b"), data=data, dt=0.005)
        write_trial_csv(ts, tmp_path / "new.csv")
        write_trial_csv_reference(ts, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = read_numeric_csv(tmp_path / "new.csv", lambda header: None)[1]
        assert same_bits(back, np.column_stack([ts.times, data]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_finite_floats_round_trip_exactly(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 25), label="n")
        n_ch = data.draw(st.integers(1, 3), label="channels")
        # Sorted distinct values; the bound keeps every spacing finite.
        times = np.array(data.draw(st.lists(
            st.floats(-1e300, 1e300), min_size=n, max_size=n, unique=True
        ).map(sorted), label="times"))
        values = data.draw(arrays(np.float64, (n, n_ch),
                                  elements=st.floats(allow_nan=False,
                                                     allow_infinity=False)),
                           label="values")
        ts = TimeSeries(channels=tuple(f"c{i}" for i in range(n_ch)), data=values,
                        dt=1.0, raw_times=times)
        path = tmp_path_factory.mktemp("rt") / "trial.csv"
        write_trial_csv(ts, path)
        assert same_bits(read_numeric_csv(path, lambda header: None)[1],
                         np.column_stack([times, values]))
        back = load_csv(path)
        assert same_bits(back.data, values)
        assert same_bits(back.t0, times[0])
        assert same_bits(back.raw_times, times)


class TestResample:
    @pytest.mark.parametrize("rate_hz", [1e300, 1e308])
    def test_grid_too_long_to_index_is_a_data_error(self, rate_hz):
        with pytest.raises(DataFormatError, match="resample_hz = .* more than a numpy"):
            resample(make_series([0.0, 1.0, 2.0], dt=1.0), rate_hz)

    def test_linear_interpolation_doubles_rate(self):
        ts = make_series([0.0, 1.0, 2.0], dt=1.0)
        out = resample(ts, 2.0)
        np.testing.assert_allclose(out.data[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert out.dt == 0.5

    def test_identity_at_native_rate(self):
        rng = np.random.default_rng(0)
        for n in (2, 7, 100):
            dt = float(rng.uniform(0.01, 2.0))
            ts = make_series(rng.standard_normal(n), dt=dt)
            out = resample(ts, 1.0 / dt)
            assert out.n_samples == n
            np.testing.assert_allclose(out.data, ts.data, rtol=0, atol=1e-12)

    def test_jittered_series_lands_on_uniform_grid(self):
        raw = np.array([0.0, 0.09, 0.21, 0.3])
        ts = TimeSeries(channels=("x",), data=np.array([0.0, 0.9, 2.1, 3.0]),
                        dt=0.1, raw_times=raw)
        out = resample(ts, 10.0)
        assert out.raw_times is None
        np.testing.assert_allclose(out.times, [0.0, 0.1, 0.2, 0.3], atol=1e-12)
        # the input is y = 10 * t, so interpolation recovers the line
        np.testing.assert_allclose(out.data[:, 0], [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_no_extrapolation_past_last_sample(self):
        ts = make_series([0.0, 1.0], dt=1.0)
        out = resample(ts, 0.4)  # grid step 2.5 s > span
        assert out.n_samples == 1

    def test_bad_rate(self):
        with pytest.raises(DataFormatError):
            resample(make_series([0.0, 1.0]), 0.0)


class TestGridTimes:
    @pytest.mark.parametrize("rate_hz", [10, 20, 25, 30, 50, 60, 90, 100, 115, 120,
                                         200, 250, 500, 1000])
    def test_instants_are_the_correctly_rounded_quotients(self, rate_hz):
        k = np.arange(100_001)
        assert same_bits(grid_times(0.0, 1.0 / rate_hz, k), [i / rate_hz for i in k.tolist()])

    def test_other_rates_stay_within_one_ulp_of_the_product(self):
        k = np.arange(100_001)
        for rate_hz in (49, 93, 117):
            dt = 1.0 / rate_hz
            got, product = grid_times(0.0, dt, k), dt * k
            assert not same_bits(got, product)
            assert (np.abs(got - product) <= np.spacing(product)).all()

    def test_scalar_and_array_forms_agree(self):
        k = np.arange(7, 40)
        assert same_bits([grid_times(0.25, 0.005, int(i)) for i in k],
                         grid_times(0.25, 0.005, k))


class TestDecimalStampedTrials:
    """A recording at the analysis rate, stamped in decimals, lies on the
    resampling grid: resampling at its own rate keeps every row and value."""

    @pytest.mark.parametrize("rate_hz", [10.0, 200.0])
    def test_resampling_at_the_recorded_rate_keeps_every_value(self, rate_hz, tmp_path):
        path = tmp_path / "trial.csv"
        write_decimal_trial(path, rate_hz)
        loaded = load_csv(path)
        out = resample(loaded, rate_hz)
        assert out.n_samples == loaded.n_samples == 2401
        assert same_bits(out.times, loaded.times)
        assert same_bits(out.data, loaded.data)

    def test_synthetic_trial_stamps_are_the_decimal_instants(self, tmp_path):
        """A series on the grid writes its instants as ``k / rate``: ``0.6``,
        not ``0.6000000000000001``."""
        write_trial_csv(make_series(np.zeros(2401), dt=0.1), tmp_path / "grid.csv")
        stamps = [row.split(",")[0] for row in
                  (tmp_path / "grid.csv").read_text().splitlines()[1:]]
        assert stamps == [repr(k / 10) for k in range(2401)]
        assert stamps[6] == "0.6"


class TestTrimStart:
    def test_drops_and_rebases(self):
        ts = make_series(np.arange(5.0), dt=1.0)
        out = trim_start(ts, 2.0)
        assert out.n_samples == 3
        assert out.t0 == 0.0
        np.testing.assert_array_equal(out.data[:, 0], [2.0, 3.0, 4.0])

    def test_trim_past_end_is_an_error(self):
        with pytest.raises(DataFormatError):
            trim_start(make_series([1.0, 2.0], dt=1.0), 10.0)


class TestTrialSet:
    def trial(self, tid, scenario="s", channels=("x",)):
        return Trial(trial_id=tid, scenario=scenario,
                     series=make_series(np.zeros((3, len(channels))),
                                        channels=channels))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            TrialSet(trials=(self.trial("a"), self.trial("a")))

    def test_mixed_schemas_rejected(self):
        with pytest.raises(DataFormatError, match="schema"):
            TrialSet(trials=(self.trial("a"),
                             self.trial("b", channels=("x", "y"))))
