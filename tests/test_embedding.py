"""Delay-vector construction: lag layout, leakage, and spacing validation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cueflow.config import IoConfig, PipelineConfig
from cueflow.detector import DetectorConfig
from cueflow.embedding import EmbeddingSpec, embed
from cueflow.errors import ConfigError
from cueflow.timeseries import TimeSeries


def series(data, dt=1.0, channels=None):
    data = np.asarray(data, dtype=float)
    if channels is None:
        n_ch = 1 if data.ndim == 1 else data.shape[1]
        channels = tuple(f"c{i}" for i in range(n_ch))
    return TimeSeries(channels=channels, data=data, dt=dt)


def trial(target, source, dt=1.0):
    """One series holding a target block then a source block, and the
    (target names, source names) roles that embed them as such."""
    blocks = [np.asarray(a, dtype=float).reshape(len(a), -1) for a in (target, source)]
    roles = tuple(tuple(f"{p}{i}" for i in range(b.shape[1]))
                  for p, b in zip("ts", blocks))
    return TimeSeries(channels=roles[0] + roles[1], data=np.hstack(blocks), dt=dt), roles


# A one-channel series as both its own target and its own source.
SELF = (("c0",), ("c0",))


def source_hist(ds):
    """Source history: the design columns after the intercept and the
    target history."""
    return ds.design[:, 1 + ds.target_cols:]


class TestEmbeddingSpec:
    def test_stride_and_horizon(self):
        spec = EmbeddingSpec(d=4, delta_s=0.1)
        assert spec.stride(0.01) == 10
        assert spec.horizon(0.01) == 40

    def test_spacing_must_be_a_sample_multiple(self):
        """The spacing rule needs the sample step, so the whole config checks
        it: 0.15 s is no whole number of 0.1 s samples, 0.2 s is two."""
        io = IoConfig(target_channels=("x",), source_channels=("y",), resample_hz=10.0)
        detector = DetectorConfig(alpha=0.01, beta=0.05)
        with pytest.raises(ConfigError, match="not an integer multiple"):
            PipelineConfig(io=io, embedding=EmbeddingSpec(d=2, delta_s=0.15),
                           detector=detector)
        cfg = PipelineConfig(io=io, embedding=EmbeddingSpec(d=2, delta_s=0.2),
                             detector=detector)
        assert cfg.embedding.stride(cfg.dt) == 2

    def test_order_must_be_a_positive_int(self):
        with pytest.raises(ConfigError):
            EmbeddingSpec(d=0, delta_s=0.1)
        with pytest.raises(ConfigError):
            EmbeddingSpec(d=2.5, delta_s=0.1)


class TestEmbed:
    def test_hand_worked_example(self):
        """d=3 lags of [10..50] leave a single row predicting the last value."""
        ts, roles = trial([10.0, 20.0, 30.0, 40.0, 50.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        ds = embed([ts], EmbeddingSpec(d=3, delta_s=1.0), roles)
        np.testing.assert_array_equal(ds.targets, [[40.0], [50.0]])
        np.testing.assert_array_equal(ds.target_hist,
                                      [[30.0, 20.0, 10.0], [40.0, 30.0, 20.0]])
        np.testing.assert_array_equal(source_hist(ds),
                                      [[3.0, 2.0, 1.0], [4.0, 3.0, 2.0]])

    def test_order_one_is_a_single_lag(self):
        tgt = series([1.0, 2.0, 3.0])
        ds = embed([tgt], EmbeddingSpec(d=1, delta_s=1.0), SELF)
        np.testing.assert_array_equal(ds.targets, [[2.0], [3.0]])
        np.testing.assert_array_equal(ds.target_hist, [[1.0], [2.0]])

    def test_stride_two(self):
        tgt = series([1.0, 2.0, 3.0, 4.0, 5.0])
        ds = embed([tgt], EmbeddingSpec(d=2, delta_s=2.0), SELF)
        np.testing.assert_array_equal(ds.targets, [[5.0]])
        np.testing.assert_array_equal(ds.target_hist, [[3.0, 1.0]])

    def test_row_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            ts = series(rng.standard_normal(n))
            spec = EmbeddingSpec(d=d, delta_s=float(stride))
            assert embed([ts], spec, SELF).targets.shape == (n - d * stride, 1)

    def test_lag_columns_are_shifts_of_the_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(120)
        y = rng.standard_normal(120)
        spec = EmbeddingSpec(d=3, delta_s=2.0)
        ts, roles = trial(x, y)
        ds = embed([ts], spec, roles)
        h = spec.horizon(ts.dt)
        np.testing.assert_array_equal(ds.targets[:, 0], x[h:])
        for j in range(1, spec.d + 1):
            shift = j * spec.stride(ts.dt)
            np.testing.assert_array_equal(ds.target_hist[:, j - 1],
                                          x[h - shift:len(x) - shift])
            np.testing.assert_array_equal(source_hist(ds)[:, j - 1],
                                          y[h - shift:len(y) - shift])

    def test_no_future_leakage(self):
        """History columns never contain the target sample or anything after it."""
        n = 50
        x = np.zeros(n)
        x[30] = 1.0  # a single spike
        ts, roles = trial(x, np.zeros(n))
        spec = EmbeddingSpec(d=4, delta_s=1.0)
        ds = embed([ts], spec, roles)
        row = 30 - spec.horizon(ts.dt)  # row whose target is the spike
        assert ds.targets[row, 0] == 1.0
        assert not ds.target_hist[row].any()

    def test_multichannel_layout(self):
        """Within each lag, channels appear in series order (channels fastest)."""
        data = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        ds = embed([series(data, channels=("a", "b"))],
                   EmbeddingSpec(d=2, delta_s=1.0), (("a", "b"), ("a", "b")))
        np.testing.assert_array_equal(ds.targets, [[3.0, 30.0], [4.0, 40.0]])
        np.testing.assert_array_equal(ds.target_hist,
                                      [[2.0, 20.0, 1.0, 10.0],
                                       [3.0, 30.0, 2.0, 20.0]])

    def test_joint_hist_concatenates_target_then_source(self):
        rng = np.random.default_rng(2)
        ts, roles = trial(rng.standard_normal(30), rng.standard_normal(30))
        ds = embed([ts], EmbeddingSpec(d=2, delta_s=1.0), roles)
        np.testing.assert_array_equal(ds.joint_hist,
                                      np.hstack([ds.target_hist, source_hist(ds)]))

    def test_histories_are_views_of_one_block(self):
        """The joint, target and source histories are column views of one
        column-major design block whose column 0 is ones, not new copies."""
        rng = np.random.default_rng(3)
        ts, roles = trial(rng.standard_normal((40, 2)), rng.standard_normal((40, 3)))
        ds = embed([ts], EmbeddingSpec(d=3, delta_s=2.0), roles)
        assert ds.design.base is None
        assert ds.design.flags.f_contiguous and ds.targets.flags.f_contiguous
        assert (ds.design[:, 0] == 1.0).all()
        for block in (ds.joint_hist, ds.target_hist, source_hist(ds)):
            assert block.base is ds.design
            assert block.flags.f_contiguous
        assert ds.design.shape[1] == 1 + ds.joint_hist.shape[1] == 1 + 3 * (2 + 3)
        assert ds.target_hist.shape[1] + source_hist(ds).shape[1] == ds.joint_hist.shape[1]

    def test_trials_stack_without_shared_history(self):
        """Embedding several trials at once stacks each trial's own rows in
        order: no history row reaches into the trial before it."""
        rng = np.random.default_rng(4)
        trials = [trial(rng.standard_normal((n, 2)), rng.standard_normal(n))[0]
                  for n in (30, 12, 25)]
        roles = (("t0", "t1"), ("s0",))
        spec = EmbeddingSpec(d=2, delta_s=2.0)
        pooled = embed(trials, spec, roles)
        alone = [embed([ts], spec, roles) for ts in trials]
        for name in ("targets", "design"):
            assert (getattr(pooled, name).tobytes()
                    == np.concatenate([getattr(ds, name) for ds in alone]).tobytes())

    def test_named_channels_embed_as_their_selected_series(self):
        """Channels named out of several-channel series, in any order, give
        the bytes that embedding the series of just those channels, in
        role order, gives."""
        rng = np.random.default_rng(6)
        trials = [series(rng.standard_normal((n, 4)), channels=("a", "b", "c", "d"))
                  for n in (30, 17)]
        spec = EmbeddingSpec(d=3, delta_s=2.0)
        tgt, src = ("c", "a"), ("d", "b")
        got = embed(trials, spec, (tgt, src))
        want = embed([s.select(tgt + src) for s in trials], spec, (tgt, src))
        assert got.target_cols == want.target_cols == 3 * len(tgt)
        for name in ("targets", "design"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.flags.f_contiguous) == (b.shape, b.flags.f_contiguous)
            assert a.tobytes() == b.tobytes()


class TestLagIdentities:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_cell_is_the_input_sample_its_lag_names(self, data):
        """Row r, lag j, channel c of a history block holds sample
        ``r + horizon - j*stride`` of channel c; the target row holds sample
        ``r + horizon``."""
        d = data.draw(st.integers(1, 5), label="d")
        stride = data.draw(st.integers(1, 4), label="stride")
        dt = data.draw(st.sampled_from([0.005, 0.01, 0.1, 1.0]), label="dt")
        n = data.draw(st.integers(d * stride + 1, d * stride + 40), label="n")
        n_tgt = data.draw(st.integers(1, 3), label="target channels")
        n_src = data.draw(st.integers(1, 3), label="source channels")
        values = st.floats(allow_nan=False, allow_infinity=False)
        x = data.draw(arrays(np.float64, (n, n_tgt), elements=values), label="x")
        y = data.draw(arrays(np.float64, (n, n_src), elements=values), label="y")
        spec = EmbeddingSpec(d=d, delta_s=stride * dt)
        ts, roles = trial(x, y, dt=dt)
        ds = embed([ts], spec, roles)
        h = spec.horizon(dt)
        assert (spec.stride(dt), h, len(ds.targets)) == (stride, d * stride, n - h)
        assert ds.target_hist.shape == (n - h, d * n_tgt)
        assert source_hist(ds).shape == (n - h, d * n_src)
        assert ds.targets.tobytes() == x[h:].tobytes()
        for r in range(n - h):
            for j in range(1, d + 1):
                lag = r + h - j * stride
                assert (ds.target_hist[r, (j - 1) * n_tgt:j * n_tgt].tobytes()
                        == x[lag].tobytes())
                assert (source_hist(ds)[r, (j - 1) * n_src:j * n_src].tobytes()
                        == y[lag].tobytes())
