"""Gaussian predictive models: linear-ridge and MLP fits, gradients."""
import re
import tracemalloc

import numpy as np
import pytest

from cueflow.embedding import EmbeddedDataset, EmbeddingSpec, embed
from cueflow.errors import DataFormatError, TrainingDivergedError
from cueflow.models import (AUGMENTED, BASELINE, VARIANCE_FLOOR, FittedModel,
                            GaussianPredictions, _forward,
                            _gaussian_nll, _init_layers, _nll_and_grads, _Work,
                            fit_mlp, fit_var, predict, predict_dataset)
from cueflow.timeseries import TimeSeries

from conftest import gradient_check, mlp_model


def ar1_series(phi, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + sigma * rng.standard_normal()
    return TimeSeries(channels=("x",), data=x, dt=1.0)


def coupled_pair(seed, n=10_000):
    """x_t = 0.5 x_{t-1} + 0.5 y_{t-1} + eps with iid source y."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + 0.5 * y[t - 1] + rng.standard_normal()
    return TimeSeries(channels=("x", "y"), data=np.column_stack([x, y]), dt=1.0)


def embed_pair(series, d=1, roles=(("x",), ("y",))):
    """``series`` embedded with ``x`` as the target and ``y`` as the source
    (or the given roles), lags one sample apart."""
    return embed([series], EmbeddingSpec(d=d, delta_s=series.dt), roles)


def slice_dataset(ds, rows):
    return EmbeddedDataset(targets=ds.targets[rows], design=ds.design[rows],
                           target_cols=ds.target_cols)


def history_dataset(targets, hist, target_cols):
    """A dataset over a given history block, laid out as ``embed`` lays it out:
    column-major, with a column of ones before the history."""
    design = np.asfortranarray(np.column_stack([np.ones(len(hist)), hist]))
    return EmbeddedDataset(targets=targets, design=design, target_cols=target_cols)


class TestGaussianPredictions:
    def test_requires_exactly_one_of_var_and_cov(self):
        mean = np.zeros((3, 1))
        with pytest.raises(DataFormatError):
            GaussianPredictions(mean=mean)
        with pytest.raises(DataFormatError):
            GaussianPredictions(mean=mean, var=np.ones((3, 1)), cov=np.eye(1))

    def test_entropy_of_unit_gaussian(self):
        p = GaussianPredictions(mean=np.zeros((2, 1)), var=np.ones((2, 1)))
        np.testing.assert_allclose(p.entropy(), 1.4189385332046727, rtol=0,
                                   atol=1e-12)

    def test_log_density_standard_normal_at_zero(self):
        p = GaussianPredictions(mean=np.zeros((1, 1)), var=np.ones((1, 1)))
        ld = p.log_density(np.zeros((1, 1)))
        np.testing.assert_allclose(ld, -0.5 * np.log(2 * np.pi), atol=1e-12)

    def test_full_cov_log_density_matches_diagonal(self):
        rng = np.random.default_rng(6)
        mean = rng.standard_normal((20, 2))
        x = rng.standard_normal((20, 2))
        v = np.array([2.0, 0.5])
        diag = GaussianPredictions(mean=mean, var=np.tile(v, (20, 1)))
        full = GaussianPredictions(mean=mean, cov=np.diag(v))
        np.testing.assert_allclose(diag.log_density(x), full.log_density(x),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(diag.entropy(), full.entropy(), atol=1e-12)

    def test_cov_must_be_positive_definite(self):
        with pytest.raises(DataFormatError):
            GaussianPredictions(mean=np.zeros((1, 2)),
                                cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestFitVar:
    def test_recovers_ar1_coefficient(self):
        """phi=0.9, n=1e4: the lag-1 coefficient and noise variance come back."""
        ds = embed_pair(ar1_series(0.9, 10_000, seed=7), roles=(("x",), ("x",)))
        model = fit_var(ds, BASELINE)
        coef = model.params["coef"]
        assert coef.shape == (1, 1)
        np.testing.assert_allclose(coef[0, 0], 0.9, atol=0.02)
        np.testing.assert_allclose(model.params["cov"][0, 0], 1.0, rtol=0.10)

    def test_augmented_fit_splits_coupled_sources(self):
        """Fitting on joint history recovers both coupling coefficients."""
        model = fit_var(embed_pair(coupled_pair(seed=7)), AUGMENTED)
        coef = model.params["coef"][:, 0]
        np.testing.assert_allclose(coef, [0.5, 0.5], atol=0.03)

    def test_constant_target_hits_variance_floor(self):
        rng = np.random.default_rng(0)
        hist = rng.standard_normal((50, 2))
        ds = history_dataset(np.full((50, 1), 3.0), hist, hist.shape[1])
        model = fit_var(ds, BASELINE)
        preds = predict(model, hist)
        np.testing.assert_allclose(preds.mean, 3.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.diagonal(model.params["cov"]),
                                   VARIANCE_FLOOR, rtol=1e-6)

    def test_too_few_rows_rejected(self):
        ds = history_dataset(np.zeros((3, 1)), np.zeros((3, 4)), 4)
        with pytest.raises(DataFormatError):
            fit_var(ds, BASELINE)

    def test_predict_affine_hand_check(self):
        model = FittedModel(kind="var_linear", conditioning="baseline",
                            output_dim=1,
                            params={"intercept": np.array([1.0]),
                                    "coef": np.array([[2.0]]),
                                    "cov": np.array([[4.0]])})
        preds = predict(model, np.array([[3.0]]))
        np.testing.assert_allclose(preds.mean, [[7.0]])
        np.testing.assert_allclose(preds.cov, [[4.0]])


def per_layer_adam(x_raw, y_raw, train, seed):
    """Reference training loop: Adam applied to each layer array in turn, in
    float32 like :func:`fit_mlp`, on the out-of-place reference backprop;
    the layers come back as float64."""
    n, p = x_raw.shape
    d = y_raw.shape[1]
    x_scale = np.maximum(x_raw.std(axis=0), 1e-12)
    y_scale = np.maximum(y_raw.std(axis=0), 1e-12)
    x = ((x_raw - x_raw.mean(axis=0)) / x_scale).astype(np.float32)
    y = ((y_raw - y_raw.mean(axis=0)) / y_scale).astype(np.float32)
    rng = np.random.default_rng(seed)
    layers = [q.astype(np.float32) for q in _init_layers(p, d, train.hidden, rng)]
    m = [np.zeros_like(q) for q in layers]
    v = [np.zeros_like(q) for q in layers]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = max(1, min(train.batch_size, n))
    for _ in range(train.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            _, grads = reference_nll_and_grads(layers, x[idx], y[idx], d)
            step += 1
            for j, g in enumerate(grads):
                m[j] = beta1 * m[j] + (1 - beta1) * g
                v[j] = beta2 * v[j] + (1 - beta2) * g * g
                m_hat = m[j] / (1 - beta1**step)
                v_hat = v[j] / (1 - beta2**step)
                layers[j] = layers[j] - train.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return [q.astype(np.float64) for q in layers], step


class TestFinalNll:
    """A fit reports the NLL of the model the pipeline applies."""

    @pytest.mark.parametrize("kind", ["var_linear", "mlp_gaussian"])
    @pytest.mark.parametrize("conditioning", [BASELINE, AUGMENTED])
    @pytest.mark.parametrize("constant", [False, True])
    def test_is_the_mean_predict_nll_on_the_fit_rows(self, kind, conditioning,
                                                     constant):
        """``final_nll`` is ``-mean(log_density)`` of the fitted model's
        ``predict_dataset`` Gaussians on its own rows, to 1e-12 relative (the
        closed-form linear NLL) or exactly (the network), on a two-dimensional
        target that varies or is constant.  A constant target drives the
        network's variances far below ``VARIANCE_FLOOR``, and the reported NLL
        is the floored model's: not below 0.5 * d * (ln 2 pi + ln 1e-8)."""
        rng = np.random.default_rng(12)
        hist = rng.standard_normal((240, 6))
        targets = (np.full((240, 2), -1.5) if constant
                   else hist[:, :2] @ [[0.6, 0.1], [0.0, 0.4]]
                   + 0.3 * rng.standard_normal((240, 2)))
        ds = history_dataset(targets, hist, 3)
        if kind == "var_linear":
            model = fit_var(ds, conditioning)
        else:
            model = fit_mlp(ds, conditioning, mlp_model((8,), epochs=30), 3)
        nll = -np.mean(predict_dataset(model, ds).log_density(ds.targets))
        if constant:
            bound = 0.5 * 2 * (np.log(2.0 * np.pi) + np.log(VARIANCE_FLOOR))
            assert model.train_report.final_nll >= bound - 1e-12 * abs(bound)
        assert model.train_report.final_nll == pytest.approx(nll, rel=1e-12, abs=0)


class TestFitMlp:
    def test_zero_hidden_matches_linear_fit(self):
        """With no hidden layers the network is linear-Gaussian, so its final
        NLL lands within 1% of the closed-form least-squares fit."""
        ds = embed_pair(coupled_pair(seed=13))
        nll_var = fit_var(ds, AUGMENTED).train_report.final_nll
        mlp = fit_mlp(ds, AUGMENTED, mlp_model(()), 0)
        nll_mlp = mlp.train_report.final_nll
        assert abs(nll_mlp - nll_var) / abs(nll_var) < 0.01

    def test_learns_input_dependent_variance(self):
        """x_t = sin(x_{t-1}) + (0.1 + 0.5|y_{t-1}|) eps: the predicted sd on
        held-out rows tracks |y| (Pearson r > 0.8)."""
        rng = np.random.default_rng(11)
        n = 5_000
        y = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = 0.0
        for t in range(1, n):
            x[t] = np.sin(x[t - 1]) + (0.1 + 0.5 * abs(y[t - 1])) * rng.standard_normal()
        ds = embed_pair(TimeSeries(channels=("x", "y"), data=np.column_stack([x, y]),
                                   dt=1.0))
        n_train = 4_000
        model = fit_mlp(slice_dataset(ds, slice(None, n_train)), AUGMENTED,
                        mlp_model((64, 64)), 0)
        preds = predict(model, ds.joint_hist[n_train:])
        sd = np.sqrt(preds.var[:, 0])
        abs_y = np.abs(ds.joint_hist[n_train:, 1])
        r = np.corrcoef(sd, abs_y)[0, 1]
        assert r > 0.8

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(3)
        ds = history_dataset(rng.standard_normal((200, 1)),
                             rng.standard_normal((200, 3)), 3)
        a = fit_mlp(ds, BASELINE, mlp_model((8,), epochs=20), 0)
        b = fit_mlp(ds, BASELINE, mlp_model((8,), epochs=20), 0)
        assert a.params.keys() == b.params.keys()
        assert len(a.params["layers"]) == len(b.params["layers"])
        for p, q in [*zip(a.params["layers"], b.params["layers"]),
                     *((a.params[k], b.params[k]) for k in a.params if k != "layers")]:
            np.testing.assert_array_equal(p, q)
        assert a.train_report == b.train_report

    @pytest.mark.parametrize("hidden, batch_size", [((16, 8), 64), ((), 256)])
    def test_flat_buffer_adam_matches_per_layer_loop(self, hidden, batch_size):
        """The whole-buffer Adam update trains the same weights, bit for bit,
        as the update applied one layer array at a time."""
        rng = np.random.default_rng(9)
        ds = history_dataset(rng.standard_normal((300, 2)),
                             np.hstack([rng.standard_normal((300, 3)),
                                        rng.standard_normal((300, 3))]), 3)
        train = mlp_model(hidden, epochs=15, batch_size=batch_size)
        model = fit_mlp(ds, AUGMENTED, train, 4)
        layers, n_iter = per_layer_adam(ds.joint_hist, ds.targets, train, 4)
        assert model.train_report.n_iter == n_iter
        assert len(model.params["layers"]) == len(layers)
        for got, ref in zip(model.params["layers"], layers):
            assert got.tobytes() == ref.tobytes()
            assert got.base is None

    def test_predicted_variance_never_below_floor(self):
        """A constant target would drive log-variance to -inf; the clamp holds."""
        rng = np.random.default_rng(4)
        hist = rng.standard_normal((100, 2))
        ds = history_dataset(np.zeros((100, 1)), hist, hist.shape[1])
        model = fit_mlp(ds, BASELINE, mlp_model((8,), epochs=50), 0)
        preds = predict(model, hist)
        assert np.all(preds.var >= VARIANCE_FLOOR)

    def test_trains_in_float32_and_stores_float64(self):
        """Stored layers are float32 weights promoted to float64, and the
        reported NLL is the float64 NLL of those stored layers."""
        rng = np.random.default_rng(6)
        ds = history_dataset(rng.standard_normal((120, 2)),
                             np.hstack([rng.standard_normal((120, 3)),
                                        rng.standard_normal((120, 3))]), 3)
        model = fit_mlp(ds, AUGMENTED, mlp_model((8, 4), epochs=10), 0)
        layers = model.params["layers"]
        assert len(layers) == 6
        for q in layers:
            assert q.dtype == np.float64
            assert np.array_equal(q.astype(np.float32).astype(np.float64), q)
        p = model.params
        x = (ds.joint_hist - p["x_mean"]) / p["x_scale"]
        y = (ds.targets - p["y_mean"]) / p["y_scale"]
        nll, _ = _nll_and_grads(layers, x, y, 2)
        assert model.train_report.final_nll == float(nll + np.sum(np.log(p["y_scale"])))

    def test_final_nll_needs_no_backward_pass(self, monkeypatch):
        """Training calls the objective once per step, and the final NLL is
        the fitted model's own: the mean NLL of its predict Gaussians on the
        rows it was fit to, with no further backward pass."""
        import cueflow.models as models_module

        ds = embed_pair(coupled_pair(seed=2, n=600), d=2)
        calls = []
        nll_and_grads = models_module._nll_and_grads

        def counting(*args, **kwargs):
            calls.append(args[1].shape[0])
            return nll_and_grads(*args, **kwargs)

        monkeypatch.setattr(models_module, "_nll_and_grads", counting)
        model = fit_mlp(ds, AUGMENTED, mlp_model((16, 16), epochs=5), 0)
        assert len(calls) == model.train_report.n_iter
        nll = -np.mean(predict_dataset(model, ds).log_density(ds.targets))
        assert model.train_report.final_nll == float(nll)

    def test_constant_target_keeps_float32_exp_in_range(self):
        """A constant target drives log-variance down for the whole run; at
        the acceptance size it stays far above -log(float32 max) ~ -88.7,
        where exp(-lv) would overflow (and raise under the warning filter)."""
        rng = np.random.default_rng(4)
        hist = rng.standard_normal((100, 2))
        ds = history_dataset(np.zeros((100, 1)), hist, hist.shape[1])
        model = fit_mlp(ds, BASELINE, mlp_model((64, 64)), 0)
        xs = (hist - model.params["x_mean"]) / model.params["x_scale"]
        out, _ = _forward(model.params["layers"], xs)
        lv = out[:, 1:]
        assert lv.min() > -0.5 * np.log(np.finfo(np.float32).max)

    def test_divergence_raises_naming_epoch_and_step(self):
        """A learning rate far too large drives the NLL to inf or NaN within
        a few steps; fit_mlp raises, with no RuntimeWarning on the way (the
        test run turns one into an error)."""
        rng = np.random.default_rng(5)
        ds = history_dataset(rng.standard_normal((300, 2)),
                             rng.standard_normal((300, 4)), 4)
        with pytest.raises(TrainingDivergedError) as err:
            fit_mlp(ds, BASELINE,
                    mlp_model((16, 16), epochs=20, batch_size=64, learning_rate=1e3), 0)
        assert re.fullmatch(r"non-finite NLL at epoch \d+, step \d+", str(err.value))

    def test_epochs_after_the_first_allocate_no_batch_sized_block(self, monkeypatch):
        """From the second epoch on, no step (reshuffle, forward and backward
        pass, Adam update) allocates a block as large as a hidden layer's
        output on its batch: traced memory never rises that far above its level
        at the step's start.  (A ufunc that broadcasts or casts takes up to
        8192 items of scratch of its own, so the blocks are made larger.)"""
        import cueflow.models as models_module

        rng = np.random.default_rng(8)
        n, batch, width = 712, 256, 64  # batches of 256, 256 and 200 rows
        # 24 inputs, so that an epoch's reshuffled rows are a larger block too.
        ds = history_dataset(rng.standard_normal((n, 2)),
                             rng.standard_normal((n, 24)), 12)
        sizes, rises, level = [], [], []
        nll_and_grads = models_module._nll_and_grads

        def traced(layers, x, *args):
            current, peak = tracemalloc.get_traced_memory()
            if level:
                rises.append(peak - level[0])
            sizes.append(x.shape[0] * width * x.itemsize)
            tracemalloc.reset_peak()
            level[:] = [tracemalloc.get_traced_memory()[0]]
            return nll_and_grads(layers, x, *args)

        monkeypatch.setattr(models_module, "_nll_and_grads", traced)
        tracemalloc.start()
        try:
            model = fit_mlp(ds, AUGMENTED,
                            mlp_model((width, width), epochs=4, batch_size=batch), 0)
        finally:
            tracemalloc.stop()
        assert model.train_report.n_iter == 12
        # rises[k] covers step k and the reshuffle before step k + 1.
        for rise, size in zip(rises[2:], sizes[2:-1]):
            assert rise < size


def reference_nll_and_grads(layers, x, y, output_dim):
    """Out-of-place forward pass and backprop that also forms the never-read
    gradient w.r.t. the input."""
    b = x.shape[0]
    acts = [x]
    for i in range(len(layers) // 2 - 1):
        acts.append(np.tanh(acts[-1] @ layers[2 * i] + layers[2 * i + 1]))
    out = acts[-1] @ layers[-2] + layers[-1]
    mu, lv = out[:, :output_dim], out[:, output_dim:]
    inv_var = np.exp(-lv)
    resid = y - mu
    nll = 0.5 * np.mean(np.sum(np.log(2.0 * np.pi) + lv + resid**2 * inv_var, axis=1))
    d_mu = -(resid * inv_var) / b
    d_lv = 0.5 * (1.0 - resid**2 * inv_var) / b
    d_out = np.hstack([d_mu, d_lv])
    grads = [None] * len(layers)
    grads[-2] = acts[-1].T @ d_out
    grads[-1] = d_out.sum(axis=0)
    d_a = d_out @ layers[-2].T
    n_hidden = len(layers) // 2 - 1
    for i in range(n_hidden - 1, -1, -1):
        d_z = d_a * (1.0 - acts[i + 1] ** 2)
        grads[2 * i] = acts[i].T @ d_z
        grads[2 * i + 1] = d_z.sum(axis=0)
        d_a = d_z @ layers[2 * i].T
    return nll, grads


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rel = gradient_check(hidden=(8,), input_dim=3, output_dim=2,
                             n_rows=16, seed=0)
        assert rel < 1e-4

    def test_linear_network_gradient_is_tight(self):
        rel = gradient_check(hidden=(), input_dim=2, output_dim=1,
                             n_rows=16, seed=1)
        assert rel < 1e-6

    def test_zero_initialized_layers_give_finite_gradients(self):
        rng = np.random.default_rng(2)
        layers = [np.zeros_like(q)
                  for q in _init_layers(3, 2, (8,), rng)]
        nll, grads = _nll_and_grads(layers, rng.normal(size=(16, 3)),
                                    rng.normal(size=(16, 2)), 2)
        assert np.isfinite(nll)
        assert all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("hidden", [(), (8,), (16, 8), (5, 4, 3), (1,)])
    def test_gradients_match_the_reference_bitwise(self, hidden):
        """In float64 on C-ordered rows, and in float32, as fit_mlp trains, on
        a full batch and on a short last batch taken as a column view of a
        column-major block (the layout of embedded histories); the in-place
        pass writes into the given gradient and work arrays and leaves its
        inputs byte-for-byte unchanged.  Each work set serves two batches of
        different data, so nothing in it carries over from one pass to the
        next.  A hidden layer one unit wide has a single-column bias sum."""
        rng = np.random.default_rng(len(hidden))
        layers = _init_layers(4, 2, hidden, rng)
        layers32 = [q.astype(np.float32) for q in layers]
        block = np.asfortranarray(rng.normal(size=(48, 6)), dtype=np.float32)

        def batches(rows, dtype):
            return [(rng.normal(size=(rows, 4)).astype(dtype),
                     rng.normal(size=(rows, 2)).astype(dtype)) for _ in range(2)]

        def into():
            return [np.full(q.shape, np.nan, np.float32) for q in layers]

        short = [(block[lo:lo + 8, 2:], rng.normal(size=(8, 2)).astype(np.float32))
                 for lo in (32, 40)]
        cases = [(layers, batches(32, np.float64), None, None),
                 (layers32, batches(32, np.float32), into(),
                  _Work(layers32, 32, 2, np.float32)),
                 (layers32, short, into(), _Work(layers32, 8, 2, np.float32))]
        for layers, data, into, work in cases:
            for x, y in data:
                before = [q.tobytes() for q in (x, y, *layers)]
                nll, grads = _nll_and_grads(layers, x, y, 2, into, work)
                ref_nll, ref_grads = reference_nll_and_grads(layers, x, y, 2)
                assert [q.tobytes() for q in (x, y, *layers)] == before
                assert nll.tobytes() == ref_nll.tobytes()
                assert len(grads) == len(ref_grads)
                for g, ref in zip(grads, ref_grads):
                    assert g.dtype == ref.dtype
                    assert g.tobytes() == ref.tobytes()
                if into is not None:
                    assert all(g is q for g, q in zip(grads, into))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_gaussian_nll_is_the_mean_of_row_sums_bitwise(self, dtype, d):
        """Summed without np.mean and np.sum, into the given arrays, the NLL
        is bitwise the np.mean(np.sum(...)) form, in float64 for a
        float32 batch too, on a log-variance view of an output block."""
        rng = np.random.default_rng(d)
        out = (3.0 * rng.normal(size=(300, 2 * d))).astype(dtype)
        lv = out[:, d:]
        r2_iv = rng.exponential(size=(300, d)).astype(dtype)
        ref = 0.5 * np.mean(np.sum(np.log(2.0 * np.pi) + lv + r2_iv, axis=1))
        nll = _gaussian_nll(lv, r2_iv, np.empty((300, d)), np.empty(300))
        assert nll.dtype == np.float64
        assert nll.tobytes() == ref.tobytes()
