"""Conditional-Gaussian predictive models over embedded histories.

Two model families share one prediction contract: given a history row they
emit a Gaussian over the current target sample.

* ``var_linear`` — vector autoregression fit by ridge-stabilized least
  squares with an intercept; homoscedastic full residual covariance.
* ``mlp_gaussian`` — a small tanh network emitting per-dimension mean and
  log-variance, trained by minibatch gradient descent on the Gaussian
  negative log-likelihood.  Training is deterministic under a fixed seed.

Baseline conditioning uses target history only; augmented conditioning
appends the source history.  The entropy gap between the two is what the
transfer-entropy layer consumes, from a Cholesky factor of ``var_linear``'s
shared covariance or ``mlp_gaussian``'s per-dimension variances.  The
checks of these entropies and of the network's gradients live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import EmbeddedDataset
from .errors import DataFormatError, TrainingDivergedError

VARIANCE_FLOOR = 1e-8
RIDGE_SCALE = 1e-6
_SCALE_FLOOR = 1e-12
# The network's Adam step size and rows per minibatch.  fit_mlp reads them
# when it runs, so a test may set them.
LEARNING_RATE = 1e-3
BATCH_SIZE = 256

BASELINE = "baseline"
AUGMENTED = "augmented"

VAR_LINEAR = "var_linear"
MLP_GAUSSIAN = "mlp_gaussian"


class GaussianPredictions:
    """Batched predictive Gaussians for a run of timesteps.

    Stores either per-dimension variances (``var``, shape (T, D)) or one
    shared full covariance (``cov``, shape (D, D)), with vectorized
    entropy/log-density for the transfer-entropy layer.
    """

    def __init__(self, mean: np.ndarray, *,
                 var: np.ndarray | None = None, cov: np.ndarray | None = None):
        mean = np.asarray(mean, dtype=float)
        if mean.ndim != 2:
            raise DataFormatError("mean must have shape (T, D)")
        if (var is None) == (cov is None):
            raise DataFormatError("provide exactly one of var=, cov=")
        self.mean = mean
        self.var = None
        self.cov = None
        if var is not None:
            var = np.asarray(var, dtype=float)
            if var.shape != mean.shape:
                raise DataFormatError("var must match mean shape (T, D)")
            if not (np.isfinite(var).all() and (var > 0).all()):
                raise DataFormatError("variances must be positive and finite")
            self.var = var
        else:
            cov = np.asarray(cov, dtype=float)
            d = mean.shape[1]
            if cov.shape != (d, d):
                raise DataFormatError(f"cov must have shape ({d}, {d})")
            if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
                raise DataFormatError("covariance must be symmetric")
            try:
                self._chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise DataFormatError("covariance must be positive definite") from None
            self.cov = cov

    def __len__(self) -> int:
        return self.mean.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def log_det(self) -> np.ndarray:
        """ln|Sigma_t| for every timestep, shape (T,)."""
        if self.var is not None:
            return np.sum(np.log(self.var), axis=1)
        ld = 2.0 * np.sum(np.log(np.diag(self._chol)))
        return np.full(len(self), ld)

    def entropy(self) -> np.ndarray:
        """Differential entropy in nats per timestep, shape (T,)."""
        d = self.dim
        return 0.5 * d * (1.0 + np.log(2.0 * np.pi)) + 0.5 * self.log_det()

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """ln N(x_t; mean_t, Sigma_t) per timestep for rows ``x`` of shape (T, D)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.mean.shape:
            raise DataFormatError(f"x shape {x.shape} does not match predictions {self.mean.shape}")
        r = x - self.mean
        d = self.dim
        if self.var is not None:
            maha = np.sum(r * r / self.var, axis=1)
        else:
            z = np.linalg.solve(self._chol, r.T)
            maha = np.sum(z * z, axis=0)
        return -0.5 * (d * np.log(2.0 * np.pi) + self.log_det() + maha)


@dataclass(frozen=True)
class TrainReport:
    """Optimizer step count and the fitted model's mean NLL on its fit rows
    (nats per sample, original units): the ``predict`` Gaussians, variance
    floor included, scored on the rows the model was fit to."""

    final_nll: float
    n_iter: int


@dataclass(frozen=True)
class FittedModel:
    """A trained predictor plus everything needed to reapply it.  ``params``
    holds ``intercept``, ``coef`` and ``cov`` (``var_linear``), or the float64
    ``layers`` ``[W0, b0, W1, b1, ...]`` in the trainer's order and the
    ``x_mean``, ``x_scale``, ``y_mean`` and ``y_scale`` standardizers."""

    kind: str
    conditioning: str
    output_dim: int
    params: dict[str, np.ndarray | list[np.ndarray]]
    train_report: TrainReport = field(default=TrainReport(float("nan"), 0))


def _design_rows(ds: EmbeddedDataset, conditioning: str) -> np.ndarray:
    if conditioning == BASELINE:
        return ds.target_hist
    if conditioning == AUGMENTED:
        return ds.joint_hist
    raise DataFormatError(f"unknown conditioning {conditioning!r}")


# ---------------------------------------------------------------------------
# Linear-Gaussian (VAR) fit
# ---------------------------------------------------------------------------

def fit_var(ds: EmbeddedDataset, conditioning: str = BASELINE) -> FittedModel:
    """Least-squares VAR with intercept and homoscedastic residual covariance.

    The normal equations carry a ridge term ``1e-6 * trace(X'X) / dim`` on
    the non-intercept block, which keeps degenerate designs (constant
    channels, duplicated lags) solvable without biasing healthy fits.
    Residual covariance uses the maximum-likelihood 1/T scaling with a
    ``VARIANCE_FLOOR`` added to the diagonal.
    """
    x = _design_rows(ds, conditioning)
    y = ds.targets
    t_rows, p = x.shape
    if t_rows <= p + 1:
        raise DataFormatError(
            f"need more rows than parameters to fit: T={t_rows}, dim={p + 1}"
        )
    z = ds.design[:, :1 + p]  # the intercept column, then x
    g = z.T @ z
    lam = RIDGE_SCALE * np.trace(x.T @ x) / p
    reg = lam * np.eye(p + 1)
    reg[0, 0] = 0.0  # intercept is never shrunk
    theta = np.linalg.solve(g + reg, z.T @ y)
    resid = y - z @ theta
    cov = resid.T @ resid / t_rows + VARIANCE_FLOOR * np.eye(y.shape[1])
    d = y.shape[1]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise DataFormatError("residual covariance is not positive definite")
    nll = 0.5 * d * np.log(2.0 * np.pi) + 0.5 * logdet \
        + 0.5 * np.trace(np.linalg.solve(cov, resid.T @ resid)) / t_rows
    return FittedModel(
        kind=VAR_LINEAR,
        conditioning=conditioning,
        output_dim=d,
        params={"intercept": theta[0], "coef": theta[1:], "cov": cov},
        train_report=TrainReport(final_nll=float(nll), n_iter=1),
    )


# ---------------------------------------------------------------------------
# Heteroscedastic MLP
# ---------------------------------------------------------------------------

def _init_layers(input_dim: int, output_dim: int, hidden, rng) -> list[np.ndarray]:
    sizes = [input_dim, *hidden, 2 * output_dim]
    layers: list[np.ndarray] = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        layers.append(np.zeros(fan_out))
    return layers


# An np.float64, not a Python float, so that the NLL's terms are summed in
# float64 on a float32 batch too.
_LOG_2PI = np.log(2.0 * np.pi)


class _Work:
    """The arrays one forward/backward pass over ``rows`` rows writes into,
    uninitialised.  (A plain class: a dataclass costs start-up time.)"""

    def __init__(self, layers, rows: int, output_dim: int, dtype):
        widths = [w.shape[1] for w in layers[:-2:2]]
        self.acts = [np.empty((rows, h), dtype) for h in widths]  # hidden outputs
        self.out = np.empty((rows, 2 * output_dim), dtype)  # [mu | lv], then [d_mu | d_lv]
        self.d_z = [np.empty((rows, h), dtype) for h in widths]  # d NLL / d hidden input
        self.inv_var, self.resid, self.r2_iv = np.empty((3, rows, output_dim), dtype)
        self.terms = np.empty((rows, output_dim))  # the NLL's terms, in float64
        self.term_rows = np.empty(rows)


def _forward(layers, x, work=None):
    """Output block ``[mean | log-variance]`` and the input of every layer,
    written into ``work``'s arrays (new arrays when None)."""
    acts = [x]
    for i in range(len(layers) // 2 - 1):
        a = np.matmul(acts[-1], layers[2 * i], out=work.acts[i] if work else None)
        a += layers[2 * i + 1]
        acts.append(np.tanh(a, out=a))
    out = np.matmul(acts[-1], layers[-2], out=work.out if work else None)
    out += layers[-1]
    return out, acts


def _gaussian_nll(lv, r2_iv, terms, term_rows):
    """A training batch's mean Gaussian NLL, in standardized units, from
    log-variances and squared residuals over variances, summed in float64
    in ``terms`` and ``term_rows``.  Equal, bitwise, to
    ``0.5 * np.mean(np.sum(log(2 pi) + lv + r2_iv, axis=1))`` without the
    Python layers of np.mean and np.sum."""
    terms = np.add(_LOG_2PI, lv, out=terms)
    terms += r2_iv
    return 0.5 * (np.add.reduce(np.add.reduce(terms, axis=1, out=term_rows))
                  / lv.shape[0])


def _column_sums(a, out):
    """``a.sum(axis=0, out=out)``, bitwise.  einsum adds the rows in the same
    order and faster, except for a single column, which it sums another way."""
    if a.shape[1] == 1:
        return np.add.reduce(a, axis=0, out=out)
    return np.einsum("ij->j", a, out=out)


def _nll_and_grads(layers, x, y, output_dim, grads, work):
    """Mean Gaussian NLL over the batch and its gradient w.r.t. every layer,
    written into ``grads``.  Every intermediate goes into ``work``, a
    :class:`_Work` for the batch's row count, so ``x``, ``y`` and ``layers``,
    which share one dtype, are left as they are."""
    b = x.shape[0]
    out, acts = _forward(layers, x, work)
    mu, lv = out[:, :output_dim], out[:, output_dim:]
    inv_var = np.exp(np.negative(lv, out=work.inv_var), out=work.inv_var)
    resid = np.subtract(y, mu, out=work.resid)
    r2_iv = np.square(resid, out=work.r2_iv)
    r2_iv *= inv_var
    nll = _gaussian_nll(lv, r2_iv, work.terms, work.term_rows)
    # out becomes d_z = [d_mu | d_lv] = [-resid * inv_var / b | 0.5 * (1 - r2_iv) / b],
    # with the sign and the 0.5 moved into the divisors, where they are exact.
    # The (rows, d) temporaries are contiguous; the halves of out are not.
    d_z = out
    resid *= inv_var
    np.divide(resid, -b, out=mu)
    np.divide(np.subtract(1.0, r2_iv, out=r2_iv), 2 * b, out=lv)
    for i in range(len(layers) // 2 - 1, -1, -1):
        np.matmul(acts[i].T, d_z, out=grads[2 * i])
        _column_sums(d_z, grads[2 * i + 1])
        if i:  # nothing reads the gradient w.r.t. the network input
            a = acts[i]  # not read again, so it takes 1 - a**2
            d_z = np.matmul(d_z, layers[2 * i].T, out=work.d_z[i - 1])
            d_z *= np.subtract(1.0, np.square(a, out=a), out=a)
    return nll, grads


def fit_mlp(ds: EmbeddedDataset, conditioning: str, model, seed: int) -> FittedModel:
    """Train the heteroscedastic Gaussian network with Adam.

    ``model`` is the ``[model]`` section, a :class:`cueflow.config.ModelConfig`
    (not imported here: ``config`` imports this module).  Its ``hidden``
    layer widths shape the network and its ``epochs`` set the length of the
    minibatch descent, in batches of ``BATCH_SIZE`` rows and Adam steps of
    ``LEARNING_RATE``; its initial weights and row order follow from
    ``seed``.  Inputs and targets are standardized internally (the stored
    scalers map predictions back to original units), which keeps the one
    learning rate usable across data scales.  The reported ``final_nll`` is
    the returned model's mean NLL on ``ds`` as :func:`predict_dataset`
    scores it, variance floor included.  Raises
    :class:`~cueflow.errors.TrainingDivergedError` on a non-finite batch
    objective.
    """
    x_raw = _design_rows(ds, conditioning)
    y_raw = ds.targets
    n, p = x_raw.shape
    d = y_raw.shape[1]
    if n < 2:
        raise DataFormatError("need at least two rows to train")

    x_mean, x_scale = x_raw.mean(axis=0), np.maximum(x_raw.std(axis=0), _SCALE_FLOOR)
    y_mean, y_scale = y_raw.mean(axis=0), np.maximum(y_raw.std(axis=0), _SCALE_FLOOR)
    # Training runs in float32, about 3x faster per step than float64; the
    # stored layers, predictions and the reported NLL are float64.  C order,
    # as np.take copies any other layout before it gathers rows.
    x32 = ((x_raw - x_mean) / x_scale).astype(np.float32, order="C")
    y32 = ((y_raw - y_mean) / y_scale).astype(np.float32, order="C")

    rng = np.random.default_rng(seed)
    # Layers and gradients (written by _nll_and_grads) are views into flat
    # buffers, so each Adam step is a few whole-buffer in-place operations.
    # They keep the elementwise order of the per-layer update
    #   w = w - lr * (m / c1) / (sqrt(v / c2) + eps)
    # so the trained weights are bitwise the same.
    init = _init_layers(p, d, model.hidden, rng)
    flat = np.concatenate([q.ravel() for q in init]).astype(np.float32)
    grad = np.empty_like(flat)
    layers, grad_views, at = [], [], 0
    for q in init:
        layers.append(flat[at:at + q.size].reshape(q.shape))
        grad_views.append(grad[at:at + q.size].reshape(q.shape))
        at += q.size
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    m_hat, v_hat = np.empty_like(flat), np.empty_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = min(BATCH_SIZE, n)
    # Each epoch's shuffled rows, and the work arrays of the full and the
    # short last batch, are allocated once; rng.shuffle of a fresh arange is
    # rng.permutation, so the order of the rows is unchanged.  np.take buffers
    # out in its default mode="raise"; every index is in range, so "clip"
    # gathers the same rows without the buffer.
    rows = np.arange(n)
    order = np.empty_like(rows)
    x_epoch, y_epoch = np.empty((n, p), np.float32), np.empty((n, d), np.float32)
    works = {k: _Work(layers, k, d, np.float32) for k in {batch, n % batch or batch}}
    # A diverging run overflows exp and makes inf - inf on its way to the
    # non-finite NLL below, which is its one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(model.epochs):
            order[:] = rows
            rng.shuffle(order)
            np.take(x32, order, axis=0, out=x_epoch, mode="clip")
            np.take(y32, order, axis=0, out=y_epoch, mode="clip")
            for lo in range(0, n, batch):
                x_b, y_b = x_epoch[lo:lo + batch], y_epoch[lo:lo + batch]
                nll, _ = _nll_and_grads(layers, x_b, y_b, d, grad_views,
                                        works[x_b.shape[0]])
                if not np.isfinite(nll):
                    raise TrainingDivergedError(
                        f"non-finite NLL at epoch {epoch}, step {step}"
                    )
                step += 1
                m *= beta1
                np.multiply(grad, 1 - beta1, out=m_hat)
                m += m_hat
                v *= beta2
                np.multiply(grad, 1 - beta2, out=v_hat)
                v_hat *= grad
                v += v_hat
                np.divide(m, 1 - beta1**step, out=m_hat)
                np.divide(v, 1 - beta2**step, out=v_hat)
                np.sqrt(v_hat, out=v_hat)
                v_hat += eps
                m_hat *= LEARNING_RATE
                m_hat /= v_hat
                flat -= m_hat

    params = dict(layers=[q.astype(np.float64) for q in layers], x_mean=x_mean,
                  x_scale=x_scale, y_mean=y_mean, y_scale=y_scale)
    fitted = FittedModel(kind=MLP_GAUSSIAN, conditioning=conditioning, output_dim=d,
                         params=params)
    final_nll = -np.mean(predict_dataset(fitted, ds).log_density(y_raw))
    return replace(fitted, train_report=TrainReport(final_nll=float(final_nll), n_iter=step))


def predict(model: FittedModel, rows: np.ndarray) -> GaussianPredictions:
    """Predictive Gaussians for history rows, in original data units.

    Every returned variance is clamped below by ``VARIANCE_FLOOR``.
    ``rows`` is a 2-D float array with the columns of the model's training
    rows: the pipeline embeds under one spec and channel roles for both, and
    :func:`predict_dataset` picks the model's conditioning.
    """
    if model.kind == VAR_LINEAR:
        mean = model.params["intercept"] + rows @ model.params["coef"]
        return GaussianPredictions(mean=mean, cov=model.params["cov"])
    xs = (rows - model.params["x_mean"]) / model.params["x_scale"]
    out, _ = _forward(model.params["layers"], xs)
    mu, lv = out[:, :model.output_dim], out[:, model.output_dim:]
    mean = model.params["y_mean"] + model.params["y_scale"] * mu
    var = np.maximum(model.params["y_scale"] ** 2 * np.exp(lv), VARIANCE_FLOOR)
    return GaussianPredictions(mean=mean, var=var)


def predict_dataset(model: FittedModel, ds: EmbeddedDataset) -> GaussianPredictions:
    """Convenience: predict on an embedded dataset's own rows, in order."""
    return predict(model, _design_rows(ds, model.conditioning))

