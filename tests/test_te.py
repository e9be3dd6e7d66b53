"""Transfer entropy from Gaussian prediction pairs: closed forms and invariants."""
import numpy as np
import pytest

from cueflow.errors import DataFormatError
from cueflow.models import GaussianPredictions
from cueflow.te import ENTROPY_DIFF, LOGLIK_RATIO, local_te


def preds(mean, var=None, cov=None):
    mean = np.asarray(mean, dtype=float)
    if cov is not None:
        return GaussianPredictions(mean=mean, cov=cov)
    return GaussianPredictions(mean=mean, var=var)


def cov_entropy(cov):
    """Entropy of one Gaussian with full covariance ``cov`` (var_linear's route)."""
    return preds(np.zeros((1, len(cov))), cov=cov).entropy()[0]


def var_entropy(var):
    """Entropy of one Gaussian with per-dimension variances ``var`` (mlp_gaussian's route)."""
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return preds(np.zeros((1, var.size)), var=var[None]).entropy()[0]


class TestGaussianEntropy:
    """The entropies local TE takes its gap from, in both representations."""

    def test_scalar_unit_variance(self):
        # 0.5 * (1 + ln(2*pi))
        for h in (var_entropy(1.0), cov_entropy(np.eye(1))):
            np.testing.assert_allclose(h, 1.4189385332046727, rtol=0, atol=1e-12)

    def test_identity_covariance_is_additive(self):
        for h in (cov_entropy(np.eye(2)), var_entropy([1.0, 1.0])):
            np.testing.assert_allclose(h, 2.8378770664093453, rtol=0, atol=1e-12)

    def test_small_variance_goes_negative(self):
        # variance 1/e^2 drops the entropy below 0.5
        for h in (var_entropy(np.exp(-2.0)), cov_entropy([[np.exp(-2.0)]])):
            np.testing.assert_allclose(h, 0.4189385332046727, atol=1e-12)

    def test_scaling_shifts_by_half_d_log_k(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 4):
            a = rng.standard_normal((d, d))
            cov = a @ a.T + d * np.eye(d)
            var = rng.uniform(0.5, 2.0, size=d)
            for k in (0.5, 2.0, 10.0):
                np.testing.assert_allclose(
                    cov_entropy(k * cov), cov_entropy(cov) + 0.5 * d * np.log(k),
                    atol=1e-10)
                np.testing.assert_allclose(
                    var_entropy(k * var), var_entropy(var) + 0.5 * d * np.log(k),
                    atol=1e-10)

    def test_matrix_route_agrees_with_eigenvalues(self):
        """|Sigma| = prod of eigenvalues, so both entropy routes must agree."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            a = rng.standard_normal((d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            ev = np.linalg.eigvalsh(cov)
            expected = 0.5 * d * (1 + np.log(2 * np.pi)) + 0.5 * np.sum(np.log(ev))
            np.testing.assert_allclose(cov_entropy(cov), expected, atol=1e-9)
            np.testing.assert_allclose(var_entropy(ev), expected, atol=1e-9)

    def test_rejects_bad_covariances(self):
        with pytest.raises(DataFormatError, match="positive and finite"):
            var_entropy(-1.0)
        with pytest.raises(DataFormatError, match="positive definite"):
            cov_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(DataFormatError, match="symmetric"):
            cov_entropy(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


class TestLocalTe:
    def test_halved_variance_gives_half_log_two(self):
        base = preds(np.zeros((5, 1)), var=np.ones((5, 1)))
        full = preds(np.zeros((5, 1)), var=np.full((5, 1), 0.5))
        te = local_te(base, full, np.zeros((5, 1)), mode=ENTROPY_DIFF)
        np.testing.assert_allclose(te, 0.34657359027997264, rtol=0, atol=1e-12)
        assert te.dtype == np.float64 and te.shape == (5,)

    def test_identical_models_give_zero(self):
        rng = np.random.default_rng(2)
        mean = rng.standard_normal((10, 2))
        var = rng.uniform(0.5, 2.0, size=(10, 2))
        base = preds(mean, var=var)
        full = preds(mean.copy(), var=var.copy())
        x = rng.standard_normal((10, 2))
        for mode in (ENTROPY_DIFF, LOGLIK_RATIO):
            np.testing.assert_allclose(local_te(base, full, x, mode=mode), 0.0, atol=1e-12)

    def test_entropy_diff_ignores_means_loglik_does_not(self):
        """Homoscedastic models with different means: the entropy route is
        exactly zero while the likelihood route rewards the better mean."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 1))
        base = preds(np.zeros((50, 1)), var=np.ones((50, 1)))
        full = preds(x.copy(), var=np.ones((50, 1)))  # full predicts perfectly
        ent = local_te(base, full, x, mode=ENTROPY_DIFF)
        np.testing.assert_allclose(ent, 0.0, atol=1e-15)
        llr = local_te(base, full, x, mode=LOGLIK_RATIO)
        np.testing.assert_allclose(llr, 0.5 * x[:, 0] ** 2, atol=1e-12)

    def test_entropy_diff_is_mean_shift_invariant(self):
        rng = np.random.default_rng(4)
        var_b = rng.uniform(0.5, 2.0, size=(30, 1))
        var_f = rng.uniform(0.1, 1.0, size=(30, 1))
        te0 = local_te(preds(np.zeros((30, 1)), var=var_b),
                       preds(np.zeros((30, 1)), var=var_f),
                       np.zeros((30, 1)), mode=ENTROPY_DIFF)
        shift = rng.standard_normal((30, 1)) * 10
        te1 = local_te(preds(shift, var=var_b),
                       preds(-shift, var=var_f),
                       np.zeros((30, 1)), mode=ENTROPY_DIFF)
        np.testing.assert_array_equal(te0, te1)

    def test_common_variance_scaling_cancels(self):
        """Scaling both predictive variances by k leaves entropy_diff TE fixed."""
        rng = np.random.default_rng(5)
        var_b = rng.uniform(0.5, 2.0, size=(30, 2))
        var_f = rng.uniform(0.1, 1.0, size=(30, 2))
        zeros = np.zeros((30, 2))
        te0 = local_te(preds(zeros, var=var_b), preds(zeros, var=var_f), zeros,
                       mode=ENTROPY_DIFF)
        te1 = local_te(preds(zeros, var=7.0 * var_b),
                       preds(zeros, var=7.0 * var_f), zeros, mode=ENTROPY_DIFF)
        np.testing.assert_allclose(te0, te1, atol=1e-12)

    def test_non_finite_te_rejected(self):
        """An infinite prediction mean scores its realized sample at -inf."""
        mean = np.zeros((3, 1))
        mean[1] = np.inf
        base = preds(np.zeros((3, 1)), var=np.ones((3, 1)))
        full = preds(mean, var=np.ones((3, 1)))
        with pytest.raises(DataFormatError, match="non-finite local TE"):
            local_te(base, full, np.zeros((3, 1)), mode=LOGLIK_RATIO)


class TestVarProcessTe:
    def test_coupled_var_matches_closed_form(self, var1_mean_te, coupling_spec):
        """Empirical VAR-route TE on x<-y coupling 0.5 lands on 0.5*ln(1.25)."""
        te = var1_mean_te(coupling_spec(0.5, 100_000, seed=17))
        np.testing.assert_allclose(te, 0.11157177565710488, atol=0.01)

    def test_uncoupled_direction_is_near_zero(self, var1_mean_te, coupling_spec):
        """x never feeds y, so the reverse-direction estimate stays at zero."""
        te = var1_mean_te(coupling_spec(0.5, 100_000, seed=17), reverse=True)
        assert abs(te) < 0.005

    def test_null_estimates_stay_small_across_seeds(self, var1_mean_te,
                                                    coupling_spec):
        for seed in range(20):
            te = var1_mean_te(coupling_spec(0.0, 5_000, seed=seed))
            assert abs(te) < 0.005
