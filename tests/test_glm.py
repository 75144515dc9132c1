import numpy as np
import pytest

from sglmm.glm import irls_fit
from sglmm.model import ModelSpec, inverse_link, log_likelihood


def score(family, X, Z, beta, offset=None):
    """X'(Z - mean), the canonical-link score (Gaussian: unit variance)."""
    eta = X @ beta + (0.0 if offset is None else np.log(offset))
    return X.T @ (Z - inverse_link(family, eta))


def test_gaussian_irls_equals_ols():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    Z = X @ np.array([1.0, -2.0]) + rng.standard_normal(40)
    fit = irls_fit("gaussian", X, Z)
    beta_ols = np.linalg.solve(X.T @ X, X.T @ Z)
    assert np.allclose(fit.beta_hat, beta_ols, atol=1e-12)
    assert fit.converged
    rss = float((Z - X @ beta_ols) @ (Z - X @ beta_ols))
    assert fit.sigma2_hat == pytest.approx(rss / (40 - 2))


def test_poisson_intercept_only_closed_form():
    # MLE of a constant-rate Poisson model is log of the sample mean;
    # grid-search oracle confirms the maximizer
    X = np.ones((3, 1))
    Z = np.array([1.0, 2.0, 3.0])
    fit = irls_fit("poisson", X, Z)
    assert fit.beta_hat[0] == pytest.approx(np.log(2.0), abs=1e-10)
    grid = np.linspace(0.0, 1.5, 4001)
    spec = ModelSpec("poisson", "nonspatial")
    lls = [log_likelihood(spec, Z, X @ np.array([b])) for b in grid]
    assert grid[int(np.argmax(lls))] == pytest.approx(np.log(2.0), abs=1e-3)


def test_bernoulli_separated_data_does_not_converge():
    # perfectly separated: IRLS diverges and must report it
    X = np.column_stack([np.ones(8), np.arange(8.0)])
    Z = (np.arange(8.0) >= 4).astype(float)
    fit = irls_fit("bernoulli", X, Z)
    assert not fit.converged


def test_diverging_poisson_fit_is_reported_without_warnings():
    # counts of 1e12 with no intercept overflow exp at the second iterate;
    # the fit stops there and says so, and numpy warns of nothing (pytest
    # turns warnings into errors)
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, (36, 2))
    fit = irls_fit("poisson", X, np.full(36, 1e12))
    assert not fit.converged
    assert not np.all(np.isfinite(fit.beta_hat))


def test_bernoulli_fit_recovers_coefficients():
    rng = np.random.default_rng(42)
    n = 500
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    eta = X @ np.array([0.3, -0.8])
    Z = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    fit = irls_fit("bernoulli", X, Z)
    assert fit.converged
    assert np.allclose(fit.beta_hat, [0.3, -0.8], atol=0.3)


def test_poisson_with_offset():
    rng = np.random.default_rng(3)
    n = 400
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    exposure = rng.uniform(1, 100, n)
    eta = X @ np.array([-2.0, 0.5]) + np.log(exposure)
    Z = rng.poisson(np.exp(eta)).astype(float)
    fit = irls_fit("poisson", X, Z, offset=exposure)
    assert fit.converged
    assert np.allclose(fit.beta_hat, [-2.0, 0.5], atol=0.15)
    grad = score("poisson", X, Z, fit.beta_hat, offset=exposure)
    assert np.abs(grad).max() < 1e-6


def test_gradient_small_at_optimum():
    rng = np.random.default_rng(11)
    for family in ("bernoulli", "poisson", "gaussian"):
        n = 120
        X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.standard_normal(n)])
        eta = X @ np.array([0.2, 0.4, -0.3])
        if family == "bernoulli":
            Z = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        elif family == "poisson":
            Z = rng.poisson(np.exp(eta)).astype(float)
        else:
            Z = eta + rng.standard_normal(n)
        fit = irls_fit(family, X, Z)
        assert fit.converged
        assert np.abs(score(family, X, Z, fit.beta_hat)).max() < 1e-6


def test_cov_hat_matches_finite_difference_hessian():
    rng = np.random.default_rng(21)
    n = 200
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    eta = X @ np.array([0.5, -0.7])
    Z = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    fit = irls_fit("bernoulli", X, Z)
    assert fit.converged

    # central differences of the log likelihood at beta-hat
    spec = ModelSpec("bernoulli", "nonspatial")
    h = 1e-5
    p = 2
    H = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            for si, sj, w in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                b = fit.beta_hat.copy()
                b[i] += si * h
                b[j] += sj * h
                H[i, j] += w * log_likelihood(spec, Z, X @ b)
            H[i, j] /= 4 * h * h
    cov_fd = np.linalg.inv(-H)
    assert np.abs(cov_fd - fit.cov_hat).max() / np.abs(cov_fd).max() < 1e-4


def test_cov_hat_spd_when_converged():
    rng = np.random.default_rng(33)
    n = 150
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    Z = rng.poisson(np.exp(X @ np.array([1.0, 0.2]))).astype(float)
    fit = irls_fit("poisson", X, Z)
    assert fit.converged
    assert np.all(np.linalg.eigvalsh(fit.cov_hat) > 0)


def test_rejects_rank_deficient_design():
    X = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(ValueError, match="rank"):
        irls_fit("gaussian", X, np.zeros(10))


def test_irls_rejects_offset_of_wrong_shape_or_sign():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    Z = np.array([0.0, 1.0, 2.0, 1.0, 3.0, 4.0])
    for offset in ([2.0], np.ones(5)):
        with pytest.raises(ValueError, match="offset must have length 6"):
            irls_fit("poisson", X, Z, offset=offset)
    # a zero exposure used to give beta_hat = [nan, nan] and converged=False
    with pytest.raises(ValueError, match="positive; entry 3 is 0"):
        irls_fit("poisson", X, Z, offset=[1.0, 2.0, 3.0, 0.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="positive; entry 1 is nan"):
        irls_fit("poisson", X, Z, offset=[1.0, np.nan, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="finite and positive; entry 2 is inf"):
        irls_fit("poisson", X, Z, offset=[1.0, 2.0, np.inf, 4.0, 5.0, 6.0])


def test_offset_gaussian_rejected():
    with pytest.raises(ValueError, match="poisson"):
        irls_fit("gaussian", np.ones((5, 1)), np.zeros(5), offset=np.ones(5))
