"""Estimators the benchmark computes itself, apart from the program.

* ``ess``: effective sample size by Geyer's (1992) initial monotone
  sequence estimator. With autocorrelations rho_k, the pair sums
  G_m = rho_2m + rho_2m+1 are summed while positive, each capped by the one
  before it, and ESS = N / (-1 + 2 sum G_m). For an AR(1) chain with
  coefficient phi this tends to N (1 - phi) / (1 + phi).
* ``summary_recompute``: posterior mean and type-7 equal-tailed bounds of
  every chain column, the quantities the program's summary JSON reports.
* ``rao_blackwell_beta_mean``: for a Gaussian model whose effect loading is
  orthogonal to the design (X'L = 0), beta given sigma2 has mean
  (X'X/s2 + I/v)^-1 X'Z/s2 whatever the effects; its average over the
  sigma2 draws estimates the posterior mean of beta.
* ``glm_fit``: nonspatial GLM by Newton's method, with Wald intervals, as
  the reference the spatial fits are compared against.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Sample autocorrelations rho_0..rho_{N-1} (biased, divisor N), by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    return acov / acov[0]


def ess(x: np.ndarray) -> float:
    """Geyer initial monotone sequence ESS of one chain; 0 for a constant chain."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4 or np.ptp(x) == 0.0:
        return 0.0
    rho = autocorrelation(x)
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.nonzero(pairs <= 0.0)[0]
    m = nonpositive[0] if nonpositive.size else pairs.shape[0]
    pairs = np.minimum.accumulate(pairs[:m])
    tau_int = -1.0 + 2.0 * pairs.sum()
    return float(n / tau_int)


def summary_recompute(draws: np.ndarray, level: float = 0.95):
    """Column means and type-7 equal-tailed bounds of a (draws, params) array."""
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [alpha, 1.0 - alpha], axis=0)
    return draws.mean(axis=0), lo, hi


def rao_blackwell_beta_mean(X: np.ndarray, Z: np.ndarray, sigma2_draws: np.ndarray,
                            beta_variance: float = 100.0) -> np.ndarray:
    """Average over sigma2 draws of E[beta | sigma2, Z] when X'L = 0."""
    XtX = X.T @ X
    XtZ = X.T @ Z
    eye = np.eye(X.shape[1]) / beta_variance
    means = [np.linalg.solve(XtX / s2 + eye, XtZ / s2) for s2 in sigma2_draws]
    return np.mean(means, axis=0)


def glm_fit(family: str, X: np.ndarray, Z: np.ndarray, offset=None,
            iterations: int = 50, tol: float = 1e-10):
    """Canonical-link GLM MLE by Newton's method: (beta_hat, standard errors)."""
    log_off = 0.0 if offset is None else np.log(offset)
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        eta = X @ beta + log_off
        if family == "bernoulli":
            mu = 1.0 / (1.0 + np.exp(-eta))
            w = mu * (1.0 - mu)
        else:
            mu = np.exp(eta)
            w = mu
        info = (X.T * w) @ X
        step = np.linalg.solve(info, X.T @ (Z - mu))
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    else:
        raise RuntimeError("reference GLM fit did not converge")
    eta = X @ beta + log_off
    mu = 1.0 / (1.0 + np.exp(-eta)) if family == "bernoulli" else np.exp(eta)
    w = mu * (1.0 - mu) if family == "bernoulli" else mu
    cov = np.linalg.inv((X.T * w) @ X)
    return beta, np.sqrt(np.diag(cov))
