"""Classical GLM fitting by iteratively reweighted least squares.

Provides the nonspatial baseline and the estimated asymptotic covariance
used as the random-walk proposal covariance for the regression block of the
MCMC samplers. Canonical links only, so IRLS coincides with Newton's method
and the likelihood is concave; the zero start point is uncritical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DesignMatrix
from .model import FAMILY, check_offset

__all__ = ["GlmFit", "irls_fit"]

_MAX_ITER = 100
_TOL = 1e-8


@dataclass(frozen=True)
class GlmFit:
    """IRLS result: coefficient estimate, asymptotic covariance, diagnostics.

    ``cov_hat`` is the inverse Fisher information at beta_hat (scaled by the
    dispersion estimate for the Gaussian family).
    """

    beta_hat: np.ndarray
    cov_hat: np.ndarray
    sigma2_hat: float | None
    iterations: int
    converged: bool


def _eta(X: np.ndarray, beta: np.ndarray, log_offset: np.ndarray | None) -> np.ndarray:
    eta = X @ beta
    if log_offset is not None:
        eta = eta + log_offset
    return eta


# a diverging iterate overflows on its way to a non-finite beta, where the
# loop stops and the fit reports it (not converged, non-finite estimates)
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def irls_fit(family: str, X: DesignMatrix, Z, offset=None) -> GlmFit:
    """Maximize the GLM likelihood by Fisher scoring.

    Convergence is max|delta beta| < 1e-8 within 100 iterations. A
    non-converged fit (e.g., complete separation for Bernoulli data) is
    returned with ``converged=False`` rather than raised; a singular
    weighted system is an error. ``offset`` (Poisson only) holds n positive
    exposures.
    """
    Xa = X.X
    fam = FAMILY[family]
    Z = np.asarray(Z, dtype=float)
    fam.check(Z)
    n, p = Xa.shape
    log_off = None if offset is None else np.log(check_offset(family, offset, n))

    beta = np.zeros(p)
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        eta = _eta(Xa, beta, log_off)
        mu = fam.mean(eta)
        # floor keeps the weighted system formally nonsingular under
        # separation so divergence surfaces as non-convergence instead
        w = np.maximum(fam.weight(mu), 1e-10)
        # working response on the linear scale, offset removed; under the
        # Gaussian family's identity link it is Z itself
        if fam.has_sigma2:
            z_work = Z
        else:
            z_work = (eta - (log_off if log_off is not None else 0.0)) + (Z - mu) / w
            z_work = np.where(w > 0, z_work, 0.0)
        XtW = Xa.T * w
        info = XtW @ Xa
        try:
            beta_new = np.linalg.solve(info, XtW @ z_work)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular weighted system at IRLS iteration {iterations}"
            ) from exc
        step = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if not np.all(np.isfinite(beta)):
            break
        if step < _TOL:
            converged = True
            break

    eta = _eta(Xa, beta, log_off)
    sigma2_hat = None
    if fam.has_sigma2:
        resid = Z - eta
        sigma2_hat = float(resid @ resid) / (n - p)
    info = (Xa.T * fam.weight(fam.mean(eta))) @ Xa
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.full((p, p), np.nan)
        converged = False
    if sigma2_hat is not None:
        cov = cov * sigma2_hat
    return GlmFit(
        beta_hat=beta,
        cov_hat=(cov + cov.T) / 2.0,
        sigma2_hat=sigma2_hat,
        iterations=iterations,
        converged=converged,
    )
