"""Synthetic data generation from the sparse areal model.

Datasets are drawn in two stages: random effects from the zero-mean
Gaussian with precision tau * Q_S, then independent responses through the
inverse canonical link. Three named presets mirror the simulation designs
used throughout: binary and count data on the 30x30 lattice with q = 400
Moran eigenvectors (tau = 1 and tau = 3 respectively), and Gaussian data on
the 20x20 lattice with q = 180, tau = 1, sigma2 = 1. All presets use
X = [x y] (no intercept) and beta = (1, 1)'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import DesignMatrix, MoranBasis, moran_basis
from .graph import Graph, build_lattice
from .model import FAMILY

__all__ = [
    "SimulatedData",
    "PRESETS",
    "simulate_random_effects",
    "simulate_response",
    "lattice_design",
    "simulate_dataset",
]

#: name -> (rows, cols, q, tau, sigma2, family)
PRESETS = {
    "binary": (30, 30, 400, 1.0, None, "bernoulli"),
    "count": (30, 30, 400, 3.0, None, "poisson"),
    "gaussian": (20, 20, 180, 1.0, 1.0, "gaussian"),
}


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate_random_effects(Q_S: np.ndarray, tau: float, seed) -> np.ndarray:
    """One draw from N(0, (tau Q_S)^{-1}) via Cholesky and a triangular solve."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Q_S = np.asarray(Q_S, dtype=float)
    try:
        chol = scipy.linalg.cholesky(tau * Q_S, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("Q_S must be positive definite") from exc
    z = _rng(seed).standard_normal(Q_S.shape[0])
    # C = L L'  =>  L'^{-1} z ~ N(0, C^{-1})
    return scipy.linalg.solve_triangular(chol, z, lower=True, trans="T")


def simulate_response(family: str, eta: np.ndarray, sigma2: float | None, seed) -> np.ndarray:
    """Independent responses given the linear predictor, via the inverse link."""
    fam = FAMILY[family]
    return fam.draw(_rng(seed), fam.mean(np.asarray(eta, dtype=float)), sigma2)


def lattice_design(g: Graph) -> DesignMatrix:
    """The [x y] design (no intercept) from a graph's vertex coordinates."""
    if g.coords is None:
        raise ValueError("graph carries no coordinates")
    return DesignMatrix(g.coords.copy(), names=("x", "y"))


@dataclass(frozen=True)
class SimulatedData:
    """A dataset together with everything needed to score a fit against it."""

    graph: Graph
    X: DesignMatrix
    basis: MoranBasis
    family: str
    beta: np.ndarray
    delta: np.ndarray
    eta: np.ndarray
    surface: np.ndarray  # true p, lambda, or mu
    Z: np.ndarray
    tau: float
    sigma2: float | None


def simulate_dataset(
    preset: str | None = None,
    seed=0,
    *,
    rows: int | None = None,
    cols: int | None = None,
    q: int | None = None,
    tau: float | None = None,
    sigma2: float | None = None,
    family: str | None = None,
    basis: MoranBasis | None = None,
) -> SimulatedData:
    """Draw a dataset from the sparse model, by preset or explicit settings.

    Keyword settings override the preset's. Passing a precomputed ``basis``
    skips the Moran eigendecomposition (useful for replication loops).
    """
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; allowed: {', '.join(PRESETS)}")
        p_rows, p_cols, p_q, p_tau, p_sigma2, p_family = PRESETS[preset]
        rows = rows if rows is not None else p_rows
        cols = cols if cols is not None else p_cols
        q = q if q is not None else p_q
        tau = tau if tau is not None else p_tau
        sigma2 = sigma2 if sigma2 is not None else p_sigma2
        family = family if family is not None else p_family
    if None in (rows, cols, q, tau, family):
        raise ValueError("need rows, cols, q, tau, and family (or a preset)")

    g = build_lattice(rows, cols)
    X = lattice_design(g)
    if basis is None:
        basis = moran_basis(X, g, q=q)
    elif basis.q != q:
        raise ValueError(f"supplied basis has q={basis.q}, expected {q}")
    beta = np.ones(X.p)

    rng = _rng(seed)
    delta = simulate_random_effects(basis.Q_S, tau, rng)
    eta = X.X @ beta + basis.M @ delta
    surface = FAMILY[family].mean(eta)
    Z = simulate_response(family, eta, sigma2, rng)
    return SimulatedData(
        graph=g,
        X=X,
        basis=basis,
        family=family,
        beta=beta,
        delta=delta,
        eta=eta,
        surface=surface,
        Z=Z,
        tau=float(tau),
        sigma2=sigma2,
    )
