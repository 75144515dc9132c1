"""Model specification and exact log-density evaluation.

Every parameterization is one model: eta = X beta + B delta (+ log offset),
with a canonical-link first stage and the CAR prior
tau^{k/2} exp(-tau/2 delta' Q_B delta) on the effects. Two objects carry
the choices the specification makes:

* ``Family``, one per entry of ``FAMILY`` (Bernoulli, Poisson, Gaussian):
  the response check, the inverse link, the Fisher (IRLS) weight, the
  log-likelihood in total and per-site form up to a data-only constant, that
  constant, and the response draw.
* ``EffectBasis``, from ``effect_basis``: the loading B (None for the
  identity of the traditional model, L for rhz, M for sparse), the reduced
  precision Q_B and the tau exponent k = rank(Q), n - p or q. Nonspatial
  models have none.

``linear_predictor``, ``log_likelihood`` and ``log_prior`` evaluate the
exact posterior from these objects, and the samplers, IRLS and the fitted
surface bind the same objects once per chain or call. Parameter-free
normalizing constants are retained where cheap; what matters is that
log-density differences between states are constant-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import DesignMatrix, MoranBasis, RhzBasis
from .graph import PrecisionMatrix

__all__ = [
    "FAMILY",
    "FAMILIES",
    "PARAMETERIZATIONS",
    "Family",
    "EffectBasis",
    "PriorSet",
    "ModelSpec",
    "ParameterState",
    "Dataset",
    "effect_basis",
    "check_offset",
    "inverse_link",
    "linear_predictor",
    "log_likelihood",
    "log_prior",
    "car_exponent_dimension",
    "car_precision",
]

_LOG_2PI = np.log(2.0 * np.pi)


def _check_binary(Z):
    bad = ~np.isin(Z, (0, 1))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"bernoulli responses must be 0/1; entry {i} is {Z[i]}")


def _check_counts(Z):
    bad = (Z < 0) | (Z != np.floor(Z))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"poisson responses must be nonnegative integers; entry {i} is {Z[i]}")


def _check_finite(Z):
    bad = ~np.isfinite(Z)
    if np.any(bad):
        raise ValueError(f"gaussian responses must be finite; entry {int(np.argmax(bad))} is not")


def _expit(eta):
    """1 / (1 + e^-eta), stable for large |eta|."""
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus_terms(eta):
    """max(eta, 0) and log1p(e^-|eta|), whose sum is log(1 + e^eta).

    Stable, and cheaper than np.logaddexp(0, eta). The total log-likelihood
    sums each term on its own: the chain's acceptance probabilities steer
    the step-size adaptation, so the order of the sums fixes the seeded
    draws.
    """
    return np.maximum(eta, 0.0), np.log1p(np.exp(-np.abs(eta)))


def _bernoulli_loglik(Z, eta, sigma2=None):
    pos, tail = _softplus_terms(eta)
    return float(Z @ eta - pos.sum() - tail.sum())


def _bernoulli_sites(Z, eta, sigma2=None):
    pos, tail = _softplus_terms(eta)
    return Z * eta - pos - tail


def _poisson_loglik(Z, eta, sigma2=None):
    # exp may overflow to inf for extreme eta; -inf is the right answer
    with np.errstate(over="ignore"):
        return float(Z @ eta - np.exp(eta).sum())


def _poisson_constant(Z):
    # imported here: a Poisson chain never needs the constant
    from scipy.special import gammaln

    return -float(gammaln(Z + 1.0).sum())


def _gaussian_loglik(Z, eta, sigma2):
    resid = Z - eta
    return float(-0.5 * Z.shape[0] * np.log(sigma2) - 0.5 * (resid @ resid) / sigma2)


def _gaussian_sites(Z, eta, sigma2):
    return -0.5 * np.log(sigma2) - 0.5 * (Z - eta) ** 2 / sigma2


def _gaussian_draw(rng, mu, sigma2):
    if sigma2 is None or sigma2 <= 0:
        raise ValueError("gaussian simulation requires sigma2 > 0")
    return mu + np.sqrt(sigma2) * rng.standard_normal(mu.shape[0])


@dataclass(frozen=True)
class Family:
    """A first-stage family. Its link is always the canonical one (logit,
    log, identity), so nothing names or chooses it.

    ``check(Z)`` raises ValueError naming the first invalid response, and
    ``mean(eta)`` is the inverse link. ``loglik(Z, eta, sigma2)`` is the log
    density of Z summed over sites, up to the data-only ``constant(Z)``;
    ``site_loglik`` returns its per-site terms. Only a family with
    ``has_sigma2`` (Gaussian: identity link, noise variance sigma2,
    all-Gibbs chain) reads sigma2. ``weight(mu)`` is the Fisher information
    per site on the linear scale, the IRLS weight. ``draw(rng, mu, sigma2)``
    draws responses with mean mu. ``allows_offset`` says whether the family
    takes an exposure offset.
    """

    name: str
    check: Callable
    mean: Callable
    weight: Callable
    loglik: Callable
    site_loglik: Callable
    constant: Callable
    draw: Callable
    has_sigma2: bool = False
    allows_offset: bool = False


FAMILY = {
    fam.name: fam
    for fam in (
        Family(
            name="bernoulli",
            check=_check_binary,
            mean=_expit,
            weight=lambda mu: mu * (1.0 - mu),
            loglik=_bernoulli_loglik,
            site_loglik=_bernoulli_sites,
            constant=lambda Z: 0.0,
            draw=lambda rng, mu, sigma2: rng.binomial(1, mu).astype(float),
        ),
        Family(
            name="poisson",
            check=_check_counts,
            mean=np.exp,
            weight=lambda mu: mu,
            loglik=_poisson_loglik,
            site_loglik=lambda Z, eta, sigma2=None: Z * eta - np.exp(eta),
            constant=_poisson_constant,
            draw=lambda rng, mu, sigma2: rng.poisson(mu).astype(float),
            allows_offset=True,
        ),
        Family(
            name="gaussian",
            check=_check_finite,
            mean=lambda eta: np.asarray(eta, dtype=float),
            weight=np.ones_like,
            loglik=_gaussian_loglik,
            site_loglik=_gaussian_sites,
            constant=lambda Z: -0.5 * Z.shape[0] * _LOG_2PI,
            draw=_gaussian_draw,
            has_sigma2=True,
        ),
    )
}
FAMILIES = tuple(FAMILY)

# parameterization -> (type of its basis object, that type with its article)
_BASES = {
    "nonspatial": (type(None), "basis=None"),
    "traditional": (PrecisionMatrix, "a PrecisionMatrix"),
    "rhz": (RhzBasis, "an RhzBasis"),
    "sparse": (MoranBasis, "a MoranBasis"),
}
PARAMETERIZATIONS = tuple(_BASES)


@dataclass(frozen=True)
class PriorSet:
    """Hyperparameters: N(0, beta_variance I) for beta, Gamma(shape, scale)
    for tau, inverse-gamma (shape, rate) for the Gaussian noise variance."""

    beta_variance: float = 100.0
    tau_shape: float = 0.5
    tau_scale: float = 2000.0
    sigma2_shape: float = 0.001
    sigma2_rate: float = 0.001

    def __post_init__(self):
        for name in ("beta_variance", "tau_shape", "tau_scale", "sigma2_shape", "sigma2_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"prior parameter {name} must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Family (canonical link implied), parameterization, q (sparse only),
    priors, and an exposure offset (Poisson only)."""

    family: str
    parameterization: str
    q: int | None = None
    priors: PriorSet = field(default_factory=PriorSet)
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; allowed: {', '.join(FAMILIES)}"
            )
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(
                f"unknown parameterization {self.parameterization!r}; "
                f"allowed: {', '.join(PARAMETERIZATIONS)}"
            )
        if self.parameterization == "sparse":
            if self.q is None or self.q < 1:
                raise ValueError("sparse parameterization requires q >= 1")
        elif self.q is not None:
            raise ValueError("q is only meaningful for the sparse parameterization")
        if self.offset is not None:
            object.__setattr__(self, "offset", check_offset(self.family, self.offset))


def check_offset(family: str, offset, n: int | None = None) -> np.ndarray:
    """``offset`` as a float array; ValueError unless the family takes one,
    every entry is positive and, with n given, its shape is (n,)."""
    if not FAMILY[family].allows_offset:
        raise ValueError("offsets are supported for the poisson family only")
    off = np.asarray(offset, dtype=float)
    if n is not None and off.shape != (n,):
        raise ValueError(f"offset must have length {n}, got shape {off.shape}")
    bad = ~(off > 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"offset entries must be positive; entry {i} is {off.flat[i]}")
    return off


@dataclass(frozen=True)
class EffectBasis:
    """Loading and CAR prior of the effects: eta = X beta + B delta.

    B is None for the identity (traditional), L (rhz) or M (sparse), each
    with orthonormal columns. The prior is tau^{car_rank/2}
    exp(-tau/2 delta' Q_B delta); Q_B is sparse for the traditional model
    and dense otherwise.
    """

    B: np.ndarray | None
    Q_B: object
    car_rank: int

    @property
    def k(self) -> int:
        """Length of the effect vector delta."""
        return self.Q_B.shape[0]


def effect_basis(spec: ModelSpec, basis) -> EffectBasis | None:
    """The EffectBasis of the parameterization, None for nonspatial models.

    ``basis`` is None (nonspatial), a PrecisionMatrix (traditional), an
    RhzBasis (rhz) or a MoranBasis with the model's q columns (sparse). The
    tau exponent is rank(Q), n - p (the columns of L) or q.
    """
    kind, wanted = _BASES[spec.parameterization]
    if not isinstance(basis, kind):
        raise ValueError(
            f"{spec.parameterization} parameterization requires {wanted}, "
            f"got {type(basis).__name__}"
        )
    if basis is None:
        return None
    if spec.parameterization == "traditional":
        return EffectBasis(None, basis.Q, basis.rank)
    if spec.parameterization == "rhz":
        return EffectBasis(basis.L, basis.Q_R, basis.k)
    if basis.q != spec.q:
        raise ValueError(f"basis has q={basis.q} but the model specifies q={spec.q}")
    return EffectBasis(basis.M, basis.Q_S, basis.q)


@dataclass
class ParameterState:
    """One point in parameter space: beta, random effects, tau, sigma2.

    ``effects`` has length n (traditional), n-p (rhz), q (sparse), or 0
    (nonspatial). ``sigma2`` is meaningful for the Gaussian family only.
    """

    beta: np.ndarray
    effects: np.ndarray
    tau: float = 1.0
    sigma2: float | None = None


@dataclass(frozen=True)
class Dataset:
    """Response vector paired with its design matrix; Z is held contiguous
    (a column of a table is a strided view)."""

    X: DesignMatrix
    Z: np.ndarray

    def __post_init__(self):
        Z = np.ascontiguousarray(self.Z, dtype=float)
        if Z.shape != (self.X.n,):
            raise ValueError(f"response must have length {self.X.n}, got shape {Z.shape}")
        object.__setattr__(self, "Z", Z)


def linear_predictor(
    spec: ModelSpec, X: DesignMatrix, basis, state: ParameterState
) -> np.ndarray:
    """eta = X beta + B theta (+ log offset), with B = I, L, or M."""
    if state.beta.shape != (X.p,):
        raise ValueError(f"beta must have length {X.p}, got {state.beta.shape}")
    eb = effect_basis(spec, basis)
    k = 0 if eb is None else eb.k
    if state.effects.shape != (k,):
        raise ValueError(f"effects must have length {k}, got {state.effects.shape}")
    eta = X.X @ state.beta
    if k:
        eta = eta + (state.effects if eb.B is None else eb.B @ state.effects)
    if spec.offset is not None:
        eta = eta + np.log(check_offset(spec.family, spec.offset, X.n))
    return eta


def inverse_link(family: str, eta: np.ndarray) -> np.ndarray:
    """Mean response g^{-1}(eta) for the family's canonical link."""
    return FAMILY[family].mean(eta)


def log_likelihood(
    spec: ModelSpec, Z: np.ndarray, eta: np.ndarray, sigma2: float | None = None
) -> float:
    """Exact log density of Z given the linear predictor, summed over sites."""
    fam = FAMILY[spec.family]
    Z = np.asarray(Z, dtype=float)
    fam.check(Z)
    if fam.has_sigma2 and (sigma2 is None or sigma2 <= 0):
        raise ValueError("gaussian log-likelihood requires sigma2 > 0")
    return fam.loglik(Z, np.asarray(eta, dtype=float), sigma2) + fam.constant(Z)


def car_exponent_dimension(spec: ModelSpec, X: DesignMatrix, basis) -> int:
    """Exponent dimension k in the CAR prior factor tau^{k/2}; X is not read."""
    eb = effect_basis(spec, basis)
    return 0 if eb is None else eb.car_rank


def car_precision(spec: ModelSpec, basis):
    """The (possibly reduced) precision entering the CAR quadratic form."""
    eb = effect_basis(spec, basis)
    return None if eb is None else eb.Q_B


def log_prior(spec: ModelSpec, X: DesignMatrix, basis, state: ParameterState) -> float:
    """Joint log prior of (beta, effects, tau[, sigma2]).

    Normal on beta, CAR on the effects with the parameterization's tau
    exponent, gamma (shape/scale) on tau, inverse-gamma on sigma2 for the
    Gaussian family. Parameter-free constants are dropped consistently.
    """
    pr = spec.priors
    if state.tau <= 0:
        raise ValueError(f"tau must be positive, got {state.tau}")
    total = -0.5 * float(state.beta @ state.beta) / pr.beta_variance
    total += -0.5 * X.p * np.log(pr.beta_variance)

    eb = effect_basis(spec, basis)
    if eb is not None:
        quad = float(state.effects @ (eb.Q_B @ state.effects))
        total += 0.5 * eb.car_rank * np.log(state.tau) - 0.5 * state.tau * quad
        total += (pr.tau_shape - 1.0) * np.log(state.tau) - state.tau / pr.tau_scale

    if FAMILY[spec.family].has_sigma2:
        if state.sigma2 is None or state.sigma2 <= 0:
            raise ValueError("gaussian models require sigma2 > 0 in the state")
        total += (
            -(pr.sigma2_shape + 1.0) * np.log(state.sigma2)
            - pr.sigma2_rate / state.sigma2
        )
    return float(total)
