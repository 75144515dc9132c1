"""Model specification and exact log-density evaluation.

Declares the first-stage family (Bernoulli, Poisson, Gaussian, each with its
canonical link), the random-effect parameterization (nonspatial,
traditional, rhz, sparse), the prior set, and an optional multiplicative
exposure offset for Poisson counts. The samplers evaluate posteriors
exclusively through ``linear_predictor``, ``log_likelihood``, and
``log_prior``.

Parameter-free normalizing constants are retained where cheap; what matters
is that log-density differences between states are constant-free, and the
tau exponent of the CAR prior is rank(Q)/2, (n-p)/2, or q/2 depending on
the parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import DesignMatrix, MoranBasis, RhzBasis
from .graph import PrecisionMatrix

__all__ = [
    "FAMILIES",
    "PARAMETERIZATIONS",
    "CANONICAL_LINKS",
    "PriorSet",
    "ModelSpec",
    "ParameterState",
    "Dataset",
    "inverse_link",
    "linear_predictor",
    "log_likelihood",
    "log_prior",
    "effect_dimension",
    "car_exponent_dimension",
    "car_precision",
]

FAMILIES = ("bernoulli", "poisson", "gaussian")
PARAMETERIZATIONS = ("nonspatial", "traditional", "rhz", "sparse")
CANONICAL_LINKS = {"bernoulli": "logit", "poisson": "log", "gaussian": "identity"}

_LOG_2PI = np.log(2.0 * np.pi)


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
    family: str
    parameterization: str
    q: int | None = None
    priors: PriorSet = field(default_factory=PriorSet)
    offset: np.ndarray | None = None
    link: str = ""

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
        canonical = CANONICAL_LINKS[self.family]
        if self.link == "":
            object.__setattr__(self, "link", canonical)
        elif self.link != canonical:
            raise ValueError(
                f"link {self.link!r} is not the canonical link "
                f"({canonical!r}) of family {self.family!r}"
            )
        if self.parameterization == "sparse":
            if self.q is None or self.q < 1:
                raise ValueError("sparse parameterization requires q >= 1")
        elif self.q is not None:
            raise ValueError("q is only meaningful for the sparse parameterization")
        if self.offset is not None:
            if self.family != "poisson":
                raise ValueError("offsets are supported for the poisson family only")
            off = np.asarray(self.offset, dtype=float)
            if np.any(off <= 0):
                bad = int(np.argmax(off <= 0))
                raise ValueError(f"offset entries must be positive; entry {bad} is {off[bad]}")
            object.__setattr__(self, "offset", off)


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

    def copy(self) -> "ParameterState":
        return ParameterState(
            beta=self.beta.copy(),
            effects=self.effects.copy(),
            tau=self.tau,
            sigma2=self.sigma2,
        )


@dataclass(frozen=True)
class Dataset:
    """Response vector paired with its design matrix."""

    X: DesignMatrix
    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.shape != (self.X.n,):
            raise ValueError(f"response must have length {self.X.n}, got shape {Z.shape}")
        object.__setattr__(self, "Z", Z)


def effect_dimension(spec: ModelSpec, X: DesignMatrix, basis) -> int:
    """Length of the random-effect vector under the given parameterization."""
    if spec.parameterization == "nonspatial":
        return 0
    if spec.parameterization == "traditional":
        return X.n
    if spec.parameterization == "rhz":
        return X.n - X.p
    return spec.q


def _effect_loading(spec: ModelSpec, basis) -> np.ndarray | None:
    """Matrix B with eta = X beta + B theta; None means B = I (traditional)."""
    if spec.parameterization in ("nonspatial", "traditional"):
        return None
    if spec.parameterization == "rhz":
        if not isinstance(basis, RhzBasis):
            raise ValueError("rhz parameterization requires an RhzBasis")
        return basis.L
    if not isinstance(basis, MoranBasis):
        raise ValueError("sparse parameterization requires a MoranBasis")
    if basis.q != spec.q:
        raise ValueError(f"basis has q={basis.q} but the model specifies q={spec.q}")
    return basis.M


def linear_predictor(
    spec: ModelSpec, X: DesignMatrix, basis, state: ParameterState
) -> np.ndarray:
    """eta = X beta + B theta (+ log offset), with B = I, L, or M."""
    if state.beta.shape != (X.p,):
        raise ValueError(f"beta must have length {X.p}, got {state.beta.shape}")
    k = effect_dimension(spec, X, basis)
    if state.effects.shape != (k,):
        raise ValueError(f"effects must have length {k}, got {state.effects.shape}")
    eta = X.X @ state.beta
    if k:
        B = _effect_loading(spec, basis)
        eta = eta + (state.effects if B is None else B @ state.effects)
    if spec.offset is not None:
        eta = eta + np.log(spec.offset)
    return eta


def validate_response(family: str, Z: np.ndarray) -> None:
    Z = np.asarray(Z)
    if family == "bernoulli":
        bad = ~np.isin(Z, (0, 1))
        if np.any(bad):
            raise ValueError(
                f"bernoulli responses must be 0/1; entry {int(np.argmax(bad))} is {Z[np.argmax(bad)]}"
            )
    elif family == "poisson":
        bad = (Z < 0) | (Z != np.floor(Z))
        if np.any(bad):
            raise ValueError(
                f"poisson responses must be nonnegative integers; "
                f"entry {int(np.argmax(bad))} is {Z[np.argmax(bad)]}"
            )
    else:
        if not np.all(np.isfinite(Z)):
            raise ValueError(
                f"gaussian responses must be finite; entry {int(np.argmax(~np.isfinite(Z)))} is not"
            )


def inverse_link(family: str, eta: np.ndarray) -> np.ndarray:
    """Mean response g^{-1}(eta) for the family's canonical link."""
    if family == "bernoulli":
        # expit, stable for large |eta|
        out = np.empty_like(eta, dtype=float)
        pos = eta >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        ex = np.exp(eta[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    if family == "poisson":
        return np.exp(eta)
    return np.asarray(eta, dtype=float)


def log_likelihood(
    spec: ModelSpec, Z: np.ndarray, eta: np.ndarray, sigma2: float | None = None
) -> float:
    """Exact log density of Z given the linear predictor, summed over sites."""
    Z = np.asarray(Z, dtype=float)
    validate_response(spec.family, Z)
    if spec.family == "bernoulli":
        # z*eta - log(1 + e^eta), evaluated without overflow
        return float(np.sum(Z * eta - np.logaddexp(0.0, eta)))
    if spec.family == "poisson":
        from scipy.special import gammaln

        # exp may overflow to inf for extreme eta; -inf is the right answer
        with np.errstate(over="ignore"):
            return float(np.sum(Z * eta - np.exp(eta) - gammaln(Z + 1.0)))
    if sigma2 is None or sigma2 <= 0:
        raise ValueError("gaussian log-likelihood requires sigma2 > 0")
    resid = Z - eta
    n = Z.shape[0]
    return float(-0.5 * n * (_LOG_2PI + np.log(sigma2)) - 0.5 * (resid @ resid) / sigma2)


def car_exponent_dimension(spec: ModelSpec, X: DesignMatrix, basis) -> int:
    """Exponent dimension k in the CAR prior factor tau^{k/2}."""
    if spec.parameterization == "nonspatial":
        return 0
    if spec.parameterization == "traditional":
        if not isinstance(basis, PrecisionMatrix):
            raise ValueError("traditional parameterization requires a PrecisionMatrix")
        return basis.rank
    if spec.parameterization == "rhz":
        return X.n - X.p
    return spec.q


def validate_basis(spec: ModelSpec, basis) -> None:
    """Check that the supplied basis object matches the parameterization."""
    expected = {
        "traditional": PrecisionMatrix,
        "rhz": RhzBasis,
        "sparse": MoranBasis,
    }.get(spec.parameterization)
    if expected is None:
        if basis is not None:
            raise ValueError("nonspatial models take basis=None")
        return
    if not isinstance(basis, expected):
        article = "an" if expected.__name__[0] in "AEIOUR" else "a"
        raise ValueError(
            f"{spec.parameterization} parameterization requires "
            f"{article} {expected.__name__}, got {type(basis).__name__}"
        )


def car_precision(spec: ModelSpec, basis):
    """The (possibly reduced) precision entering the CAR quadratic form."""
    validate_basis(spec, basis)
    if spec.parameterization == "traditional":
        return basis.Q
    if spec.parameterization == "rhz":
        return basis.Q_R
    if spec.parameterization == "sparse":
        return basis.Q_S
    return None


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

    k = car_exponent_dimension(spec, X, basis)
    if k:
        Q_B = car_precision(spec, basis)
        quad = float(state.effects @ (Q_B @ state.effects))
        total += 0.5 * k * np.log(state.tau) - 0.5 * state.tau * quad

    if spec.parameterization != "nonspatial":
        total += (pr.tau_shape - 1.0) * np.log(state.tau) - state.tau / pr.tau_scale

    if spec.family == "gaussian":
        if state.sigma2 is None or state.sigma2 <= 0:
            raise ValueError("gaussian models require sigma2 > 0 in the state")
        total += (
            -(pr.sigma2_shape + 1.0) * np.log(state.sigma2)
            - pr.sigma2_rate / state.sigma2
        )
    return float(total)
