"""MCMC engines for all four parameterizations and three families.

Kernel schedule, following the update order beta, effects, tau, sigma2:

* Bernoulli / Poisson: multivariate random-walk Metropolis for beta with
  proposal covariance s^2 * V-hat (V-hat from the classical GLM fit);
  random effects by a single-block tau-preconditioned normal random walk
  (rhz, sparse) or a univariate normal random-walk sweep over sites
  (traditional); Gibbs for tau.
* Gaussian: Gibbs updates for every parameter.

Both random-walk blocks go through one kernel, ``rw_metropolis``. It takes
the block's log target ratio from the driver, together with what the ratio
computed for the proposal (eta, log-likelihood, CAR quadratic form), so the
kernel the tests check is the code that draws, and no ratio is recomputed.

The driver reads the model from two objects of ``model`` and never from the
names in the spec: the ``EffectBasis`` (loading B, reduced precision Q_B,
tau exponent) and the ``Family`` (log-likelihood and its per-site terms,
inverse link, IRLS weight), whose functions it binds once per chain.

Every loading B has orthonormal columns (B = I for the traditional model).
Except in the site sweep, the CAR precision is diagonalized once per chain,
Q_B = V diag(lam) V', and the chain runs in the coordinates y = V' delta
with loading B V; retained draws are rotated back. There the Gaussian
effects conditional is diagonal for every tau and sigma2. With the data
terms X'Z, X'(B V), (B V)'Z and the eigendecomposition of X'X computed once
per chain (O(npk)), a Gaussian Gibbs sweep draws every block exactly in
O(np + pk) and factorizes nothing. Random-walk
proposals are scaled by the approximate conditional standard deviation
given tau: s / sqrt(c + tau lam_j) per coordinate, and s / sqrt(c + tau d_i)
for site i of degree d_i, with c the mean IRLS weight at the start (0 for
prior-only runs). Given tau the proposals are symmetric, so the Metropolis
ratio is unchanged, and they stay tuned as tau moves over orders of
magnitude after burn-in.

The scalar steps s adapt by Robbins-Monro scaling toward acceptance 0.234
(multivariate blocks) or 0.44 (univariate sweeps) during burn-in, then
freeze, so post-burn-in kernels satisfy detailed balance. These targets and
the initial steps are fixed: ``_BLOCKS`` holds both, one row per block.

Randomness comes from a PCG64 generator seeded through
``numpy.random.SeedSequence``; multiple chains split the stream by spawning
child sequences, so a (seed, config) pair reproduces draws bit for bit.

The univariate site sweep visits every vertex once per iteration, grouped
into mutually non-adjacent color classes so each class updates as one
vectorized step. Sites in a class share no edge and the likelihood is
conditionally independent across sites given eta, so the grouped sweep
draws from exactly the same kernel as a site-by-site loop. Prior work per
sweep is proportional to the edge count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .glm import GlmFit, irls_fit
from .graph import Graph
from .model import (
    FAMILY,
    Dataset,
    ModelSpec,
    ParameterState,
    effect_basis,
    linear_predictor,
    log_likelihood,
    log_prior,
)

__all__ = [
    "McmcConfig",
    "Chain",
    "fit",
    "fit_chains",
    "conditional_scale",
    "rw_metropolis",
    "update_w_univariate",
    "gibbs_tau",
    "gibbs_gaussian",
    "color_classes",
]

_STEP_FLOOR = 1e-8
_STEP_CAP = 1e8
# the adapted blocks: initial step and target acceptance of each. The 'beta'
# step multiplies the Cholesky factor of the IRLS covariance; the 'effects'
# and 'site' steps multiply the conditional scale (c + tau lam)^{-1/2}, so
# they are in conditional standard deviations, and 0.3 and 2.4 follow the
# 2.38/sqrt(dim) random-walk rule for a 50-dimensional block and one site.
# Multivariate blocks target 0.234, univariate sweeps 0.44.
_BLOCKS = {"beta": (1.0, 0.234), "effects": (0.3, 0.234), "site": (2.4, 0.44)}


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, thinning and seed; ``_BLOCKS`` fixes the adaptation."""

    iterations: int = 100_000
    burn_in: int = 10_000
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass
class Chain:
    """Thinned post-burn-in MCMC output.

    ``values`` is the chain's one record of its draws: an (n_draws,
    len(names)) array, row t the t-th retained draw, column j the parameter
    ``names[j]`` (``beta.<name>``..., ``effect.<i>``..., ``tau``, ``sigma2``
    where applicable, the CSV order). ``fit`` fills it a row at a time and
    hands each row to its stream. ``matrix()`` returns it, and ``draws`` and
    ``column()`` are views into it; nothing is copied.
    """

    values: np.ndarray
    names: tuple
    acceptance_rates: dict
    wall_time: float
    seed: int
    spec: ModelSpec
    config: McmcConfig
    step_sizes: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def draws(self) -> dict:
        """Views of ``values`` by block: 'beta' (d, p), 'effects' (d, k),
        'tau' (d,) and 'sigma2' (d,), the last three where present."""
        p = sum(name.startswith("beta.") for name in self.names)
        k = sum(name.startswith("effect.") for name in self.names)
        out = {"beta": self.values[:, :p]}
        if k:
            out["effects"] = self.values[:, p : p + k]
        out.update({name: self.column(name) for name in ("tau", "sigma2") if name in self.names})
        return out

    def matrix(self) -> np.ndarray:
        """``values``, the (n_draws, n_params) array in ``names`` order."""
        return self.values

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


def color_classes(g: Graph) -> list:
    """Greedy coloring: classes of mutually non-adjacent vertex indices."""
    return _greedy_classes(g.adjacency())


def _greedy_classes(adjacency) -> list:
    """Greedy coloring of the graph with this CSR adjacency, in vertex order.

    Vertex v takes the smallest color none of its earlier-colored neighbors
    has, so the classes depend only on each vertex's set of neighbors.
    Diagonal entries, stored zeros included, are ignored.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    color = np.full(adjacency.shape[0], -1, dtype=np.int64)
    for v in range(color.shape[0]):
        used = set(color[indices[indptr[v] : indptr[v + 1]]].tolist())
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [np.nonzero(color == c)[0] for c in range(int(color.max()) + 1)]


# ---------------------------------------------------------------------------
# Update kernels. Pure given the generator; their log-target callables let
# them run against any posterior, and the chain driver draws every block
# through them.
# ---------------------------------------------------------------------------


def conditional_scale(c, tau, lam):
    """Proposal scale (c + tau * lam)^{-1/2}, elementwise.

    ``lam`` holds the CAR precision per unit tau of each coordinate
    (eigenvalues of the reduced precision, or site degrees) and ``c`` the
    likelihood curvature. Where c + tau * lam is 0 the conditional is flat
    (a prior-only run on an isolated vertex or a null direction of a
    singular reduced precision) and the scale is 1.
    """
    h = c + tau * np.asarray(lam, dtype=float)
    return 1.0 / np.sqrt(np.where(h > 0.0, h, 1.0))


def _accept(rng, log_alpha):
    """Metropolis acceptance probability min(1, e^log_alpha) and the coin flip."""
    alpha = 1.0 if log_alpha >= 0 else math.exp(log_alpha)
    return alpha, rng.random() < alpha


def _step_from_log(log_step):
    """Adapted step exp(log_step), clamped to [_STEP_FLOOR, _STEP_CAP]."""
    return min(max(math.exp(log_step), _STEP_FLOOR), _STEP_CAP)


def _rw_proposal(rng, x, step, scale):
    """x + step * scale z with z standard normal.

    ``scale`` None means spherical, a vector scales each coordinate (such as
    ``conditional_scale``), and a matrix (a Cholesky factor of the proposal
    covariance) multiplies z.
    """
    z = rng.standard_normal(x.shape[0])
    if scale is None:
        return x + step * z
    return x + step * (scale @ z if scale.ndim == 2 else scale * z)


def rw_metropolis(rng, x, log_ratio, step, scale=None):
    """One normal random-walk Metropolis step from x.

    Proposes x' = x + step * scale z (``scale`` as in ``_rw_proposal``) and
    calls ``log_ratio(x')``, which returns (log pi(x') - log pi(x), kept):
    the log target ratio and what the caller computed on the way to it,
    such as the proposal's eta and log-likelihood. The proposal is
    symmetric, so the ratio is the Metropolis log acceptance ratio. Returns
    (x', kept, alpha, True) on acceptance and (x, None, alpha, False)
    otherwise, alpha being the acceptance probability.
    """
    prop = _rw_proposal(rng, x, step, scale)
    log_alpha, kept = log_ratio(prop)
    alpha, accepted = _accept(rng, log_alpha)
    return (prop, kept, alpha, True) if accepted else (x, None, alpha, False)


def car_local_log_ratio(tau, degrees, neighbor_sums, w_old, w_new):
    """CAR prior log ratio for changing single sites from w_old to w_new.

    Equals -tau/2 * [d_i (w'^2 - w^2) - 2 (w' - w) S_i] with S_i the sum of
    neighboring effects; matches the full quadratic-form difference because
    only site i changes. A degree-0 site has a flat conditional.
    """
    return -0.5 * tau * (
        degrees * (w_new**2 - w_old**2) - 2.0 * (w_new - w_old) * neighbor_sums
    )


def update_w_univariate(
    rng, W, eta, step, *, tau, adjacency, degrees, classes, site_loglik, scale=None
):
    """One sweep of univariate normal random-walk updates over all sites.

    Each site's Metropolis ratio uses only its own likelihood term plus the
    CAR prior's local conditional. ``site_loglik(idx, eta_i)`` returns the
    per-site log-likelihood contributions; W and eta are modified in place.
    Site i proposes with standard deviation step * scale[i]; ``scale`` None
    means 1 for every site. Returns the mean acceptance probability over
    the sweep.
    """
    alpha_sum = 0.0
    n = W.shape[0]
    for idx in classes:
        neighbor_sum = adjacency @ W
        w_old = W[idx]
        w_new = _rw_proposal(rng, w_old, step, None if scale is None else scale[idx])
        log_alpha = car_local_log_ratio(tau, degrees[idx], neighbor_sum[idx], w_old, w_new)
        eta_old = eta[idx]
        eta_new = eta_old + (w_new - w_old)
        log_alpha = log_alpha + site_loglik(idx, eta_new) - site_loglik(idx, eta_old)
        alpha_sum += float(np.sum(np.exp(np.minimum(log_alpha, 0.0))))
        accept = np.log(rng.random(idx.shape[0])) < log_alpha
        sel = idx[accept]
        W[sel] = w_new[accept]
        eta[sel] = eta_new[accept]
    return alpha_sum / n


def gibbs_tau(rng, priors, k, quad):
    """Conjugate draw tau ~ Gamma(tau_shape + k/2, rate 1/tau_scale + quad/2).

    With k = 0 the conditional is the Gamma(shape, scale) prior itself.
    """
    shape = priors.tau_shape + 0.5 * k
    rate = 1.0 / priors.tau_scale + 0.5 * quad
    return float(rng.gamma(shape, 1.0 / rate))


def _effect_spectrum(Q_B, B, BtB=None):
    """(lam, V, B V) with Q_B V = BtB V diag(lam) and V' BtB V = I.

    BtB None means B'B = I, as every basis has; B None is the identity.
    Eigenvalues up to 1e-10 * max(lam) are rounding noise on null directions
    of a singular Q_B, and are set to 0 so no proposal scale blows up.
    """
    Q = Q_B.toarray() if sp.issparse(Q_B) else np.asarray(Q_B, dtype=float)
    lam, V = np.linalg.eigh(Q) if BtB is None else scipy.linalg.eigh(Q, BtB)
    lam[lam <= 1e-10 * lam.max()] = 0.0
    return lam, V, (V if B is None else B @ V)


def _gaussian_cache(Xa, Z, spectrum=None):
    """(spectrum, e, U, X'Z, C, (B V)'Z): what every Gaussian sweep reuses.

    ``spectrum`` is (lam, V, B V) from ``_effect_spectrum``, None when there
    are no effects (k = 0). X'X = U diag(e) U' and C = X'(B V); none of them
    changes during a chain. Only negative rounding of e is clamped: X has
    full column rank, so a tiny eigenvalue of X'X is data, not noise.
    """
    BV = np.zeros((Xa.shape[0], 0)) if spectrum is None else spectrum[2]
    e, U = np.linalg.eigh(Xa.T @ Xa)
    return spectrum, np.maximum(e, 0.0), U, Xa.T @ Z, Xa.T @ BV, BV.T @ Z


def gibbs_gaussian(
    rng,
    state,
    *,
    X,
    B=None,
    BtB=None,
    Q_B_dense=None,
    Q_B=None,
    car_k,
    Z,
    priors,
    prior_only=False,
    fixed_tau=None,
    fixed_sigma2=None,
    cache=None,
):
    """Full-conditional Gibbs sweep for the Gaussian family.

    Updates beta, effects, tau, sigma2 in order; ``car_k`` is the tau
    exponent dimension and ``prior_only`` drops the data terms from every
    conditional. With Q_B V = B'B V diag(lam) and V' B'B V = I, the effects
    y = V^{-1} delta are independent given the rest, with precision
    h = 1/sigma2 + tau lam and mean g / (sigma2 h), g = (B V)'(Z - X beta),
    and delta' Q_B delta = lam . y^2. With X'X = U diag(e) U', beta's
    precision is U diag(e/sigma2 + 1/v) U'. So every block is drawn exactly.

    ``cache`` is ``_gaussian_cache(X.X, Z, spectrum)`` with the spectrum
    (lam, V, B V) of ``_effect_spectrum``; ``fit`` computes it once per chain
    and ``state.effects`` then holds y. beta's right-hand side is
    (X'Z - C y)/sigma2 and g = (B V)'Z - C' beta, so a sweep costs
    O(np + pk). Without a cache the kernel solves eigh(Q_B_dense, BtB) and
    builds the cache itself, ``B`` None meaning the identity loading, and
    ``state.effects`` holds delta. ``Q_B`` is not used.
    """
    k = state.effects.shape[0]
    rotate = cache is None and k > 0
    if cache is None:
        spectrum = _effect_spectrum(Q_B_dense, B, BtB) if k else None
        if rotate:
            state.effects = spectrum[1].T @ (BtB @ state.effects)  # V^{-1} = V' B'B
        cache = _gaussian_cache(X.X, Z, spectrum)
    spectrum, e, U, XtZ, C, BtZ = cache
    Xa = X.X
    n, p = Xa.shape
    pr = priors

    # beta | rest
    if prior_only:
        state.beta = np.sqrt(pr.beta_variance) * rng.standard_normal(p)
    else:
        d = e / state.sigma2 + 1.0 / pr.beta_variance
        rhs = (XtZ - C @ state.effects) / state.sigma2
        state.beta = U @ ((U.T @ rhs) / d + rng.standard_normal(p) / np.sqrt(d))

    # effects | rest
    if k:
        lam = spectrum[0]
        h = state.tau * lam
        mean = 0.0
        if not prior_only:
            g = BtZ - C.T @ state.beta
            h = h + 1.0 / state.sigma2
            mean = g / (state.sigma2 * h)
        if not h.min() > 0.0:
            raise RuntimeError(
                f"conditional precision is not positive definite "
                f"(smallest eigenvalue {h.min():.3e})"
            )
        state.effects = mean + rng.standard_normal(k) / np.sqrt(h)

    # tau | rest
    if car_k and fixed_tau is None:
        state.tau = gibbs_tau(rng, pr, car_k, float(lam @ state.effects**2))

    # sigma2 | rest
    if fixed_sigma2 is None:
        if prior_only:
            # gamma draws with shape << 1 underflow to 0; floor before inverting
            draw = max(rng.gamma(pr.sigma2_shape, 1.0 / pr.sigma2_rate), np.finfo(float).tiny)
            state.sigma2 = float(1.0 / draw)
        else:
            # (B V)'(B V) = I, so |resid - B V y|^2 splits into the part of
            # resid outside the span of B V and |g - y|^2, with no O(nk) product
            resid = Z - Xa @ state.beta
            rss = float(resid @ resid)
            if k:
                d = g - state.effects
                rss = max(rss - float(g @ g), 0.0) + float(d @ d)
            shape = pr.sigma2_shape + 0.5 * n
            rate = pr.sigma2_rate + 0.5 * rss
            state.sigma2 = float(1.0 / rng.gamma(shape, 1.0 / rate))
    if rotate:
        state.effects = spectrum[1] @ state.effects
    return state


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------


def _proposal_chol(glm_fit: GlmFit | None, p: int) -> np.ndarray:
    if glm_fit is None or not np.all(np.isfinite(glm_fit.cov_hat)):
        return np.eye(p)
    try:
        return np.linalg.cholesky(glm_fit.cov_hat)
    except np.linalg.LinAlgError:
        return np.diag(np.sqrt(np.clip(np.diag(glm_fit.cov_hat), 1e-12, None)))


def fit(
    spec: ModelSpec,
    data: Dataset,
    basis,
    cfg: McmcConfig,
    *,
    glm_fit: GlmFit | None = None,
    prior_only: bool = False,
    fixed_tau: float | None = None,
    fixed_sigma2: float | None = None,
    stream=None,
) -> Chain:
    """Run one MCMC chain and return the thinned post-burn-in draws.

    ``basis`` is a PrecisionMatrix (traditional), RhzBasis (rhz), MoranBasis
    (sparse), or None (nonspatial). ``prior_only`` disables the likelihood,
    targeting the joint prior. ``fixed_tau`` / ``fixed_sigma2`` hold those
    parameters at the given values. ``stream`` is an optional callable
    receiving (names, row) for every retained draw as it is kept, such as an
    ``io.RowWriter`` that writes the chain to disk as it runs. ``row`` is the
    draw's row of ``Chain.values`` itself, not a copy: a stream that keeps
    rows copies them, and none may write to them.
    """
    t_start = time.perf_counter()
    X, Z = data.X, data.Z
    n, p = X.n, X.p
    fam = FAMILY[spec.family]
    eb = effect_basis(spec, basis)
    spatial = eb is not None
    B, Q_B, k, car_k = (eb.B, eb.Q_B, eb.k, eb.car_rank) if spatial else (None, None, 0, 0)
    # the Gaussian family's chain is all Gibbs
    gaussian = fam.has_sigma2
    # the identity loading of the traditional model has one effect per site,
    # drawn by the site sweep unless Gibbs draws them
    identity = spatial and B is None
    sweep = identity and not gaussian

    if prior_only and gaussian and identity:
        raise ValueError(
            "prior-only mode is unavailable for the traditional Gaussian model: "
            "the intrinsic CAR prior is improper, so the effects have no "
            "proper prior conditional to Gibbs-sample"
        )

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    degrees = classes = A_csr = None
    if sweep:
        degrees = np.asarray(Q_B.diagonal(), dtype=float)
        A_csr = sp.csr_array(sp.diags_array(degrees) - Q_B)
        classes = _greedy_classes(A_csr)

    # initialization: IRLS estimate for MH families, zero otherwise
    if gaussian or prior_only:
        beta = np.zeros(p)
        chol_prop = np.eye(p)
    else:
        if glm_fit is None:
            glm_fit = irls_fit(spec.family, X, Z, offset=spec.offset)
        beta = glm_fit.beta_hat.copy()
        chol_prop = _proposal_chol(glm_fit, p)
    state = ParameterState(
        beta=beta,
        effects=np.zeros(k),
        tau=fixed_tau if fixed_tau is not None else 1.0,
        sigma2=(
            fixed_sigma2
            if fixed_sigma2 is not None
            else (max(float(np.var(Z)), 1e-8) if gaussian else None)
        ),
    )

    eta = linear_predictor(spec, X, basis, state)
    # log-likelihood up to the data's constant, as a function of eta alone
    loglik = (lambda eta: 0.0) if prior_only else partial(fam.loglik, Z)
    # log-likelihood at the current eta, kept in step with eta
    ll = None if gaussian else loglik(eta)
    if not prior_only:
        # ll is finite iff the exact log-likelihood is, and spares a Poisson
        # fit the import of scipy.special for its constant
        fam.check(Z)
        ll0 = log_likelihood(spec, Z, eta, state.sigma2) if gaussian else ll
        lp0 = log_prior(spec, X, basis, state)
        if not np.isfinite(ll0 + lp0):
            raise ValueError(
                f"non-finite log posterior at initialization "
                f"(log-likelihood {ll0}, log-prior {lp0}); check data scaling"
            )

    # the effects run in the coordinates y = V' delta, where Q_B is diagonal
    # (all but the site sweep); lam is the CAR precision per unit tau of each
    # coordinate, and c the mean IRLS weight at the start
    lam = V = spectrum = site_ll = None
    c = 0.0
    if sweep:
        lam = degrees
        site_terms = fam.site_loglik
        site_ll = (lambda idx, e: 0.0) if prior_only else (lambda idx, e: site_terms(Z[idx], e))
    elif k:
        spectrum = lam, V, B = _effect_spectrum(Q_B, B)
    # the Gaussian sweep's data terms, fixed for the chain
    cache = _gaussian_cache(X.X, Z, spectrum) if gaussian else None
    if k and not gaussian and not prior_only:
        c = float(np.mean(fam.weight(fam.mean(eta))))

    quad = float(state.effects @ (Q_B @ state.effects)) if k else 0.0
    pr = spec.priors
    beta_var = pr.beta_variance

    steps = {name: step for name, (step, _) in _BLOCKS.items()}
    log_steps = {name: float(np.log(s)) for name, s in steps.items()}

    names = tuple(
        [f"beta.{nm}" for nm in X.names]
        + [f"effect.{i}" for i in range(k)]
        + (["tau"] if spatial else [])
        + (["sigma2"] if gaussian else [])
    )
    # the retained draws, one row each, in names order
    values = np.empty(((cfg.iterations - cfg.burn_in) // cfg.thin, len(names)))

    accepted = {"beta": 0.0, "effects": 0.0}
    proposed = {"beta": 0, "effects": 0}

    def tally(block, rate, alpha, gain):
        # after burn-in, add the proposal and its gain (the acceptance flag or
        # a sweep's mean acceptance probability) to ``rate``'s tally; while
        # adapting, move ``block``'s log step by gamma (alpha - its target)
        if t > cfg.burn_in:
            accepted[rate] += gain
            proposed[rate] += 1
        if adapting:
            log_steps[block] += gamma * (alpha - _BLOCKS[block][1])
            steps[block] = _step_from_log(log_steps[block])

    # log target ratios of the two random-walk blocks; each also returns
    # what the proposal's state needs, kept only on acceptance
    def beta_ratio(prop):
        eta_prop = eta + X.X @ (prop - state.beta)
        ll_prop = loglik(eta_prop)
        d_prior = float(prop @ prop) - float(state.beta @ state.beta)
        return ll_prop - ll - 0.5 * d_prior / beta_var, (eta_prop, ll_prop)

    def effects_ratio(prop):
        # state.effects holds the rotated coordinates V' delta here
        eta_prop = eta + B @ (prop - state.effects)
        quad_prop = float(lam @ prop**2)
        ll_prop = loglik(eta_prop)
        log_alpha = ll_prop - ll - 0.5 * state.tau * (quad_prop - quad)
        return log_alpha, (eta_prop, ll_prop, quad_prop)

    kept = 0
    for t in range(1, cfg.iterations + 1):
        adapting = t <= cfg.burn_in
        gamma = t**-0.6 if adapting else 0.0

        if gaussian:
            state = gibbs_gaussian(
                rng,
                state,
                X=X,
                car_k=car_k,
                Z=Z,
                priors=pr,
                prior_only=prior_only,
                fixed_tau=fixed_tau,
                fixed_sigma2=fixed_sigma2,
                cache=cache,
            )
        else:
            state.beta, new, alpha, ok = rw_metropolis(
                rng, state.beta, beta_ratio, steps["beta"], chol_prop
            )
            if ok:
                eta, ll = new
            tally("beta", "beta", alpha, ok)

            if sweep:
                mean_alpha = update_w_univariate(
                    rng,
                    state.effects,
                    eta,
                    steps["site"],
                    tau=state.tau,
                    adjacency=A_csr,
                    degrees=degrees,
                    classes=classes,
                    site_loglik=site_ll,
                    scale=conditional_scale(c, state.tau, lam),
                )
                tally("site", "effects", mean_alpha, mean_alpha)
                quad = float(state.effects @ (Q_B @ state.effects))
                ll = loglik(eta)
            elif k:
                state.effects, new, alpha, ok = rw_metropolis(
                    rng,
                    state.effects,
                    effects_ratio,
                    steps["effects"],
                    conditional_scale(c, state.tau, lam),
                )
                if ok:
                    eta, ll, quad = new
                tally("effects", "effects", alpha, ok)

            # tau block
            if spatial and fixed_tau is None:
                state.tau = gibbs_tau(rng, pr, car_k, quad)

        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            row = values[kept]
            row[:p] = state.beta
            row[p : p + k] = state.effects if V is None else V @ state.effects
            if spatial:
                row[p + k] = state.tau
            if gaussian:
                row[-1] = state.sigma2
            if stream is not None:
                stream(names, row)
            kept += 1

    rates = {}
    if not gaussian:
        if proposed["beta"]:
            rates["beta"] = accepted["beta"] / proposed["beta"]
        if k and proposed["effects"]:
            rates["effects"] = accepted["effects"] / proposed["effects"]

    return Chain(
        values=values,
        names=names,
        acceptance_rates=rates,
        wall_time=time.perf_counter() - t_start,
        seed=cfg.seed,
        spec=spec,
        config=cfg,
        step_sizes=dict(steps),
    )


def _fit_one(job):
    """Worker entry: one chain, with ``fit`` looked up when the job runs.

    Only this module-level function is pickled, never ``fit`` itself, so
    ``fit`` may have been replaced by a closure in the calling process.
    """
    spec, data, basis, cfg, kwargs = job
    return fit(spec, data, basis, cfg, **kwargs)


def fit_chains(spec, data, basis, cfg, n_chains, *, streams=None, **kwargs):
    """Run independent chains in parallel worker processes.

    Chain i is seeded from SeedSequence(cfg.seed).spawn(n_chains)[i], so the
    set of chains is reproducible, the streams never overlap, and each chain
    draws what a lone ``fit`` with that seed draws. The chains run in
    min(n_chains, usable CPUs) forked workers, one chain per task; with fewer
    than two workers, or no fork, they run one after another here. Fork,
    because spawn and forkserver re-import numpy and scipy in every worker;
    the program starts no threads that a fork could copy mid-operation.

    ``streams[i]``, when given, receives (names, row) for each retained draw
    of chain i in this process, chain by chain and row by row once the
    workers return, as in the serial loop. A worker's exception is raised
    here with its type and message.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(n_chains)
    cfgs = [replace(cfg, seed=int(c.generate_state(1)[0])) for c in children]
    streams = [None] * n_chains if streams is None else streams
    # imported here: at module level it raised the peak memory of
    # single-chain fits by 0.1 to 0.3 MB
    import multiprocessing

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(n_chains, cpus)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fit(spec, data, basis, c, stream=s, **kwargs) for c, s in zip(cfgs, streams)]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        chains = pool.map(_fit_one, [(spec, data, basis, c, kwargs) for c in cfgs], chunksize=1)
    for chain, stream in zip(chains, streams):
        if stream is not None:
            for row in chain.matrix():
                stream(chain.names, row)
    return chains
