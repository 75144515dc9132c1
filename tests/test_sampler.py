import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings

from sglmm.basis import DesignMatrix, moran_basis, rhz_basis
from sglmm.glm import irls_fit
from sglmm.graph import build_lattice, graph_from_edges, laplacian
from sglmm.model import Dataset, ModelSpec, ParameterState, PriorSet
import sglmm.sampler as sampler
from sglmm.sampler import (
    McmcConfig,
    _effect_spectrum,
    _gaussian_cache,
    _greedy_classes,
    car_local_log_ratio,
    color_classes,
    conditional_scale,
    fit,
    fit_chains,
    gibbs_gaussian,
    gibbs_tau,
    rw_metropolis,
    update_w_univariate,
)
from sglmm.simulate import lattice_design, simulate_dataset
from sglmm.summary import mcse
from test_basis import _irregular_graphs


def test_config_validation():
    with pytest.raises(ValueError, match="burn_in"):
        McmcConfig(iterations=100, burn_in=100, seed=0)
    with pytest.raises(ValueError, match="thin"):
        McmcConfig(iterations=100, burn_in=10, thin=0, seed=0)


def test_color_classes_partition_without_adjacent_pairs():
    g = build_lattice(6, 7)
    classes = color_classes(g)
    all_idx = np.sort(np.concatenate(classes))
    assert np.array_equal(all_idx, np.arange(g.n))
    edge_set = set(map(tuple, g.edges.tolist()))
    for cls in classes:
        members = set(int(v) for v in cls)
        for i in members:
            for j in members:
                if i < j:
                    assert (i, j) not in edge_set
    assert len(classes) == 2  # lattices are bipartite


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_irregular_graphs())
def test_color_classes_partition_irregular_graphs(case):
    g = case[0]
    classes = color_classes(g)
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(g.n))
    A = g.adjacency()
    for cls in classes:
        assert A[cls][:, cls].sum() == 0
    # the chain driver colors the adjacency diag(Q) - Q of the Laplacian Q
    Q = laplacian(g).Q
    from_q = _greedy_classes(sp.csr_array(sp.diags_array(Q.diagonal()) - Q))
    assert len(from_q) == len(classes)
    assert all(np.array_equal(a, b) for a, b in zip(from_q, classes))


def _ratio_of(log_target, x):
    """log_ratio for rw_metropolis from x; kept is the log target at the proposal."""
    current = log_target(x)

    def log_ratio(prop):
        proposed = log_target(prop)
        return proposed - current, proposed

    return log_ratio


def test_update_beta_rw_flat_target_always_accepts():
    rng = np.random.default_rng(0)
    beta = np.zeros(3)
    accepted = 0
    for _ in range(500):
        beta, _, alpha, ok = rw_metropolis(rng, beta, lambda b: (0.0, None), 0.5, np.eye(3))
        assert alpha == 1.0
        accepted += ok
    assert accepted == 500


def test_update_beta_rw_acceptance_prob_is_density_ratio():
    # for a symmetric proposal the acceptance probability is
    # min(1, pi(prop)/pi(current)); verify against a quadratic target
    rng = np.random.default_rng(1)
    log_target = lambda b: -0.5 * float(b @ b)
    beta = np.array([1.5, -0.5])
    for _ in range(200):
        log_ratio = _ratio_of(log_target, beta)
        new, logt, alpha, ok = rw_metropolis(rng, beta, log_ratio, 0.7, np.eye(2))
        if ok:
            assert logt == pytest.approx(log_target(new))
        else:
            assert logt is None and new is beta
        beta = new
        assert 0.0 < alpha <= 1.0


def test_rw_two_state_equilibrium():
    # discretized two-level target on [0,2): pi([0,1)) = 0.7, pi([1,2)) = 0.3;
    # the chain's occupancy must match the exact probabilities within 1%
    def log_target(x):
        v = x[0]
        if 0.0 <= v < 1.0:
            return np.log(0.7)
        if 1.0 <= v < 2.0:
            return np.log(0.3)
        return -np.inf

    rng = np.random.default_rng(2)
    x = np.array([0.5])
    hits = 0
    n = 200_000
    for _ in range(n):
        x, _, _, _ = rw_metropolis(rng, x, _ratio_of(log_target, x), 0.8, np.eye(1))
        hits += x[0] < 1.0
    assert hits / n == pytest.approx(0.7, abs=0.01)


def test_update_delta_rw_prior_recovery_variance():
    # prior-only target: delta ~ N(0, (tau Q_S)^{-1}); the sample second
    # moments must match the exact Gaussian moments within 3 MCSE. As in
    # fit, the chain runs in the rotated coordinates V' delta with the
    # per-coordinate scale (c + tau lam)^{-1/2}, c = 0, and draws are
    # rotated back
    g = build_lattice(6, 6)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=4)
    tau = 2.0
    target_cov = np.linalg.inv(tau * mb.Q_S)
    lam, V = np.linalg.eigh(mb.Q_S)
    scale = conditional_scale(0.0, tau, lam)
    assert np.ptp(scale) > 0.1 * scale.max()  # not spherical
    log_target = lambda r: -0.5 * tau * float(lam @ r**2)

    rng = np.random.default_rng(3)
    rotated = np.zeros(4)
    draws = np.empty((60_000, 4))
    for i in range(draws.shape[0]):
        rotated, _, _, _ = rw_metropolis(rng, rotated, _ratio_of(log_target, rotated), 1.0, scale)
        draws[i] = V @ rotated
    sq = draws[10_000:] ** 2
    for j in range(4):
        se = mcse(sq[:, j])
        assert abs(sq[:, j].mean() - target_cov[j, j]) < 3 * se


@pytest.mark.parametrize("model", ["nonspatial", "traditional", "rhz", "sparse"])
@pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian"])
def test_fit_draws_random_walk_blocks_through_rw_metropolis(monkeypatch, family, model):
    # beta and the rhz/sparse effects are the random-walk blocks; the site
    # sweep draws the traditional effects and Gaussian fits are all Gibbs.
    # A block drawn by an inline copy of the kernel would not be counted
    calls = 0 if family == "gaussian" else (2 if model in ("rhz", "sparse") else 1)
    kw = {"sigma2": 1.0} if family == "gaussian" else {}
    sim = simulate_dataset(seed=34, rows=5, cols=5, q=4, tau=1.0, family=family, **kw)
    basis = {
        "sparse": sim.basis,
        "rhz": rhz_basis(sim.X, sim.graph),
        "traditional": laplacian(sim.graph),
        "nonspatial": None,
    }[model]
    n_calls = [0]

    def counted(*args, **kwargs):
        n_calls[0] += 1
        return rw_metropolis(*args, **kwargs)

    monkeypatch.setattr(sampler, "rw_metropolis", counted)
    cfg = McmcConfig(iterations=300, burn_in=100, thin=1, seed=35)
    spec = ModelSpec(family, model, q=4 if model == "sparse" else None)
    fit(spec, Dataset(X=sim.X, Z=sim.Z), basis, cfg)
    assert n_calls[0] == calls * cfg.iterations


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_irregular_graphs())
@example(case=(graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4)]), None, None))
def test_update_w_univariate_matches_full_quadratic_form(case):
    # local CAR ratio must equal the full joint prior ratio when one site
    # changes; isolated vertices (vertex 5 of the 6-vertex example) have a
    # flat conditional
    g = case[0]
    Qd = laplacian(g).dense()
    tau = 1.7
    rng = np.random.default_rng(4)
    W = rng.standard_normal(g.n)
    A = g.adjacency().astype(float)
    S = A @ W
    deg = g.degrees.astype(float)
    for i in range(g.n):
        w_new = W[i] + 0.8
        local = car_local_log_ratio(tau, deg[i], S[i], W[i], w_new)
        W2 = W.copy()
        W2[i] = w_new
        full = -0.5 * tau * (W2 @ Qd @ W2 - W @ Qd @ W)
        assert local == pytest.approx(full, abs=1e-10)
    for i in np.nonzero(deg == 0)[0]:
        assert car_local_log_ratio(tau, 0.0, 0.0, W[i], W[i] + 10.0) == 0.0


def test_conditional_scale_finite_where_precision_vanishes():
    scale = conditional_scale(0.0, 3.0, np.array([0.0, 1.0, 4.0]))
    assert np.allclose(scale, [1.0, 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(12.0)])
    assert np.allclose(conditional_scale(0.5, 2.0, np.zeros(2)), np.sqrt(2.0))


def test_prior_only_traditional_fit_finite_with_isolated_vertex():
    # prior-only (c = 0) on a graph whose vertex 5 has degree 0: the site's
    # conditional precision c + tau d_i vanishes, and its proposal scale
    # must stay finite. Its conditional is flat, so the site must also move:
    # an infinite proposal is never accepted and would leave it stuck at 0
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4)])
    X = DesignMatrix(np.column_stack([np.ones(6), np.arange(6.0)]))
    spec = ModelSpec("poisson", "traditional")
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=5, seed=33)
    chain = fit(spec, Dataset(X=X, Z=np.zeros(6)), laplacian(g), cfg, prior_only=True)
    assert np.all(np.isfinite(chain.matrix()))
    assert np.all(chain.draws["tau"] > 0)
    assert np.ptp(chain.column("effect.5")) > 0


def test_update_w_univariate_sweep_runs_and_returns_rate():
    g = build_lattice(5, 5)
    Q = laplacian(g)
    A = g.adjacency().astype(float)
    classes = color_classes(g)
    rng = np.random.default_rng(5)
    W = np.zeros(25)
    eta = np.zeros(25)
    Z = rng.integers(0, 2, 25).astype(float)
    site_ll = lambda idx, e: Z[idx] * e - np.logaddexp(0.0, e)
    rate = update_w_univariate(
        rng, W, eta, 0.5, tau=1.0, adjacency=A, degrees=g.degrees.astype(float),
        classes=classes, site_loglik=site_ll,
    )
    assert 0.0 < rate <= 1.0
    assert np.array_equal(eta, W)  # eta tracked the accepted moves


def test_gibbs_tau_conjugate_parameters():
    # delta = 0, q = 2, default priors: Gamma(shape 1.5, rate 1/2000);
    # long-run mean must equal shape/rate = 3000 within 3 MCSE
    rng = np.random.default_rng(6)
    pr = PriorSet()
    draws = np.array([gibbs_tau(rng, pr, 2, 0.0) for _ in range(40_000)])
    assert np.all(draws > 0)
    se = mcse(draws)
    assert abs(draws.mean() - 1.5 / (1.0 / 2000.0)) < 3 * se


def test_gibbs_tau_k_zero_is_prior():
    rng = np.random.default_rng(7)
    pr = PriorSet()
    draws = np.array([gibbs_tau(rng, pr, 0, 0.0) for _ in range(40_000)])
    se = mcse(draws)
    # prior mean = shape * scale = 0.5 * 2000 = 1000
    assert abs(draws.mean() - 1000.0) < 3 * se


def test_gibbs_tau_long_run_mean_fixed_effects():
    rng = np.random.default_rng(8)
    pr = PriorSet()
    quad = 4.0
    k = 10
    shape, rate = pr.tau_shape + k / 2, 1 / pr.tau_scale + quad / 2
    draws = np.array([gibbs_tau(rng, pr, k, quad) for _ in range(40_000)])
    assert abs(draws.mean() - shape / rate) < 3 * mcse(draws)


@pytest.fixture(scope="module")
def gaussian_ctx():
    g = build_lattice(5, 5)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=5)
    rng = np.random.default_rng(9)
    Z = X.X @ np.array([1.0, -1.0]) + rng.standard_normal(25)
    return X, mb, Z


def test_gibbs_gaussian_prior_limit_beta(gaussian_ctx):
    # sigma2 = 1e12 removes the data: beta draws follow N(0, 100 I)
    X, mb, Z = gaussian_ctx
    rng = np.random.default_rng(10)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(5), tau=1.0, sigma2=1e12)
    pr = PriorSet()
    betas = []
    for _ in range(30_000):
        state = gibbs_gaussian(
            rng, state, X=X, B=mb.M, BtB=mb.M.T @ mb.M, Q_B_dense=mb.Q_S, Q_B=mb.Q_S,
            car_k=5, Z=Z, priors=pr, fixed_sigma2=1e12,
        )
        betas.append(state.beta.copy())
    betas = np.asarray(betas)
    for j in range(2):
        assert abs(betas[:, j].mean()) < 3 * mcse(betas[:, j])
        sq = betas[:, j] ** 2
        assert abs(sq.mean() - 100.0) < 3 * mcse(sq)


def test_gibbs_gaussian_orthonormal_identity(gaussian_ctx):
    # with orthonormal loading, B'B = I to machine precision
    X, mb, Z = gaussian_ctx
    assert np.abs(mb.M.T @ mb.M - np.eye(5)).max() < 1e-12


def test_gibbs_gaussian_conjugate_posterior_mean():
    # n = 25, q = 5, tau and sigma2 fixed: the chain mean of (beta, delta)
    # must match the closed-form joint Gaussian posterior mean
    g = build_lattice(5, 5)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=5)
    rng = np.random.default_rng(11)
    Z = X.X @ np.array([1.0, 0.5]) + mb.M @ rng.standard_normal(5) + rng.standard_normal(25)
    tau0, s20 = 1.5, 1.0
    spec = ModelSpec("gaussian", "sparse", q=5)
    cfg = McmcConfig(iterations=40_000, burn_in=4_000, thin=4, seed=12)
    chain = fit(spec, Dataset(X=X, Z=Z), mb, cfg, fixed_tau=tau0, fixed_sigma2=s20)

    Xa, M = X.X, mb.M
    prec = np.zeros((7, 7))
    prec[:2, :2] = Xa.T @ Xa / s20 + np.eye(2) / 100.0
    prec[:2, 2:] = Xa.T @ M / s20
    prec[2:, :2] = M.T @ Xa / s20
    prec[2:, 2:] = M.T @ M / s20 + tau0 * mb.Q_S
    mean_true = np.linalg.solve(prec, np.concatenate([Xa.T @ Z, M.T @ Z]) / s20)

    draws = np.hstack([chain.draws["beta"], chain.draws["effects"]])
    for j in range(7):
        se = mcse(draws[:, j])
        assert abs(draws[:, j].mean() - mean_true[j]) < 3 * se


class _NoNoise:
    """Generator stand-in whose normal draws are 0, so a sweep returns the
    conditional means; its gamma draws are 1 and record their arguments."""

    def __init__(self):
        self.gamma_args = []

    def standard_normal(self, size):
        return np.zeros(size)

    def gamma(self, shape, scale):
        self.gamma_args.append((shape, scale))
        return 1.0


def _islands_20x20():
    # the 20x20 lattice cut into two 10x20 halves, plus the isolated vertex 399
    g = build_lattice(20, 20)
    edges = [
        (i, j) for i, j in g.edges if (i % 20 < 10) == (j % 20 < 10) and 399 not in (i, j)
    ]
    return graph_from_edges(400, edges, coords=g.coords)


def _gaussian_cases(g, X, Z):
    # (X, Z, {model: (B, Q_B)}) per parameterization; B None is the identity
    rb = rhz_basis(X, g)
    mb = moran_basis(X, g, q=50)
    cases = {
        "traditional": (None, laplacian(g).Q.toarray()),
        "rhz": (rb.L, rb.Q_R),
        "sparse": (mb.M, mb.Q_S),
    }
    return X, Z, cases


@pytest.fixture(scope="module")
def gaussian_400():
    g = build_lattice(20, 20)
    X = lattice_design(g)
    Z = X.X @ np.array([1.0, -0.5]) + np.random.default_rng(40).standard_normal(400)
    return _gaussian_cases(g, X, Z)


@pytest.fixture(scope="module")
def year_400():
    # an intercept and a raw year column: cond(X) ~ 4e5, so the smallest
    # eigenvalue of X'X is ~6e-12 of the largest, and still data
    g = build_lattice(20, 20)
    rng = np.random.default_rng(45)
    X = DesignMatrix(np.column_stack([np.ones(400), 2000.0 + 10.0 * rng.standard_normal(400)]))
    Z = X.X @ np.array([1.0, -0.5]) + rng.standard_normal(400)
    return _gaussian_cases(g, X, Z)


@pytest.mark.parametrize("model", ["traditional", "rhz", "sparse"])
def test_gibbs_gaussian_conditionals_match_dense_solve(gaussian_400, year_400, model):
    # beta's rtol on the year design allows for the cond(X'X) ~ 1e11 of both solves
    for (X, Z, cases), beta_rtol in ((gaussian_400, 1e-10), (year_400, 1e-7)):
        _check_conditionals_match_dense_solve(X, Z, *cases[model], beta_rtol)


def _check_conditionals_match_dense_solve(X, Z, B, Q_B, beta_rtol):
    k = Q_B.shape[0]
    loading = np.eye(400) if B is None else B
    BtB = loading.T @ loading
    tau, s2 = 2.0, 0.5
    start = np.random.default_rng(41).standard_normal(k)
    prec = BtB / s2 + tau * Q_B
    kw = dict(X=X, car_k=k, Z=Z, priors=PriorSet(), fixed_tau=tau)

    # without a cache the kernel factorizes eigh(Q_B_dense, BtB) itself
    rng = _NoNoise()
    state = ParameterState(beta=np.zeros(2), effects=start.copy(), tau=tau, sigma2=s2)
    gibbs_gaussian(rng, state, B=B, BtB=BtB, Q_B_dense=Q_B, Q_B=Q_B, **kw)
    # beta | delta has precision X'X/s2 + I/v and right-hand side X'(Z - B delta)/s2
    beta_prec = X.X.T @ X.X / s2 + np.eye(2) / PriorSet().beta_variance
    beta_rhs = X.X.T @ (Z - loading @ start) / s2
    expected_beta = np.linalg.solve(beta_prec, beta_rhs)
    assert np.allclose(state.beta, expected_beta, rtol=beta_rtol, atol=0)
    rhs = loading.T @ (Z - X.X @ state.beta) / s2
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(prec), rhs)
    assert np.allclose(state.effects, expected)
    # sigma2 | rest has rate sigma2_rate + |Z - X beta - B delta|^2 / 2
    rss = np.sum((Z - X.X @ state.beta - loading @ state.effects) ** 2)
    (_, scale), = rng.gamma_args
    assert np.isclose(1.0 / scale, PriorSet().sigma2_rate + 0.5 * rss)

    # with the cache fit computes once, effects in the rotated coordinates
    spectrum = _effect_spectrum(Q_B, B)
    V = spectrum[1]
    beta = state.beta
    state = ParameterState(beta=np.zeros(2), effects=V.T @ start, tau=tau, sigma2=s2)
    cache = _gaussian_cache(X.X, Z, spectrum)
    gibbs_gaussian(_NoNoise(), state, cache=cache, fixed_sigma2=s2, **kw)
    assert np.allclose(state.beta, beta)
    assert np.allclose(V @ state.effects, expected)


@pytest.mark.parametrize("model", ["traditional", "rhz", "sparse"])
def test_gibbs_gaussian_effects_covariance_matches_inverse_precision(gaussian_400, model):
    # every sweep starts from the same state; an effects draw minus its
    # conditional mean given the beta drawn before it is N(0, prec^{-1}),
    # and the beta draw is exact given effects 0
    X, Z, cases = gaussian_400
    B, Q_B = cases[model]
    k = Q_B.shape[0]
    loading = np.eye(400) if B is None else B
    tau, s2 = 2.0, 0.5
    spectrum = _effect_spectrum(Q_B, B)
    V = spectrum[1]
    cache = _gaussian_cache(X.X, Z, spectrum)
    rng = np.random.default_rng(42)
    n_draws = 4_000
    betas = np.empty((n_draws, 2))
    deltas = np.empty((n_draws, k))
    for i in range(n_draws):
        state = ParameterState(beta=np.zeros(2), effects=np.zeros(k), tau=tau, sigma2=s2)
        gibbs_gaussian(
            rng, state, X=X, car_k=k, Z=Z, priors=PriorSet(),
            fixed_tau=tau, fixed_sigma2=s2, cache=cache,
        )
        betas[i] = state.beta
        deltas[i] = V @ state.effects

    prec = loading.T @ loading / s2 + tau * Q_B
    cho = scipy.linalg.cho_factor(prec)
    means = scipy.linalg.cho_solve(cho, loading.T @ (Z[:, None] - X.X @ betas.T) / s2).T
    e = deltas - means
    cov = scipy.linalg.cho_solve(cho, np.eye(k))
    _, W = np.linalg.eigh(Q_B)
    for u in (np.eye(k)[0], W[:, 0], W[:, -1]):  # a site, least and most smoothed
        sq = (e @ u) ** 2
        assert abs(sq.mean() - u @ cov @ u) < 3 * mcse(sq)
    whitened = np.sum(e * (e @ prec), axis=1)  # chi-square, k degrees of freedom
    assert abs(whitened.mean() - k) < 3 * mcse(whitened)

    # from effects 0, beta ~ N(P^{-1} X'Z/s2, P^{-1}) with P = X'X/s2 + I/v
    beta_prec = X.X.T @ X.X / s2 + np.eye(2) / PriorSet().beta_variance
    e = betas - np.linalg.solve(beta_prec, X.X.T @ Z / s2)
    beta_cov = np.linalg.inv(beta_prec)
    _, W = np.linalg.eigh(beta_prec)
    for u in (np.eye(2)[0], np.eye(2)[1], W[:, 0], W[:, 1]):
        sq = (e @ u) ** 2
        assert abs(sq.mean() - u @ beta_cov @ u) < 3 * mcse(sq)
    whitened = np.sum(e * (e @ beta_prec), axis=1)  # chi-square, 2 degrees of freedom
    assert abs(whitened.mean() - 2) < 3 * mcse(whitened)


def test_traditional_gaussian_fit_finite_on_graph_with_islands():
    # Q has a null direction per component: three zero eigenvalues
    g = _islands_20x20()
    assert g.n_components() == 3
    X = lattice_design(g)
    Z = X.X @ np.array([1.0, -1.0]) + np.random.default_rng(43).standard_normal(400)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=5, seed=44)
    chain = fit(ModelSpec("gaussian", "traditional"), Dataset(X=X, Z=Z), laplacian(g), cfg)
    assert np.all(np.isfinite(chain.matrix()))
    assert np.all(chain.draws["tau"] > 0)
    assert np.all(chain.draws["sigma2"] > 0)


def test_prior_only_gaussian_fit_with_singular_precision_raises():
    # three components against two design columns: span(X)-perp holds a
    # combination of component indicators, a null direction of Q_R
    g = _islands_20x20()
    X = lattice_design(g)
    rb = rhz_basis(X, g)
    cfg = McmcConfig(iterations=100, burn_in=10, seed=45)
    with pytest.raises(RuntimeError, match="not positive definite"):
        fit(ModelSpec("gaussian", "rhz"), Dataset(X=X, Z=np.zeros(400)), rb, cfg,
            prior_only=True)


def test_fit_deterministic_under_fixed_seed():
    sim = simulate_dataset(seed=13, rows=6, cols=6, q=8, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=8)
    cfg = McmcConfig(iterations=4_000, burn_in=1_000, thin=3, seed=14)
    data = Dataset(X=sim.X, Z=sim.Z)
    c1 = fit(spec, data, sim.basis, cfg)
    c2 = fit(spec, data, sim.basis, cfg)
    for key in c1.draws:
        assert np.array_equal(c1.draws[key], c2.draws[key])
    assert c1.acceptance_rates == c2.acceptance_rates


def test_fit_contract_2x2_bernoulli_sparse():
    g = build_lattice(2, 2)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=1)
    spec = ModelSpec("bernoulli", "sparse", q=1)
    Z = np.array([1.0, 0.0, 0.0, 1.0])
    cfg = McmcConfig(iterations=10_000, burn_in=1_000, thin=3, seed=15)
    chain = fit(spec, Dataset(X=X, Z=Z), mb, cfg)
    assert chain.n_draws == (10_000 - 1_000) // 3
    assert np.all(chain.draws["tau"] > 0)
    for rate in chain.acceptance_rates.values():
        assert 0.0 < rate < 1.0


def test_fit_draw_count_contract():
    sim = simulate_dataset(seed=16, rows=5, cols=5, q=4, tau=1.0, family="poisson")
    spec = ModelSpec("poisson", "sparse", q=4)
    cfg = McmcConfig(iterations=5_000, burn_in=500, thin=7, seed=17)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg)
    assert chain.n_draws == (5_000 - 500) // 7


def test_fit_rejects_wrong_basis():
    sim = simulate_dataset(seed=18, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "rhz")
    with pytest.raises(ValueError, match="RhzBasis"):
        fit(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis,
            McmcConfig(iterations=100, burn_in=10, seed=0))


def test_fit_rejects_q_mismatch():
    sim = simulate_dataset(seed=18, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=3)
    with pytest.raises(ValueError, match="q=4"):
        fit(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis,
            McmcConfig(iterations=100, burn_in=10, seed=0))


def test_fit_nonspatial_chain_has_no_tau():
    sim = simulate_dataset(seed=19, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "nonspatial")
    cfg = McmcConfig(iterations=5_000, burn_in=500, thin=5, seed=20)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), None, cfg)
    assert "tau" not in chain.draws
    assert "effects" not in chain.draws
    assert chain.names == ("beta.x", "beta.y")


def test_fit_gaussian_traditional_runs():
    sim = simulate_dataset(seed=21, rows=5, cols=5, q=4, tau=1.0, sigma2=1.0, family="gaussian")
    spec = ModelSpec("gaussian", "traditional")
    Q = laplacian(sim.graph)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=3, seed=22)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), Q, cfg)
    assert np.all(chain.draws["tau"] > 0)
    assert np.all(chain.draws["sigma2"] > 0)
    assert chain.acceptance_rates == {}  # all-Gibbs schedule


def test_prior_only_traditional_gaussian_rejected():
    g = build_lattice(4, 4)
    X = lattice_design(g)
    spec = ModelSpec("gaussian", "traditional")
    with pytest.raises(ValueError, match="improper"):
        fit(spec, Dataset(X=X, Z=np.zeros(16)), laplacian(g),
            McmcConfig(iterations=100, burn_in=10, seed=0), prior_only=True)


def test_rhz_fit_runs_and_covers_truth_dimension():
    sim = simulate_dataset(seed=23, rows=6, cols=6, q=8, tau=1.0, family="poisson")
    rb = rhz_basis(sim.X, sim.graph)
    spec = ModelSpec("poisson", "rhz")
    cfg = McmcConfig(iterations=4_000, burn_in=1_000, thin=3, seed=24)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), rb, cfg)
    assert chain.draws["effects"].shape[1] == 34  # n - p = 36 - 2


def test_adaptation_reaches_band_on_binary_preset():
    # the effects block must tune into (0.1, 0.5) acceptance on the 30x30
    # binary preset; the step freezes at burn-in end while tau keeps moving,
    # so the acceptance holds only if the proposal follows tau
    sim = simulate_dataset("binary", seed=25)
    mb = moran_basis(sim.X, sim.graph, q=50)
    spec = ModelSpec("bernoulli", "sparse", q=50)
    cfg = McmcConfig(iterations=30_000, burn_in=10_000, thin=10, seed=26)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), mb, cfg)
    assert 0.1 < chain.acceptance_rates["effects"] < 0.5
    assert 0.1 < chain.acceptance_rates["beta"] < 0.5


def test_adaptation_freezes_after_burn_in():
    # the step recorded at the end must be reproducible from a run with the
    # same burn-in but longer sampling phase
    sim = simulate_dataset(seed=27, rows=6, cols=6, q=6, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=6)
    data = Dataset(X=sim.X, Z=sim.Z)
    c_short = fit(spec, data, sim.basis, McmcConfig(iterations=3_000, burn_in=2_000, thin=1, seed=28))
    c_long = fit(spec, data, sim.basis, McmcConfig(iterations=6_000, burn_in=2_000, thin=1, seed=28))
    assert c_short.step_sizes == c_long.step_sizes


def test_fit_rejects_offset_not_one_per_site():
    # a length-1 offset used to be broadcast to all 16 sites, and a chain ran
    g = build_lattice(4, 4)
    X = lattice_design(g)
    data = Dataset(X=X, Z=np.ones(16))
    cfg = McmcConfig(iterations=50, burn_in=10, seed=0)
    for offset in ([5.0], np.full(15, 5.0)):
        spec = ModelSpec("poisson", "traditional", offset=offset)
        with pytest.raises(ValueError, match="offset must have length 16"):
            fit(spec, data, laplacian(g), cfg)


def test_initial_nonfinite_posterior_rejected():
    # a poisson response too large for the IRLS start would overflow exp;
    # fabricate by passing an absurd offset scale
    g = build_lattice(3, 3)
    X = lattice_design(g)
    Z = np.full(9, 1.0)
    spec = ModelSpec("poisson", "nonspatial")
    cfg = McmcConfig(iterations=100, burn_in=10, seed=0)
    # force a bad start: direct call with glm_fit carrying a huge beta
    from sglmm.glm import GlmFit

    bad = GlmFit(
        beta_hat=np.array([800.0, 800.0]),
        cov_hat=np.eye(2),
        sigma2_hat=None,
        iterations=1,
        converged=True,
        trace=(0.0,),
    )
    with pytest.raises(ValueError, match="non-finite"):
        fit(spec, Dataset(X=X, Z=Z), None, cfg, glm_fit=bad)


def test_fit_chains_split_streams():
    sim = simulate_dataset(seed=29, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=4)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=3, seed=30)
    chains = fit_chains(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg, 3)
    assert len(chains) == 3
    seeds = {c.seed for c in chains}
    assert len(seeds) == 3
    # different streams produce different draws
    assert not np.array_equal(chains[0].draws["beta"], chains[1].draws["beta"])
    # and the whole ensemble is reproducible
    again = fit_chains(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg, 3)
    for c1, c2 in zip(chains, again):
        assert np.array_equal(c1.draws["beta"], c2.draws["beta"])


@pytest.fixture
def two_cpus(monkeypatch):
    # fit_chains starts one worker per usable CPU; two make it run the
    # worker pool on any host that can fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_fit_chains_in_workers_match_serial_fits(two_cpus):
    # three chains on two workers
    sim = simulate_dataset(seed=29, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=4)
    data = Dataset(X=sim.X, Z=sim.Z)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=3, seed=30)
    chains = fit_chains(spec, data, sim.basis, cfg, 3)
    assert multiprocessing.active_children() == []
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    for chain, child in zip(chains, children):
        alone = fit(spec, data, sim.basis, replace(cfg, seed=int(child.generate_state(1)[0])))
        assert chain.seed == alone.seed
        assert chain.names == alone.names
        assert chain.matrix().tobytes() == alone.matrix().tobytes()
        assert chain.acceptance_rates == alone.acceptance_rates
        assert chain.step_sizes == alone.step_sizes


def test_fit_chains_streams_every_row_in_calling_process(two_cpus):
    # the streams append to lists of this process, which a worker could not
    sim = simulate_dataset(seed=31, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=4)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=5, seed=33)
    rows = [[], []]
    streams = [lambda names, row, out=out: out.append((names, row.copy())) for out in rows]
    chains = fit_chains(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg, 2, streams=streams)
    for chain, out in zip(chains, rows):
        assert len(out) == chain.n_draws
        assert all(names == chain.names for names, _ in out)
        assert np.array_equal(np.array([row for _, row in out]), chain.matrix())


def test_fit_chains_raises_worker_failure(two_cpus):
    g = _islands_20x20()
    X = lattice_design(g)
    cfg = McmcConfig(iterations=100, burn_in=10, seed=45)
    with pytest.raises(RuntimeError, match="not positive definite"):
        fit_chains(ModelSpec("gaussian", "rhz"), Dataset(X=X, Z=np.zeros(400)),
                   rhz_basis(X, g), cfg, 2, prior_only=True)
    assert multiprocessing.active_children() == []


def test_stream_receives_every_retained_draw():
    sim = simulate_dataset(seed=31, rows=5, cols=5, q=4, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=4)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thin=5, seed=32)
    rows = []
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg,
                stream=lambda names, row: rows.append((names, row.copy())))
    assert len(rows) == chain.n_draws
    assert rows[0][0] == chain.names
    stacked = np.array([r[1] for r in rows])
    assert np.allclose(stacked, chain.matrix())
