import numpy as np
import pytest
import scipy.stats

from sglmm.basis import moran_basis, rhz_basis
from sglmm.graph import build_lattice, laplacian
from sglmm.model import (
    FAMILIES,
    FAMILY,
    Dataset,
    ModelSpec,
    ParameterState,
    PriorSet,
    effect_basis,
    linear_predictor,
    log_likelihood,
    log_prior,
)
from sglmm.simulate import lattice_design


@pytest.fixture(scope="module")
def small_problem():
    g = build_lattice(5, 5)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=4)
    return g, X, mb


def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="bernoulli, poisson, gaussian"):
        ModelSpec(family="binomial", parameterization="sparse", q=3)


def test_spec_requires_q_for_sparse_only():
    with pytest.raises(ValueError, match="q >= 1"):
        ModelSpec(family="poisson", parameterization="sparse")
    with pytest.raises(ValueError, match="only meaningful"):
        ModelSpec(family="poisson", parameterization="rhz", q=5)


def test_spec_offset_poisson_only():
    with pytest.raises(ValueError, match="poisson"):
        ModelSpec(family="bernoulli", parameterization="nonspatial", offset=np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        ModelSpec(family="poisson", parameterization="nonspatial", offset=np.array([1.0, 0.0]))


def test_priors_positive():
    with pytest.raises(ValueError, match="tau_scale"):
        PriorSet(tau_scale=-1)


def test_linear_predictor_zero_state(small_problem):
    g, X, mb = small_problem
    spec = ModelSpec("bernoulli", "sparse", q=4)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(4))
    assert np.array_equal(linear_predictor(spec, X, mb, state), np.zeros(25))


def test_linear_predictor_offset_only(small_problem):
    g, X, mb = small_problem
    births = np.linspace(10, 50, 25)
    spec = ModelSpec("poisson", "sparse", q=4, offset=births)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(4))
    assert np.allclose(linear_predictor(spec, X, mb, state), np.log(births))


def test_linear_predictor_traditional_adds_w(small_problem):
    g, X, _ = small_problem
    spec = ModelSpec("gaussian", "traditional")
    rng = np.random.default_rng(0)
    beta = rng.standard_normal(2)
    W = rng.standard_normal(25)
    state = ParameterState(beta=beta, effects=W, sigma2=1.0)
    eta = linear_predictor(spec, X, laplacian(g), state)
    assert np.allclose(eta, X.X @ beta + W)


def test_linear_predictor_rejects_offset_of_wrong_shape(small_problem):
    # a length-1 offset is not broadcast to every site
    g, X, mb = small_problem
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(4))
    for offset in ([5.0], np.ones(24), np.ones((25, 1))):
        spec = ModelSpec("poisson", "sparse", q=4, offset=offset)
        with pytest.raises(ValueError, match="offset must have length 25"):
            linear_predictor(spec, X, mb, state)


def test_linear_predictor_dimension_check(small_problem):
    g, X, mb = small_problem
    spec = ModelSpec("bernoulli", "sparse", q=4)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(3))
    with pytest.raises(ValueError, match="effects"):
        linear_predictor(spec, X, mb, state)


def test_loglik_bernoulli_half():
    spec = ModelSpec("bernoulli", "nonspatial")
    assert log_likelihood(spec, np.array([1.0]), np.array([0.0])) == pytest.approx(np.log(0.5))


def test_loglik_poisson_unit_rate_zero_count():
    spec = ModelSpec("poisson", "nonspatial")
    assert log_likelihood(spec, np.array([0.0]), np.array([0.0])) == pytest.approx(-1.0)


def test_loglik_gaussian_at_mean():
    spec = ModelSpec("gaussian", "nonspatial")
    n = 7
    mu = np.linspace(-1, 1, n)
    val = log_likelihood(spec, mu, mu, sigma2=1.0)
    assert val == pytest.approx(-0.5 * n * np.log(2 * np.pi))


def test_loglik_matches_scipy_scalar_densities():
    # independent oracle: sum of scalar log densities from scipy.stats
    rng = np.random.default_rng(12)
    n = 100
    eta = rng.normal(scale=2.0, size=n)

    spec = ModelSpec("bernoulli", "nonspatial")
    z = rng.integers(0, 2, n).astype(float)
    p = 1 / (1 + np.exp(-eta))
    oracle = sum(scipy.stats.bernoulli.logpmf(int(zi), pi) for zi, pi in zip(z, p))
    assert log_likelihood(spec, z, eta) == pytest.approx(oracle, abs=1e-10)

    spec = ModelSpec("poisson", "nonspatial")
    z = rng.poisson(np.exp(eta)).astype(float)
    oracle = sum(scipy.stats.poisson.logpmf(int(zi), li) for zi, li in zip(z, np.exp(eta)))
    assert log_likelihood(spec, z, eta) == pytest.approx(oracle, abs=1e-10)

    spec = ModelSpec("gaussian", "nonspatial")
    z = eta + rng.standard_normal(n)
    oracle = sum(scipy.stats.norm.logpdf(zi, mi, np.sqrt(1.7)) for zi, mi in zip(z, eta))
    assert log_likelihood(spec, z, eta, sigma2=1.7) == pytest.approx(oracle, abs=1e-10)


def test_loglik_bernoulli_stable_at_extreme_eta():
    spec = ModelSpec("bernoulli", "nonspatial")
    eta = np.array([-700.0, -100.0, 0.0, 100.0, 700.0])
    z = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    assert np.isfinite(log_likelihood(spec, z, eta))


def test_loglik_rejects_invalid_response():
    spec = ModelSpec("bernoulli", "nonspatial")
    with pytest.raises(ValueError, match="entry 1"):
        log_likelihood(spec, np.array([0.0, 2.0]), np.zeros(2))
    spec = ModelSpec("poisson", "nonspatial")
    with pytest.raises(ValueError, match="entry 0"):
        log_likelihood(spec, np.array([-1.0]), np.zeros(1))


def _responses(family, rng, eta):
    if family == "bernoulli":
        return rng.integers(0, 2, eta.shape[0]).astype(float)
    if family == "poisson":
        return rng.integers(0, 40, eta.shape[0]).astype(float)
    return eta + 50.0 * rng.standard_normal(eta.shape[0])


@pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_site_terms_sum_to_the_total_loglik(family, scale):
    fam = FAMILY[family]
    rng = np.random.default_rng(int(scale))
    eta = rng.uniform(-scale, scale, 300)
    Z = _responses(family, rng, eta)
    with np.errstate(over="ignore"):
        total = fam.loglik(Z, eta, 1.7)
        sites = fam.site_loglik(Z, eta, 1.7)
    if family == "poisson" and eta.max() > np.log(np.finfo(float).max):
        assert total == -np.inf and sites.sum() == -np.inf
    else:
        assert sites.sum() == pytest.approx(total, rel=1e-12)


def test_effect_basis_per_parameterization(small_problem):
    g, X, mb = small_problem
    Q, rb = laplacian(g), rhz_basis(X, g)
    assert effect_basis(ModelSpec("poisson", "nonspatial"), None) is None
    cases = (("traditional", Q, None, 25, 24), ("rhz", rb, rb.L, 23, 23), ("sparse", mb, mb.M, 4, 4))
    for parameterization, basis, B, k, car_rank in cases:
        spec = ModelSpec("poisson", parameterization, q=4 if parameterization == "sparse" else None)
        eb = effect_basis(spec, basis)
        assert eb.B is B and (eb.k, eb.car_rank) == (k, car_rank)


def test_log_prior_zero_effects_tau_one(small_problem):
    g, X, mb = small_problem
    spec = ModelSpec("bernoulli", "sparse", q=4)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(4), tau=1.0)
    base = log_prior(spec, X, mb, state)
    # at tau=1, delta=0 the CAR factor contributes (q/2) log 1 = 0; the
    # functional form in tau is (q/2 + shape - 1) log tau - tau/scale
    state2 = ParameterState(beta=np.zeros(2), effects=np.zeros(4), tau=2.0)
    diff = log_prior(spec, X, mb, state2) - base
    pr = spec.priors
    expected = (4 / 2 + pr.tau_shape - 1) * np.log(2.0) - 1.0 / pr.tau_scale
    assert diff == pytest.approx(expected, abs=1e-12)


def test_log_prior_tau_exponent_is_car_dimension(small_problem):
    g, X, mb = small_problem
    rng = np.random.default_rng(4)

    # doubling tau with zero effects moves the CAR term by (k/2) log 2
    for parameterization, basis, k in (
        ("sparse", mb, 4),
        ("rhz", rhz_basis(X, g), 23),
        ("traditional", laplacian(g), 24),
    ):
        spec = ModelSpec("bernoulli", parameterization, q=4 if parameterization == "sparse" else None)
        z = np.zeros({"sparse": 4, "rhz": 23, "traditional": 25}[parameterization])
        s1 = ParameterState(beta=np.zeros(2), effects=z, tau=1.0)
        s2 = ParameterState(beta=np.zeros(2), effects=z, tau=2.0)
        diff = log_prior(spec, X, basis, s2) - log_prior(spec, X, basis, s1)
        pr = spec.priors
        gamma_part = (pr.tau_shape - 1) * np.log(2.0) - 1.0 / pr.tau_scale
        assert diff - gamma_part == pytest.approx((k / 2) * np.log(2.0), abs=1e-12)


def test_log_prior_traditional_exponent_899_on_30x30():
    g = build_lattice(30, 30)
    X = lattice_design(g)
    Q = laplacian(g)
    assert Q.rank == 899
    spec = ModelSpec("bernoulli", "traditional")
    s1 = ParameterState(beta=np.zeros(2), effects=np.zeros(900), tau=1.0)
    s2 = ParameterState(beta=np.zeros(2), effects=np.zeros(900), tau=np.e)
    diff = log_prior(spec, X, Q, s2) - log_prior(spec, X, Q, s1)
    pr = spec.priors
    gamma_part = (pr.tau_shape - 1) * 1.0 - (np.e - 1.0) / pr.tau_scale
    assert diff - gamma_part == pytest.approx(899 / 2, abs=1e-9)


def test_log_prior_differences_match_independent_formula(small_problem):
    # two implementations of the log-prior difference must agree no matter
    # which parameter-free constants each drops
    g, X, mb = small_problem
    spec = ModelSpec("gaussian", "sparse", q=4)
    pr = spec.priors
    rng = np.random.default_rng(8)

    def independent_diff(s_a, s_b):
        def term(s):
            quad = float(s.effects @ mb.Q_S @ s.effects)
            return (
                -0.5 * float(s.beta @ s.beta) / pr.beta_variance
                + 0.5 * 4 * np.log(s.tau)
                - 0.5 * s.tau * quad
                + (pr.tau_shape - 1) * np.log(s.tau)
                - s.tau / pr.tau_scale
                - (pr.sigma2_shape + 1) * np.log(s.sigma2)
                - pr.sigma2_rate / s.sigma2
            )

        return term(s_a) - term(s_b)

    for _ in range(5):
        s_a = ParameterState(
            beta=rng.standard_normal(2),
            effects=rng.standard_normal(4),
            tau=float(rng.gamma(2.0, 2.0)),
            sigma2=float(rng.gamma(2.0, 1.0)),
        )
        s_b = ParameterState(
            beta=rng.standard_normal(2),
            effects=rng.standard_normal(4),
            tau=float(rng.gamma(2.0, 2.0)),
            sigma2=float(rng.gamma(2.0, 1.0)),
        )
        mine = log_prior(spec, X, mb, s_a) - log_prior(spec, X, mb, s_b)
        assert mine == pytest.approx(independent_diff(s_a, s_b), abs=1e-10)


def test_log_prior_rejects_nonpositive_tau(small_problem):
    g, X, mb = small_problem
    spec = ModelSpec("bernoulli", "sparse", q=4)
    state = ParameterState(beta=np.zeros(2), effects=np.zeros(4), tau=-1.0)
    with pytest.raises(ValueError, match="tau"):
        log_prior(spec, X, mb, state)


def test_dataset_checks_length(small_problem):
    g, X, mb = small_problem
    with pytest.raises(ValueError, match="length 25"):
        Dataset(X=X, Z=np.zeros(24))
