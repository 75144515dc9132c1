import numpy as np
import pytest

from sglmm.basis import moran_basis, rhz_basis
from sglmm.graph import build_lattice, laplacian
from sglmm.model import Dataset, ModelSpec
from sglmm.sampler import Chain, McmcConfig, fit
from sglmm.simulate import lattice_design, simulate_dataset
from sglmm.summary import (
    effect_correlations,
    equal_tailed_interval,
    error_norm,
    fitted_surface,
    hpd_interval,
    mcse,
    summarize_chain,
    summarize_draws,
)


def make_chain(draws_dict, names, spec=None):
    # the chain's one (draws, params) array: the blocks side by side in the
    # order beta, effects, tau, sigma2; without names, the beta and effect
    # columns are numbered
    if not names:
        names = [f"beta.{i}" for i in range(draws_dict["beta"].shape[1])]
        names += [f"effect.{i}" for i in range(draws_dict["effects"].shape[1])]
    blocks = ("beta", "effects", "tau", "sigma2")
    return Chain(
        values=np.column_stack([draws_dict[key] for key in blocks if key in draws_dict]),
        names=tuple(names),
        acceptance_rates={},
        wall_time=0.0,
        seed=0,
        spec=spec,
        config=McmcConfig(iterations=200, burn_in=100, thin=1, seed=0),
    )


def test_constant_draws_degenerate_summary():
    s = summarize_draws(np.full(500, 3.25))
    assert s.mean == 3.25
    assert (s.eqt_lo, s.eqt_hi) == (3.25, 3.25)
    assert (s.hpd_lo, s.hpd_hi) == (3.25, 3.25)
    assert s.mcse == 0.0


def test_equal_tailed_type7_convention():
    # draws 1..1000: type-7 quantiles interpolate order statistics at
    # h = (N-1) p + 1, giving 25.975 and 975.025
    draws = np.arange(1.0, 1001.0)
    lo, hi = equal_tailed_interval(draws, 0.95)
    assert lo == pytest.approx(25.975)
    assert hi == pytest.approx(975.025)


def test_hpd_on_uniform_grid():
    draws = np.arange(1.0, 1001.0)
    lo, hi = hpd_interval(draws, 0.95)
    # ceil(0.95 * 1000) = 950 consecutive draws; every window ties at 949
    assert hi - lo == pytest.approx(949.0)


def test_hpd_close_to_equal_tailed_for_symmetric_samples():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(100_000)
    eq = equal_tailed_interval(draws)
    hp = hpd_interval(draws)
    assert hp[0] == pytest.approx(eq[0], abs=0.05)
    assert hp[1] == pytest.approx(eq[1], abs=0.05)


def test_hpd_never_wider_than_equal_tailed():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(50, 2000))
        kind = rng.integers(0, 3)
        if kind == 0:
            draws = rng.standard_normal(n)
        elif kind == 1:
            draws = rng.gamma(0.7, 2.0, n)  # skewed
        else:
            draws = np.concatenate([rng.normal(-3, 0.5, n // 2), rng.normal(3, 2.0, n - n // 2)])
        for level in (0.5, 0.9, 0.95, 0.99):
            eq = equal_tailed_interval(draws, level)
            hp = hpd_interval(draws, level)
            assert hp[1] - hp[0] <= (eq[1] - eq[0]) + 1e-12


def test_hpd_finds_concentrated_mode():
    rng = np.random.default_rng(1)
    draws = np.concatenate([rng.normal(0, 0.1, 9000), rng.uniform(-20, 20, 1000)])
    lo, hi = hpd_interval(draws, 0.9)
    assert hi - lo < 1.0  # mode region, not the uniform tails


def test_mcse_constant_zero():
    assert mcse(np.ones(1000)) == 0.0


def test_mcse_rejects_short():
    with pytest.raises(ValueError, match="100"):
        mcse(np.ones(99))


def test_mcse_iid_normal_scaling():
    # iid N(0,1): truth is sigma / sqrt(N) = 1e-3 at N = 1e6
    rng = np.random.default_rng(2)
    draws = rng.standard_normal(1_000_000)
    est = mcse(draws)
    assert est == pytest.approx(1e-3, rel=0.2)


def test_mcse_ar1_inflation():
    # AR(1) with phi = 0.9: asymptotic sd multiplies by sqrt((1+phi)/(1-phi))
    rng = np.random.default_rng(3)
    phi = 0.9
    n = 400_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    sigma = 1 / np.sqrt(1 - phi**2)
    expected = sigma / np.sqrt(n) * np.sqrt((1 + phi) / (1 - phi))
    assert mcse(x) == pytest.approx(expected, rel=0.25)


def test_summarize_chain_rejects_empty():
    chain = make_chain({"beta": np.empty((0, 1))}, ["beta.x0"])
    with pytest.raises(ValueError, match="empty"):
        summarize_chain(chain)


def test_summary_depends_only_on_retained_draws():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((400, 2))
    c1 = make_chain({"beta": draws}, ["beta.a", "beta.b"])
    c2 = make_chain({"beta": draws.copy()}, ["beta.a", "beta.b"])
    s1 = summarize_chain(c1)
    s2 = summarize_chain(c2)
    assert s1 == s2


@pytest.mark.parametrize("n_draws", [57, 100, 413])
@pytest.mark.parametrize("include_effects", [True, False])
def test_summarize_chain_equals_per_column_summaries(n_draws, include_effects):
    # the vectorized summary is exactly the per-column one, mean and
    # quantiles included, with and without the effect columns
    rng = np.random.default_rng(5)
    effects = np.cumsum(rng.standard_normal((n_draws, 6)), axis=0)
    effects[:, 0] = np.round(effects[:, 0])  # ties
    draws = {
        "beta": rng.standard_normal((n_draws, 2)) * [1e-3, 50.0],
        "effects": effects,
        "tau": rng.gamma(0.5, 2000.0, n_draws),
    }
    names = ["beta.a", "beta.b"] + [f"effect.{i}" for i in range(6)] + ["tau"]
    chain = make_chain(draws, names)
    fs = summarize_chain(chain, level=0.9, include_effects=include_effects)
    kept = [n for n in names if include_effects or not n.startswith("effect.")]
    assert list(fs.params) == kept
    mat = chain.matrix()
    for name in kept:
        col = mat[:, names.index(name)]
        s = fs.params[name]
        assert s == summarize_draws(col, level=0.9)
        assert s.mean == float(col.mean())
        assert (s.eqt_lo, s.eqt_hi) == equal_tailed_interval(col, level=0.9)
        assert (s.hpd_lo, s.hpd_hi) == hpd_interval(col, level=0.9)
        if n_draws >= 100:
            assert s.mcse == mcse(col)


@pytest.mark.parametrize("model", ["traditional", "rhz", "sparse"])
def test_fitted_surface_blocks_match_one_shot(model):
    # 437 sites: one full block of sites and a partial one, with an offset
    g = build_lattice(19, 23)
    X = lattice_design(g)
    if model == "traditional":
        basis, loading = laplacian(g), np.eye(g.n)
    elif model == "rhz":
        basis = rhz_basis(X, g)
        loading = basis.L
    else:
        basis = moran_basis(X, g, q=30)
        loading = basis.M
    rng = np.random.default_rng(6)
    offset = rng.uniform(0.5, 20.0, g.n)
    spec = ModelSpec("poisson", model, q=30 if model == "sparse" else None, offset=offset)
    beta = 0.3 * rng.standard_normal((210, 2))
    effects = 0.3 * rng.standard_normal((210, loading.shape[1]))
    chain = make_chain({"beta": beta, "effects": effects}, [], spec)
    eta = X.X @ beta.T + loading @ effects.T + np.log(offset)[:, None]
    expected = np.exp(eta).mean(axis=1)
    # a BLAS product over a block of rows may round differently in the last bit
    np.testing.assert_allclose(fitted_surface(chain, spec, X, basis), expected, rtol=1e-13)


def test_fitted_surface_single_draw_and_zero_norm():
    g = build_lattice(4, 4)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=3)
    spec = ModelSpec("bernoulli", "sparse", q=3)
    beta = np.array([[0.5, -0.5]])
    effects = np.array([[0.1, 0.0, -0.2]])
    chain = make_chain(
        {"beta": beta, "effects": effects, "tau": np.array([1.0])},
        [f"beta.{n}" for n in X.names] + [f"effect.{i}" for i in range(3)] + ["tau"],
        spec,
    )
    eta = X.X @ beta[0] + mb.M @ effects[0]
    expected = 1 / (1 + np.exp(-eta))
    fitted = fitted_surface(chain, spec, X, mb)
    assert np.allclose(fitted, expected)
    assert error_norm(fitted, fitted) == 0.0
    assert error_norm(fitted, expected) < 1e-12


def test_fitted_surface_with_offset():
    g = build_lattice(3, 3)
    X = lattice_design(g)
    births = np.linspace(5, 50, 9)
    spec = ModelSpec("poisson", "nonspatial", offset=births)
    beta = np.zeros((1, 2))
    chain = make_chain({"beta": beta}, ["beta.x", "beta.y"], spec)
    fitted = fitted_surface(chain, spec, X, None)
    assert np.allclose(fitted, births)


def test_error_norm_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        error_norm(np.zeros(3), np.zeros(4))


def test_effect_correlations_duplicated_coordinates():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(500)
    effects = np.column_stack([base, base, rng.standard_normal(500)])
    chain = make_chain(
        {"beta": np.zeros((500, 1)), "effects": effects},
        ["beta.x0", "effect.0", "effect.1", "effect.2"],
    )
    hist = effect_correlations(chain)
    assert hist.correlations.max() == pytest.approx(1.0)


def test_effect_correlations_independent_near_zero():
    rng = np.random.default_rng(6)
    n = 2000
    effects = rng.standard_normal((n, 10))
    chain = make_chain(
        {"beta": np.zeros((n, 1)), "effects": effects},
        ["beta.x0"] + [f"effect.{i}" for i in range(10)],
    )
    hist = effect_correlations(chain)
    # Fisher bound for iid samples
    assert np.all(np.abs(hist.correlations) < 4 / np.sqrt(n))


def test_effect_correlations_excludes_degenerate():
    rng = np.random.default_rng(7)
    effects = np.column_stack([np.full(300, 2.0), rng.standard_normal((300, 3))])
    chain = make_chain(
        {"beta": np.zeros((300, 1)), "effects": effects},
        ["beta.x0"] + [f"effect.{i}" for i in range(4)],
    )
    hist = effect_correlations(chain)
    assert hist.excluded == (0,)
    assert hist.n_pairs_total == 3


def test_effect_correlations_subsamples_large_problems():
    rng = np.random.default_rng(8)
    effects = rng.standard_normal((120, 500))  # 124750 pairs > 1e5
    chain = make_chain(
        {"beta": np.zeros((120, 1)), "effects": effects},
        ["beta.x0"] + [f"effect.{i}" for i in range(500)],
    )
    hist = effect_correlations(chain)
    assert hist.n_pairs_total == 500 * 499 // 2
    assert 10_000 <= hist.n_pairs_used < hist.n_pairs_total


def test_effect_correlations_uses_subsample_size_as_given():
    # a subsample smaller than the default is used as given, not raised to it
    rng = np.random.default_rng(8)
    effects = rng.standard_normal((120, 500))
    chain = make_chain(
        {"beta": np.zeros((120, 1)), "effects": effects},
        ["beta.x0"] + [f"effect.{i}" for i in range(500)],
    )
    hist = effect_correlations(chain, subsample_size=500)
    assert hist.n_pairs_used == 500
    assert hist.counts.sum() == 500


def test_sparse_fit_correlations_concentrate_near_zero():
    # reproduction-style check: the sparse model's effects are close to
    # a posteriori uncorrelated, so the correlation mass sits near 0
    sim = simulate_dataset(seed=11, rows=12, cols=12, q=30, tau=1.0, family="bernoulli")
    spec = ModelSpec("bernoulli", "sparse", q=30)
    cfg = McmcConfig(iterations=80_000, burn_in=16_000, thin=8, seed=9)
    chain = fit(spec, Dataset(X=sim.X, Z=sim.Z), sim.basis, cfg)
    hist = effect_correlations(chain)
    r = np.abs(hist.correlations)
    assert np.median(r) < 0.15
    assert np.mean(r < 0.3) > 0.9
