"""Tests of the benchmark's own estimators: python3 -m pytest bench"""

import numpy as np
import pytest

from estimators import ess, glm_fit, rao_blackwell_beta_mean, summary_recompute
from run import span_metrics


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ess_matches_ar1_closed_form(phi):
    n = 100_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert ess(ar1(phi, n, seed=1)) == pytest.approx(expected, rel=0.1)


def test_ess_of_constant_chain_is_zero():
    assert ess(np.full(500, 3.0)) == 0.0


def test_summary_recompute_type7_bounds():
    draws = np.column_stack([np.arange(1.0, 6.0), 10.0 * np.arange(1.0, 6.0)])
    mean, lo, hi = summary_recompute(draws, level=0.95)
    # type 7: position (N - 1) p between order statistics, here 0.1 and 3.9
    np.testing.assert_allclose(mean, [3.0, 30.0])
    np.testing.assert_allclose(lo, [1.1, 11.0])
    np.testing.assert_allclose(hi, [4.9, 49.0])


def test_rao_blackwell_mean_orthonormal_design():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    Z = np.array([2.0, 4.0, 7.0])
    got = rao_blackwell_beta_mean(X, Z, np.array([1.0, 4.0]), beta_variance=100.0)
    # X'X = I: E[beta | s2] = X'Z / (1 + s2 / 100)
    expected = np.array([2.0, 4.0]) * (1.0 / 1.01 + 1.0 / 1.04) / 2.0
    np.testing.assert_allclose(got, expected)


def test_glm_fit_poisson_intercept_with_offset_closed_form():
    rng = np.random.default_rng(3)
    E = rng.integers(10, 100, size=200).astype(float)
    Z = rng.poisson(0.05 * E).astype(float)
    beta, se = glm_fit("poisson", np.ones((200, 1)), Z, offset=E)
    assert beta[0] == pytest.approx(np.log(Z.sum() / E.sum()), abs=1e-9)
    assert se[0] == pytest.approx(1.0 / np.sqrt(Z.sum()), rel=1e-6)


def test_self_time_subtracts_union_of_top_level_spans():
    main = 7
    spans = [
        ["io.read_table", 0.0, 1.0, None, main],
        ["sampler.fit", 0.5, 2.0, None, main],
        ["io.chain_write", 0.6, 0.7, 1, main],
        ["sampler.fit", 0.0, 4.5, None, 8],  # a chain thread: not the command's own child
        ["io.write_table", 3.0, 4.0, None, main],
    ]
    out = span_metrics({"spans": spans, "wall_s": 5.0, "main_thread": main})
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["io.read_table_s"] == pytest.approx(1.0)
    assert out["io.chain_write_s"] == pytest.approx(0.1)
