"""Checks on the files one `sglmm fit` command wrote, made apart from the program.

Every workload: each chain CSV has the expected header and row count, every
draw is finite and tau (and sigma2) positive; the summary JSON's means and
equal-tailed bounds equal numpy's recomputation from the chain CSV; the
fitted CSV has one finite row per area; the manifest names the chain files.

Per workload, against the method's own properties:

* gaussian-rhz: X'L = 0, so the chain mean of beta must match the
  Rao-Blackwell mean within ``_RB_MCSE`` Monte Carlo standard errors;
* binary-traditional: spatial confounding inflates the beta.x interval
  beyond the nonspatial GLM's;
* binary-sparse, county-poisson: the Moran effects are orthogonal to the
  design, so the beta intervals stay within ``_SPARSE_RATIO`` of the GLM's;
* county-poisson: the fitted rates are closer to the true rates than the
  GLM's.

``check_fit`` returns the list of failures (empty when all pass) and the
loaded chains.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from estimators import ess, glm_fit, rao_blackwell_beta_mean, summary_recompute

_RB_MCSE = 5.0
_SPARSE_RATIO = (0.5, 3.0)
_LEVEL = 0.95


def read_chain(path):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def output_paths(prefix: str, chains: int):
    """(chain CSV, summary JSON, fitted CSV) for each chain, as `sglmm fit` names them."""
    if chains == 1:
        return [(f"{prefix}_chain.csv", f"{prefix}_summary.json", f"{prefix}_fitted.csv")]
    return [
        (f"{prefix}_chain_{i}.csv", f"{prefix}_summary_{i}.json", f"{prefix}_{i}_fitted.csv")
        for i in range(chains)
    ]


def _expected_names(w, inp):
    p = inp.design.shape[1]
    k = {"sparse": w.q, "rhz": inp.n - p, "traditional": inp.n}[w.model]
    return (
        [f"beta.{nm}" for nm in inp.design_names]
        + [f"effect.{i}" for i in range(k)]
        + ["tau"]
        + (["sigma2"] if w.family == "gaussian" else [])
    )


def _interval_ratio(draws, se):
    lo, hi = np.quantile(draws, [(1 - _LEVEL) / 2, (1 + _LEVEL) / 2], axis=0)
    return (hi - lo) / (2 * 1.959963984540054 * se)


def check_fit(w, inp, prefix: str):
    failures = []
    names = _expected_names(w, inp)
    n_rows = (w.iterations - w.burn_in) // w.thin
    p = inp.design.shape[1]
    chains = []
    with open(f"{prefix}_manifest.json") as fh:
        manifest = json.load(fh)
    paths = output_paths(prefix, w.chains)
    if manifest.get("chain_files") != [c for c, _, _ in paths]:
        failures.append(f"manifest chain_files {manifest.get('chain_files')}")

    glm_beta, glm_se = (None, None) if w.family == "gaussian" else glm_fit(
        w.family, inp.design, inp.response, inp.exposure)

    for chain_path, summary_path, fitted_path in paths:
        header, draws = read_chain(chain_path)
        tag = os.path.basename(chain_path)
        if header != names or draws.shape != (n_rows, len(names)):
            failures.append(f"{tag}: shape {draws.shape}, expected ({n_rows}, {len(names)})")
            continue
        if not np.all(np.isfinite(draws)):
            failures.append(f"{tag}: non-finite draws")
            continue
        if np.any(draws[:, names.index("tau")] <= 0):
            failures.append(f"{tag}: tau <= 0")
        if "sigma2" in names and np.any(draws[:, names.index("sigma2")] <= 0):
            failures.append(f"{tag}: sigma2 <= 0")
        chains.append(draws)

        with open(summary_path) as fh:
            params = json.load(fh)["params"]
        mean, lo, hi = summary_recompute(draws, _LEVEL)
        scale = 1e-12 * np.max(np.abs(draws), axis=0)
        for key, ref in (("mean", mean), ("eqt_lo", lo), ("eqt_hi", hi)):
            got = np.array([params[nm][key] for nm in names])
            bad = ~np.isclose(got, ref, rtol=1e-9, atol=0.0) & (np.abs(got - ref) > scale)
            if np.any(bad):
                j = int(np.argmax(bad))
                failures.append(f"{tag}: summary {names[j]} {key} {got[j]!r} != {ref[j]!r}")

        fitted = np.loadtxt(fitted_path, delimiter=",", skiprows=1, ndmin=2)[:, -1]
        if fitted.shape != (inp.n,) or not np.all(np.isfinite(fitted)):
            failures.append(f"{os.path.basename(fitted_path)}: shape {fitted.shape} or non-finite")
            continue
        if w.name == "county-poisson":
            rate_err = np.linalg.norm(fitted / inp.exposure - inp.truth)
            glm_err = np.linalg.norm(np.exp(inp.design @ glm_beta) - inp.truth)
            if not rate_err < glm_err:
                failures.append(f"{tag}: rate error {rate_err:.4g} not below GLM's {glm_err:.4g}")

    if failures:
        return failures, chains

    if w.family == "gaussian":
        for draws in chains:
            beta = draws[:, :p]
            rb = rao_blackwell_beta_mean(inp.design, inp.response, draws[:, -1])
            mcse = beta.std(axis=0) / np.sqrt([ess(beta[:, j]) for j in range(p)])
            z = np.abs(beta.mean(axis=0) - rb) / mcse
            if np.any(z > _RB_MCSE):
                failures.append(f"beta mean off the Rao-Blackwell mean by {np.max(z):.2f} MCSE")
    else:
        for draws in chains:
            ratio = _interval_ratio(draws[:, :p], glm_se)
            if w.model == "traditional":
                jx = inp.design_names.index("x")
                if not ratio[jx] > 1.0:
                    failures.append(f"beta.x interval {ratio[jx]:.2f}x the GLM's, expected wider")
            elif np.any(ratio < _SPARSE_RATIO[0]) or np.any(ratio > _SPARSE_RATIO[1]):
                failures.append(f"beta interval ratios {np.round(ratio, 2)} outside {_SPARSE_RATIO}")
    return failures, chains
