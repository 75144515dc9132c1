"""Per-layer timings taken from outside the program on one workload's inputs.

Runs in the traced child process after the traced command, on the files the
command read. Each kernel is called repeatedly for at least ``_MIN_SECONDS``
and reported as the median of its repetitions. In this order:

* library ``fit`` at two chain lengths, 2 iterations and the workload's own
  length: the difference gives the marginal cost per iteration and the
  intercept the fixed cost before the first iteration;
* with more than one chain, the chains of ``fit_chains`` run one after
  another, against ``fit_chains`` itself;
* ``irls_fit`` on the workload's family, design, response and offset;
* ``update_w_univariate`` (one site sweep), ``gibbs_gaussian`` (one Gibbs
  sweep) and ``gibbs_tau`` on the workload's graph, basis and response.
  Each kernel is timed on every workload, at that workload's dimensions,
  whether or not its model calls the kernel.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from sglmm.basis import DesignMatrix, moran_basis, rhz_basis
from sglmm.cli import build_parser
from sglmm.glm import irls_fit
from sglmm.graph import laplacian, read_edge_list
from sglmm.io import read_table
from sglmm.model import Dataset, ModelSpec, ParameterState, car_exponent_dimension, car_precision
from sglmm.sampler import (
    McmcConfig,
    color_classes,
    conditional_scale,
    fit,
    fit_chains,
    gibbs_gaussian,
    gibbs_tau,
    update_w_univariate,
)

_MIN_SECONDS = 0.3
_MIN_REPEATS = 3


def _repeat(fn) -> float:
    """Median seconds per call of fn over at least _MIN_SECONDS."""
    times = []
    start = time.perf_counter()
    while len(times) < _MIN_REPEATS or time.perf_counter() - start < _MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _site_loglik(family, Z):
    if family == "bernoulli":
        return lambda idx, eta: Z[idx] * eta - np.logaddexp(0.0, eta)
    if family == "poisson":
        return lambda idx, eta: Z[idx] * eta - np.exp(eta)
    return lambda idx, eta: -0.5 * (Z[idx] - eta) ** 2


def _timed_fit(spec, data, basis, cfg) -> float:
    t0 = time.perf_counter()
    fit(spec, data, basis, cfg)
    return time.perf_counter() - t0


def measure(fit_argv) -> dict:
    args = build_parser().parse_args(fit_argv)
    table = read_table(args.data)
    g = read_edge_list(args.graph)
    offset = table[args.offset_col] if args.offset_col else None
    names = [nm for nm in table.names if nm not in ("z", args.offset_col)]
    X = DesignMatrix(table.matrix(names), names=tuple(names))
    Z = table["z"]
    family, model = args.family, args.model
    if model == "sparse":
        basis = moran_basis(X, g, q=args.q)
        B = basis.M
    elif model == "rhz":
        basis = rhz_basis(X, g)
        B = basis.L
    else:
        basis = laplacian(g)
        B = None
    spec = ModelSpec(family=family, parameterization=model, q=args.q, offset=offset)
    data = Dataset(X=X, Z=Z)
    out = {}

    # the chain lengths run first: after the kernels below, the same fit ran
    # up to 1.4x slower per iteration on gaussian-rhz
    cfg = McmcConfig(iterations=args.iterations, burn_in=args.burn_in, thin=args.thin,
                     seed=args.seed)
    short = McmcConfig(iterations=2, burn_in=1, thin=1, seed=args.seed)
    t_short = statistics.median(_timed_fit(spec, data, basis, short) for _ in range(3))
    t_long = _timed_fit(spec, data, basis, cfg)
    iter_s = (t_long - t_short) / (cfg.iterations - short.iterations)
    out["sampler.iter_us"] = 1e6 * iter_s
    out["sampler.fit_setup_s"] = t_short - short.iterations * iter_s

    if args.chains > 1:
        children = np.random.SeedSequence(cfg.seed).spawn(args.chains)
        serial = sum(
            _timed_fit(spec, data, basis, replace(cfg, seed=int(c.generate_state(1)[0])))
            for c in children
        )
        t0 = time.perf_counter()
        fit_chains(spec, data, basis, cfg, args.chains)
        out["sampler.chains_speedup"] = serial / (time.perf_counter() - t0)
    else:
        out["sampler.chains_speedup"] = 1.0

    glm = irls_fit(family, X, Z, offset=offset)
    out["glm.irls_s"] = _repeat(lambda: irls_fit(family, X, Z, offset=offset))
    out["glm.irls_iterations"] = glm.iterations

    rng = np.random.default_rng(0)
    Q = laplacian(g)
    degrees = np.asarray(Q.Q.diagonal(), dtype=float)
    adjacency = g.adjacency().astype(float)
    classes = color_classes(g)
    eta0 = X.X @ glm.beta_hat + (np.log(offset) if offset is not None else 0.0)
    W = np.zeros(g.n)
    eta = eta0.copy()
    site_ll = _site_loglik(family, Z)
    scale = conditional_scale(1.0, 1.0, degrees)
    out["sampler.site_sweep_us"] = 1e6 * _repeat(
        lambda: update_w_univariate(
            rng, W, eta, 1.0, tau=1.0, adjacency=adjacency, degrees=degrees,
            classes=classes, site_loglik=site_ll, scale=scale,
        )
    )

    Q_B = car_precision(spec, basis)
    Q_B_dense = Q_B.toarray() if hasattr(Q_B, "toarray") else np.asarray(Q_B)
    k = Q_B_dense.shape[0]
    BtB = np.eye(k) if B is None else B.T @ B
    car_k = car_exponent_dimension(spec, X, basis)
    state = ParameterState(beta=np.zeros(X.p), effects=np.zeros(k), tau=1.0, sigma2=1.0)
    out["sampler.gibbs_gaussian_us"] = 1e6 * _repeat(
        lambda: gibbs_gaussian(
            rng, state, X=X, B=B, BtB=BtB, Q_B_dense=Q_B_dense, Q_B=Q_B,
            car_k=car_k, Z=Z, priors=spec.priors,
        )
    )
    batch = 1000
    out["sampler.gibbs_tau_us"] = 1e6 / batch * _repeat(
        lambda: [gibbs_tau(rng, spec.priors, car_k, 1.0) for _ in range(batch)]
    )

    return out
