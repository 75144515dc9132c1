"""Seeded inputs for the benchmark workloads, made without the program.

Each workload is an areal graph, a design, a known spatial surface and a
response, written in the program's file formats: an edge-list file (header
``n m``, then ``i j`` with i < j, 0-based) and a numeric CSV table with a
header row and 17 significant digits. The graphs, surfaces and responses
are built here with numpy and scipy alone, so the truth the checks use is
known apart from the program.

Lattice vertex (r, c) has index r*cols + c and coordinate
(c/(cols-1), r/(rows-1)). The county-like graph is the Delaunay
triangulation of uniform points in the unit square.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay


@dataclass(frozen=True)
class Workload:
    """One `sglmm fit` configuration and the make-up of its inputs."""

    name: str
    family: str
    model: str
    graph: str  # "lattice" or "delaunay"
    size: tuple  # (rows, cols) for a lattice, (n,) for delaunay
    q: int | None
    chains: int
    iterations: int
    burn_in: int
    thin: int
    intercept: bool = False
    offset: bool = False
    beta: tuple = (1.0, 1.0)
    surface_sd: float = 1.0
    sigma2: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="binary-sparse",
            family="bernoulli",
            model="sparse",
            graph="lattice",
            size=(30, 30),
            q=50,
            chains=2,
            iterations=10_000,
            burn_in=2_500,
            thin=10,
        ),
        Workload(
            name="binary-traditional",
            family="bernoulli",
            model="traditional",
            graph="lattice",
            size=(30, 30),
            q=None,
            chains=1,
            iterations=5_000,
            burn_in=1_000,
            thin=10,
        ),
        Workload(
            name="gaussian-rhz",
            family="gaussian",
            model="rhz",
            graph="lattice",
            size=(20, 20),
            q=None,
            chains=1,
            iterations=700,
            burn_in=100,
            thin=2,
            sigma2=1.0,
        ),
        Workload(
            name="county-poisson",
            family="poisson",
            model="sparse",
            graph="delaunay",
            size=(3000,),
            q=100,
            chains=1,
            iterations=8_000,
            burn_in=2_000,
            thin=10,
            intercept=True,
            offset=True,
            beta=(-4.0, 0.5, -0.5),
            surface_sd=0.3,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated arrays; ``truth`` is the mean of the response (rate for Poisson)."""

    n: int
    edges: np.ndarray  # (m, 2), i < j
    design: np.ndarray  # (n, p)
    design_names: tuple
    response: np.ndarray
    exposure: np.ndarray | None
    truth: np.ndarray


def workload_rng(name: str, seed: int) -> np.random.Generator:
    """Generator for one workload; the same (name, seed) gives the same stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def lattice(rows: int, cols: int):
    """Rook lattice edges (i < j) and unit-square coordinates."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    edges = np.vstack([horiz, vert])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    xs = np.tile(np.arange(cols) / (cols - 1), rows)
    ys = np.repeat(np.arange(rows) / (rows - 1), cols)
    return edges, np.column_stack([xs, ys])


def delaunay_graph(rng: np.random.Generator, n: int):
    """Edges of the Delaunay triangulation of n uniform points in the unit square."""
    pts = rng.random((n, 2))
    tri = Delaunay(pts).simplices
    pairs = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    pairs.sort(axis=1)
    edges = np.unique(pairs, axis=0)
    return edges, pts


def smooth_surface(rng: np.random.Generator, coords: np.ndarray, sd: float,
                   length_scale: float = 0.2, n_features: int = 40) -> np.ndarray:
    """Random-Fourier-feature field of the coordinates, centred and scaled to sd."""
    omega = rng.normal(0.0, 1.0 / length_scale, size=(n_features, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    amp = rng.normal(size=n_features)
    field = np.cos(coords @ omega.T + phase) @ amp
    field -= field.mean()
    return sd * field / field.std()


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = workload_rng(w.name, seed)
    if w.graph == "lattice":
        edges, coords = lattice(*w.size)
    else:
        edges, coords = delaunay_graph(rng, w.size[0])
    n = coords.shape[0]
    cols = [coords[:, 0], coords[:, 1]]
    names = ("x", "y")
    if w.intercept:
        cols.insert(0, np.ones(n))
        names = ("one",) + names
    X = np.column_stack(cols)
    surface = smooth_surface(rng, coords, w.surface_sd)
    eta = X @ np.asarray(w.beta) + surface
    exposure = None
    if w.family == "bernoulli":
        truth = 1.0 / (1.0 + np.exp(-eta))
        Z = (rng.random(n) < truth).astype(float)
    elif w.family == "poisson":
        truth = np.exp(eta)
        exposure = np.round(np.exp(rng.normal(5.0, 1.0, size=n))) + 1.0
        Z = rng.poisson(exposure * truth).astype(float)
    else:
        truth = eta
        Z = eta + rng.normal(0.0, np.sqrt(w.sigma2), size=n)
    return Inputs(n, edges, X, names, Z, exposure, truth)


def write_inputs(inp: Inputs, data_path: str, graph_path: str) -> None:
    """Edge-list and data CSV in the program's formats."""
    with open(graph_path, "w") as fh:
        fh.write(f"{inp.n} {inp.edges.shape[0]}\n")
        fh.write("".join(f"{i} {j}\n" for i, j in inp.edges))
    names = ["z", *inp.design_names]
    cols = [inp.response, *inp.design.T]
    if inp.exposure is not None:
        names.append("E")
        cols.append(inp.exposure)
    np.savetxt(data_path, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def fit_argv(w: Workload, data_path: str, graph_path: str, prefix: str, fit_seed: int) -> list:
    """Arguments of the `sglmm fit` command for one run of the workload."""
    argv = [
        "fit", "--model", w.model, "--family", w.family,
        "--data", data_path, "--graph", graph_path,
        "--iterations", str(w.iterations), "--burn-in", str(w.burn_in),
        "--thin", str(w.thin), "--seed", str(fit_seed),
        "--chains", str(w.chains), "--out-prefix", prefix,
    ]
    if w.q is not None:
        argv += ["--q", str(w.q)]
    if w.offset:
        argv += ["--offset-col", "E"]
    return argv
