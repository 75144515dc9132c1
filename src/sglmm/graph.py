"""Areal adjacency graphs and their CAR precision matrices.

A graph holds the neighborhood structure of a set of areal units. Adjacency
is stored sparsely (edge list plus degree array); dense matrices are
materialized only where spectral routines need them. Vertex indices are
0-based everywhere, including files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "PrecisionMatrix",
    "build_lattice",
    "graph_from_edges",
    "laplacian",
    "read_edge_list",
    "write_edge_list",
    "read_coords",
    "write_coords",
]


@dataclass(frozen=True)
class Graph:
    """Undirected areal graph: n vertices, unique edges (i, j) with i < j.

    Immutable after construction and safe to share across threads. Optional
    per-vertex planar coordinates (generated lattices place them in the unit
    square).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    coords: np.ndarray | None = None
    degrees: np.ndarray = field(init=False, repr=False)
    _adjacency: sp.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "degrees", np.bincount(e.reshape(-1), minlength=self.n))
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        data = np.ones(rows.size, dtype=np.int64)
        A = sp.csr_array((data, (rows, cols)), shape=(self.n, self.n))
        for part in (A.data, A.indices, A.indptr):
            part.flags.writeable = False  # shared by every caller
        object.__setattr__(self, "_adjacency", A)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_array:
        """Sparse symmetric 0/1 adjacency matrix A, built once; do not modify it."""
        return self._adjacency

    def dense_adjacency(self) -> np.ndarray:
        """Dense float adjacency; for use inside spectral routines only."""
        return self.adjacency().astype(float).toarray()

    def n_components(self) -> int:
        ncomp, _ = connected_components(self.adjacency(), directed=False)
        return int(ncomp)


@dataclass(frozen=True)
class PrecisionMatrix:
    """CAR precision Q = diag(A1) - A with its rank (n minus component count).

    Row sums of Q are exactly zero: Q is assembled in integer arithmetic
    before conversion to float. Q is positive semidefinite and singular;
    rank = n - 1 for a connected graph.
    """

    Q: sp.csr_array
    rank: int

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def dense(self) -> np.ndarray:
        return self.Q.astype(float, copy=False).toarray()

    def quadratic_form(self, w: np.ndarray) -> float:
        """w' Q w, at cost proportional to the edge count."""
        return float(w @ (self.Q @ w))


def build_lattice(rows: int, cols: int) -> Graph:
    """Rook-adjacency lattice on rows x cols vertices.

    Vertex (r, c) has index r*cols + c and coordinate
    (c/(cols-1), r/(rows-1)); a single row or column maps to 0.5. Edge count
    is rows*(cols-1) + cols*(rows-1).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice dimensions must be >= 1, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    xs = np.tile([c / (cols - 1) if cols > 1 else 0.5 for c in range(cols)], rows)
    ys = np.repeat([r / (rows - 1) if rows > 1 else 0.5 for r in range(rows)], cols)
    coords = np.column_stack([xs, ys])
    return Graph(n=rows * cols, edges=tuple(edges), coords=coords)


def graph_from_edges(n: int, edges, coords=None) -> Graph:
    """Validated graph from an edge list.

    Rejects self-loops, duplicate edges (unordered), and out-of-range
    indices, naming the offending entry.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    seen = set()
    canonical = []
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        if not (0 <= i < n) or not (0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has a vertex index outside [0, {n})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        canonical.append(key)
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (n, 2):
            raise ValueError(f"coords must have shape ({n}, 2), got {coords.shape}")
    return Graph(n=n, edges=tuple(sorted(canonical)), coords=coords)


def laplacian(g: Graph) -> PrecisionMatrix:
    """Graph Laplacian Q = diag(A1) - A as a CAR precision matrix."""
    A = g.adjacency()
    Q = sp.diags_array(g.degrees, format="csr", dtype=float) - A
    rank = g.n - g.n_components()
    return PrecisionMatrix(Q=sp.csr_array(Q), rank=rank)


def write_edge_list(path, g: Graph) -> None:
    """Edge-list file: header "n m", then m lines "i j" with i < j."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.n_edges}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; '#' begins a comment line."""
    lines = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            lines.append((lineno, text))
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{lineno}: header must be 'n m', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    edges = []
    for lineno, text in lines[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {text!r}")
        i, j = int(parts[0]), int(parts[1])
        if i >= j:
            raise ValueError(f"{path}:{lineno}: edges must satisfy i < j, got {i} {j}")
        edges.append((i, j))
    if len(edges) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edges)}")
    return graph_from_edges(n, edges)


def write_coords(path, coords: np.ndarray) -> None:
    coords = np.asarray(coords, dtype=float)
    with open(path, "w") as fh:
        for x, y in coords:
            fh.write(f"{x:.17g} {y:.17g}\n")


def read_coords(path, n: int | None = None) -> np.ndarray:
    """Coordinate file: one "x y" line per vertex."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {text!r}")
            rows.append((float(parts[0]), float(parts[1])))
    coords = np.asarray(rows, dtype=float)
    if n is not None and coords.shape[0] != n:
        raise ValueError(f"{path}: expected {n} coordinate rows, found {coords.shape[0]}")
    return coords
