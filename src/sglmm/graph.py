"""Areal adjacency graphs and their CAR precision matrices.

A graph holds the neighborhood structure of a set of areal units. Adjacency
is stored sparsely (one integer edge array, the degrees and a CSR matrix);
dense matrices are materialized only where spectral routines need them.
Vertex indices are 0-based everywhere, including files.
"""

from __future__ import annotations

import array
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

    ``edges`` is one read-only (m, 2) int64 array in canonical order (rows
    sorted lexicographically); ``graph_from_edges`` builds it. The symmetric
    CSR adjacency is built from it once. Immutable after construction and
    safe to share across threads. Optional per-vertex planar coordinates
    (generated lattices place them in the unit square).
    """

    n: int
    edges: np.ndarray
    coords: np.ndarray | None = None
    degrees: np.ndarray = field(init=False, repr=False)
    _adjacency: sp.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)
        degrees = np.bincount(e.reshape(-1), minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # Entry (j, i) of every edge, then (i, j): in canonical order each
        # half is sorted by column within a row, and the lower-triangle
        # half has the smaller columns, so a stable sort by row leaves every
        # row's columns sorted.
        order = np.argsort(np.concatenate([e[:, 1], e[:, 0]]), kind="stable")
        indices = np.concatenate([e[:, 0], e[:, 1]])[order]
        del order
        data = np.ones(indices.size, dtype=np.int64)
        A = sp.csr_array((data, indices, indptr), shape=(self.n, self.n))
        for part in (A.data, A.indices, A.indptr):
            part.flags.writeable = False  # shared by every caller
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_adjacency", A)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

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

    def dense(self) -> np.ndarray:
        return self.Q.astype(float, copy=False).toarray()


def build_lattice(rows: int, cols: int) -> Graph:
    """Rook-adjacency lattice on rows x cols vertices.

    Vertex (r, c) has index r*cols + c and coordinate
    (c/(cols-1), r/(rows-1)); a single row or column maps to 0.5. Edge count
    is rows*(cols-1) + cols*(rows-1).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice dimensions must be >= 1, got {rows}x{cols}")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])
    xs = np.tile([c / (cols - 1) if cols > 1 else 0.5 for c in range(cols)], rows)
    ys = np.repeat([r / (rows - 1) if rows > 1 else 0.5 for r in range(rows)], cols)
    coords = np.column_stack([xs, ys])
    return graph_from_edges(rows * cols, np.concatenate([right, down]), coords)


def graph_from_edges(n: int, edges, coords=None) -> Graph:
    """Validated graph from edges: a sequence of pairs or an (m, 2) array.

    Rejects self-loops, duplicate edges (unordered), and out-of-range
    indices, naming the first offending entry. The graph's edge array is a
    new one, each pair ordered i < j and the rows sorted.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    i, j = e[:, 0], e[:, 1]
    invalid = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
    stop = int(np.argmax(invalid)) if invalid.any() else e.shape[0]
    # each unordered pair as the one integer lo * n + hi, which sorts as
    # (lo, hi) does; only up to the first self-loop or out-of-range index,
    # so that no invalid index enters a key
    i, j = i[:stop], j[:stop]
    key = np.minimum(i, j) * n + np.maximum(i, j)
    first = stop  # index of the first offending entry
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeats = np.flatnonzero(key[1:] == key[:-1])
        if repeats.size:
            first = int(order[repeats + 1].min())  # stable: later copies
    if first < e.shape[0]:
        i, j = e[first].tolist()
        if first < stop:
            raise ValueError(f"duplicate edge ({i}, {j})")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        raise ValueError(f"edge ({i}, {j}) has a vertex index outside [0, {n})")
    canonical = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n, out=(canonical[:, 0], canonical[:, 1]))
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (n, 2):
            raise ValueError(f"coords must have shape ({n}, 2), got {coords.shape}")
    return Graph(n=n, edges=canonical, coords=coords)


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
        fh.writelines(f"{i} {j}\n" for i, j in g.edges.tolist())


def _int_pair(text: str):
    """The two integers of a line "a b", or None if it is not one."""
    parts = text.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    return None


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; '#' begins a comment line.

    The vertex pairs stream into one flat int64 buffer, which
    ``graph_from_edges`` reads as an (m, 2) array: no per-line objects are
    kept. Every error names the file and the line.
    """
    header = None
    flat = array.array("q")
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            pair = _int_pair(text)
            if header is None:
                if pair is None:
                    raise ValueError(f"{path}:{lineno}: header must be 'n m', got {text!r}")
                header = pair
                continue
            if pair is None:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {text!r}")
            i, j = pair
            if i >= j:
                raise ValueError(f"{path}:{lineno}: edges must satisfy i < j, got {i} {j}")
            flat.extend(pair)
    if header is None:
        raise ValueError(f"{path}: empty edge-list file")
    n, m = header
    if len(flat) // 2 != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(flat) // 2}")
    return graph_from_edges(n, np.frombuffer(flat, dtype=np.int64))


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
