"""Projections, the Moran operator, and reduced random-effect bases.

The central object is the Moran operator for a design matrix X with respect
to a graph G: project the adjacency matrix onto the orthogonal complement of
span(X). Its leading eigenvectors are the mutually distinct patterns of
spatial clustering residual to X, and its standardized eigenvalues are the
attainable values of the generalized Moran's I.

Two reduced bases are provided:

* ``rhz_basis``: an orthonormal basis L of span(X)-perp (all n - p columns),
  with reduced precision Q_R = L' Q L, both from one Householder QR of X.
* ``moran_basis``: the q leading Moran eigenvectors M, with reduced
  precision Q_S = M' Q M.

Every function takes the design as a ``DesignMatrix``, whose constructor
is the one check of full column rank and p < n. Eigenvectors follow the
sign convention "first nonzero component positive". All operations here
are pure and return immutable results. For a fixed input the decompositions
are deterministic at a fixed BLAS thread count; another thread count can
change the eigenvectors' bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg.lapack import dgeqrf, dormqr

from .graph import Graph, PrecisionMatrix, laplacian

__all__ = [
    "DesignMatrix",
    "MoranBasis",
    "RhzBasis",
    "moran_operator",
    "moran_spectrum",
    "moran_eigensystem",
    "moran_basis",
    "rhz_basis",
    "reduced_precision",
    "moran_I",
]

# Solver for the k leading Moran pairs of an n-vertex graph: dense
# ``dsyevr`` (O(n^3) time, one n x n buffer) iff
# n <= max(_DENSE_EIG_SMALL, _DENSE_EIG_RATIO * k), and never above
# _DENSE_EIG_LIMIT, the memory ceiling; shift-invert Lanczos otherwise. The
# constants fit a crossover table measured on lattice and Delaunay graphs
# (README, "Numerical notes").
_DENSE_EIG_LIMIT = 2500
_DENSE_EIG_SMALL = 500
_DENSE_EIG_RATIO = 9
# Lanczos vectors of the shift-invert solve for k pairs: min(n, k +
# _LANCZOS_SLACK). ARPACK needs only ncv > k (Lehoucq, Sorensen & Yang
# 1998); scipy's default 2k + 1 holds two n x ncv arrays at once, the
# Lanczos basis and the buffer the Ritz vectors are extracted into. The
# slack was measured against 2k + 1 (README, "Numerical notes").
_LANCZOS_SLACK = 20

_RANK_RTOL = 1e-10

# Moran operators of lattices carry structural zero eigenvalues; solver noise
# around them (observed < 1e-14) is snapped to exactly zero so sign counts
# are deterministic. Genuine eigenvalues sit many orders of magnitude higher.
_ZERO_SNAP = 1e-10


def _snap_zeros(vals: np.ndarray) -> np.ndarray:
    return np.where(np.abs(vals) <= _ZERO_SNAP, 0.0, vals)


def _dependent_column(X: np.ndarray) -> int:
    """Index of the first column numerically dependent on its predecessors."""
    n, p = X.shape
    basis = np.empty((n, 0))
    for j in range(p):
        col = X[:, j]
        resid = col - basis @ (basis.T @ col)
        if np.linalg.norm(resid) <= _RANK_RTOL * max(np.linalg.norm(col), 1.0):
            return j
        basis = np.column_stack([basis, resid / np.linalg.norm(resid)])
    return -1


def _check_rank(X: np.ndarray) -> None:
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        raise ValueError(
            f"design matrix is rank deficient: column {_dependent_column(X)} "
            "is linearly dependent on earlier columns"
        )


@dataclass(frozen=True)
class DesignMatrix:
    """n x p finite covariate matrix with full column rank and p < n."""

    X: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        object.__setattr__(self, "X", X)
        n, p = X.shape
        if p >= n:
            raise ValueError(f"design matrix needs p < n, got {n} x {p}")
        finite = np.isfinite(X)
        if not finite.all():
            j = int(np.argmin(finite.all(axis=0)))
            i = int(np.argmin(finite[:, j]))
            name = self.names[j] if len(self.names) == p else f"x{j}"
            raise ValueError(
                f"design matrix column {name!r} has a non-finite value {X[i, j]} in row {i}"
            )
        _check_rank(X)
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{j}" for j in range(p)))
        elif len(self.names) != p:
            raise ValueError(f"got {len(self.names)} names for {p} columns")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class MoranBasis:
    """Leading Moran eigenvectors with eigenvalues and reduced precision.

    M is n x q orthonormal with columns in span(X)-perp; eigenvalues are in
    descending order; standardized eigenvalues carry the Moran's I prefactor
    n / (1'A1); Q_S = M' Q M.
    """

    M: np.ndarray
    eigenvalues: np.ndarray
    standardized_eigenvalues: np.ndarray
    Q_S: np.ndarray

    @property
    def q(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True)
class RhzBasis:
    """Orthonormal basis L of span(X)-perp with Q_R = L' Q L.

    L is n x (n - p), the Householder completion of span(X) built by
    ``rhz_basis``; Q_R is (n - p) x (n - p) and exactly symmetric.
    """

    L: np.ndarray
    Q_R: np.ndarray

    @property
    def k(self) -> int:
        return self.L.shape[1]


def _orthonormal_range(X: DesignMatrix) -> np.ndarray:
    """Orthonormal basis U of span(X)."""
    return np.linalg.qr(X.X)[0]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns of V in place so each one's first nonzero component is positive.

    A component counts as nonzero above 1e-9 times its column's largest
    magnitude. Returns the signs applied, one per column.
    """
    cutoff = 1e-9 * np.maximum(V.max(axis=0), -V.min(axis=0))
    first = np.argmax((V > cutoff) | (V < -cutoff), axis=0)
    signs = np.where(V[first, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    V *= signs
    return signs


def _check_orthonormal(B: np.ndarray) -> None:
    """Raise unless B'B = I, probed in O(nk) as B'(B r) = r for one fixed r."""
    r = np.random.default_rng(0).standard_normal(B.shape[1])
    if np.linalg.norm(B.T @ (B @ r) - r) > 1e-8 * np.linalg.norm(r):
        raise ValueError("B does not have orthonormal columns")


def _moran_triangle(X: DesignMatrix, g: Graph) -> np.ndarray:
    """P A P in the one n x n buffer of the dense adjacency A.

    Returns the F-ordered view whose upper triangle holds P A P; the lower
    one is stale. P A P = A - (U W' + W U') with W = A U - U (U'A U) / 2, U
    an orthonormal basis of span(X): one in-place rank-2p update.
    """
    A = g.dense_adjacency()
    U = _orthonormal_range(X)
    T = A.T  # A is symmetric, so its F-ordered view is A itself
    AU = T @ U
    W = AU - 0.5 * (U @ (U.T @ AU))
    return scipy.linalg.blas.dsyr2k(-1.0, U, W, beta=1.0, c=T, overwrite_c=1)


def moran_operator(X: DesignMatrix, g: Graph) -> np.ndarray:
    """Moran operator P-perp A P-perp of the design X on the graph g.

    Large eigenvalues mean attraction. Returns a dense n x n symmetric matrix
    (the triangle the eigensolvers read, copied into the other one);
    intended for moderate n.
    """
    op = _moran_triangle(X, g).T  # lower triangle holds P A P
    return np.tril(op) + np.tril(op, -1).T


def _standardizer(g: Graph) -> float:
    """Moran prefactor n / (1'A1); rejects edgeless graphs."""
    total = 2 * g.n_edges
    if total == 0:
        raise ValueError("graph has no edges; Moran quantities are undefined")
    return g.n / total


def _moran_eigh(X: DesignMatrix, g: Graph, **options):
    """Eigenvalues and, unless ``eigvals_only``, eigenvectors, descending.

    The MRRR driver ``dsyevr`` (Dhillon, Parlett & Voemel 2006) works in the
    buffer of ``_moran_triangle`` and computes only the pairs asked for by
    ``subset_by_index``, all pairs without it.
    """
    out = scipy.linalg.eigh(
        _moran_triangle(X, g), lower=False, driver="evr",
        overwrite_a=True, check_finite=False, **options,
    )
    if options.get("eigvals_only"):
        return _snap_zeros(out[::-1])
    return _snap_zeros(out[0][::-1]), out[1][:, ::-1]


def moran_spectrum(X: DesignMatrix, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the Moran operator, descending, raw and standardized."""
    scale = _standardizer(g)
    vals = _moran_eigh(X, g, eigvals_only=True)
    return vals, vals * scale


def moran_eigensystem(X: DesignMatrix, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the Moran operator, descending.

    Returns (eigenvalues, eigenvectors); its peak memory is two n x n
    buffers, the operator and the eigenvectors. Feed them to ``moran_basis``
    through its ``eigensystem`` argument to avoid repeating the work.
    """
    return _moran_eigh(X, g)


def _dense_eigpairs(n: int, k: int) -> bool:
    """Whether the dense solver finds the k leading pairs of an n-vertex graph."""
    return k >= n - 1 or n <= min(_DENSE_EIG_LIMIT, max(_DENSE_EIG_SMALL, _DENSE_EIG_RATIO * k))


def _leading_eigpairs(X: DesignMatrix, g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k largest eigenpairs of the Moran operator P A P, descending.

    On small graphs, or when k is a large fraction of n (``_dense_eigpairs``),
    ``_moran_eigh`` computes just these k pairs from the dense operator.
    Otherwise shift-invert Lanczos (Ericsson & Ruhe 1980) runs on
    (P A P - sigma)^{-1} over span(X)-perp, with sigma just above the
    spectrum, and no n x n matrix is formed. One sparse LU of the bordered
    matrix [[A - sigma I, U], [U', 0]], U an orthonormal basis of span(X),
    in a symmetric fill-reducing order, applies that inverse. The Lanczos
    basis has min(n, k + _LANCZOS_SLACK) vectors, not scipy's 2k + 1: on a
    3000-vertex Delaunay graph at k = 100, ``moran_basis`` then peaks at
    about 3.7 n x k floats, against 5.4. Single-vector
    Lanczos can return fewer copies of a repeated eigenvalue than it has, so
    a check deflated by the pairs found looks for a pair above the smallest
    one kept, swaps it in, and repeats until none is found. All start
    vectors are fixed, so the result is reproducible.
    """
    n = X.n
    if _dense_eigpairs(n, k):
        return _moran_eigh(X, g, subset_by_index=[n - k, n - 1])
    U = _orthonormal_range(X)
    A = g.adjacency().astype(float)

    def project(v):
        return v - U @ (U.T @ v)

    op = sp.linalg.LinearOperator((n, n), matvec=lambda v: project(A @ project(v)), dtype=float)
    # ARPACK's default start vector is random, so a seeded fit would not
    # reproduce; fixed Gaussian vectors have components outside span(X)
    # (the ones vector has none when X holds an intercept)
    rng = np.random.default_rng(0)
    v0 = project(rng.standard_normal(n))
    lmax = sp.linalg.eigsh(op, k=1, which="LA", tol=1e-4, v0=v0, return_eigenvectors=False)[0]
    # above the whole spectrum, so the bordered matrix is nonsingular on
    # every graph, islands and isolated vertices included
    sigma = lmax + 1e-2 * max(abs(lmax), 1.0)
    border = sp.csc_array(U)
    lu = sp.linalg.splu(
        sp.block_array([[A - sigma * sp.eye_array(n), border], [border.T, None]], format="csc"),
        permc_spec="MMD_AT_PLUS_A",
    )
    rhs = np.zeros(n + U.shape[1])

    def solve(v):
        # the first n entries of K^{-1} [P v; 0] are (P A P - sigma)^{-1} P v
        rhs[:n] = project(v)
        return lu.solve(rhs)[:n]

    inverse = sp.linalg.LinearOperator((n, n), matvec=solve, dtype=float)
    vals, vecs = sp.linalg.eigsh(
        op, k=k, sigma=sigma, which="LM", OPinv=inverse, tol=1e-9, v0=v0,
        ncv=min(n, k + _LANCZOS_SLACK),
    )
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]

    def deflate(v):
        return v - vecs @ (vecs.T @ v)

    deflated = sp.linalg.LinearOperator(
        (n, n), matvec=lambda v: deflate(solve(deflate(v))), dtype=float
    )
    margin = 1e-8 * max(abs(vals[0]), 1.0)
    while True:
        # a new start vector each round: a vector already used has almost no
        # component along a copy its own Krylov space missed
        w0 = deflate(project(rng.standard_normal(n)))
        theta, y = sp.linalg.eigsh(deflated, k=1, which="LM", tol=1e-9, v0=w0)
        # theta = 1 / (lam - sigma) is negative, and larger in size the
        # closer lam is to sigma. Compared as theta, a theta ~ 0 (no pair
        # left) never passes; the margin keeps further copies of the
        # smallest kept eigenvalue from being swapped in.
        if not theta[0] < 1.0 / (vals[-1] + margin - sigma):
            break
        y = deflate(y[:, 0])
        vals = np.append(vals[:-1], sigma + 1.0 / theta[0])
        vecs = np.column_stack([vecs[:, :-1], y / np.linalg.norm(y)])
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
    return _snap_zeros(vals), vecs


def moran_basis(
    X: DesignMatrix,
    g: Graph,
    q: int,
    eigensystem: tuple[np.ndarray, np.ndarray] | None = None,
) -> MoranBasis:
    """Basis of the q leading Moran eigenvectors with reduced precision Q_S.

    q must not exceed the count of strictly positive eigenvalues. The pairs
    come from ``_leading_eigpairs``, or from a precomputed ``eigensystem``
    (descending eigenvalues and eigenvectors of the Moran operator), which
    skips the decomposition.

    Within a tie the solver's ordering is preserved; the contract for tied
    eigenvalues is the spanned subspace, not the individual vectors.
    """
    scale = _standardizer(g)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if eigensystem is None:
        eigensystem = _leading_eigpairs(X, g, min(X.n, q))
    vals, vecs = eigensystem
    k = vals.shape[0]
    if q > k:
        raise ValueError(f"q={q} exceeds the {k} available eigenpairs")
    vals = vals[:q]
    n_positive = int(np.sum(vals > 0))
    if n_positive < q:
        raise ValueError(
            f"q={q} exceeds the number of positive Moran eigenvalues "
            f"({n_positive})"
        )

    M = vecs[:, :q].copy()
    _fix_signs(M)
    Q = laplacian(g)
    Q_S = reduced_precision(M, Q)
    return MoranBasis(
        M=M,
        eigenvalues=vals,
        standardized_eigenvalues=vals * scale,
        Q_S=Q_S,
    )


def rhz_basis(X: DesignMatrix, g: Graph) -> RhzBasis:
    """Orthonormal basis of span(X)-perp with reduced precision Q_R = L'QL.

    One Householder QR of the design, X = H [R; 0] (LAPACK ``dgeqrf``),
    gives both: L is the last n - p columns of H, the p reflectors applied
    to the slab [0; I], and Q_R is the trailing (n - p) block of H'QH, the
    reflectors applied to the dense Laplacian from both sides (``dormqr``).
    Time O(n^2 p), peak memory three n x n float arrays (L, H'QH, Q_R), and
    no SVD or O(n k^2) product. L takes the sign convention of the Moran
    bases and Q_R the same signs, symmetrized exactly. Any orthonormal
    completion of span(X) spans the same space, so the contract is the
    subspace, not the individual vectors.
    """
    n, p = X.X.shape
    reflectors, tau, _, _ = dgeqrf(X.X)

    def apply(side, trans, C):
        """H C, H' C or C H on the F-ordered C, overwriting it."""
        # a workspace query reads no entry of C; overwrite_c spares its copy
        lwork = int(dormqr(side, trans, reflectors, tau, C, -1, overwrite_c=1)[1][0])
        return dormqr(side, trans, reflectors, tau, C, lwork, overwrite_c=1)[0]

    L = apply("L", "N", np.eye(n, n - p, -p, order="F"))
    signs = _fix_signs(L)
    _check_orthonormal(L)
    HQH = apply("R", "N", apply("L", "T", laplacian(g).Q.toarray(order="F")))
    Q_R = HQH[p:, p:].copy()
    del HQH  # freed before the transposed copy: three n x n arrays at most
    Q_R += Q_R.T.copy()
    Q_R *= np.outer(0.5 * signs, signs)
    return RhzBasis(L=L, Q_R=Q_R)


def reduced_precision(B: np.ndarray, Q) -> np.ndarray:
    """Congruence B' Q B, symmetrized to machine symmetry.

    B must have orthonormal columns; Q may be a PrecisionMatrix, a sparse
    matrix, or a dense array.
    """
    B = np.asarray(B, dtype=float)
    Qm = Q.Q if isinstance(Q, PrecisionMatrix) else Q
    if B.ndim != 2 or Qm.shape[0] != Qm.shape[1] or B.shape[0] != Qm.shape[0]:
        raise ValueError(
            f"dimension mismatch: B is {B.shape}, Q is {Qm.shape}"
        )
    gram = B.T @ B
    if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-8):
        raise ValueError("B does not have orthonormal columns")
    QB = Qm @ B
    out = B.T @ QB
    return (out + out.T) / 2.0


def moran_I(g: Graph, Z: np.ndarray, X: DesignMatrix | None = None) -> float:
    """Moran's I, classical or generalized to an arbitrary design matrix.

    With no X this is the classical statistic (intercept-only projection
    I - 11'/n); with X it is the generalized form whose attainable values
    are the standardized eigenvalues of the Moran operator.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (g.n,):
        raise ValueError(f"Z must have length {g.n}, got shape {Z.shape}")
    scale = _standardizer(g)
    if X is None:
        resid = Z - Z.mean()
    else:
        U = _orthonormal_range(X)
        resid = Z - U @ (U.T @ Z)
    denom = float(resid @ resid)
    if denom <= 1e-12 * max(float(Z @ Z), 1.0):
        raise ValueError(
            "residual of Z is degenerate (Z lies in the span of the design); "
            "Moran's I is undefined"
        )
    return scale * float(resid @ (g.adjacency() @ resid)) / denom
