import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from sglmm import basis as basis_module
from sglmm.basis import (
    DesignMatrix,
    moran_I,
    moran_basis,
    moran_operator,
    moran_spectrum,
    reduced_precision,
    rhz_basis,
)
from sglmm.graph import build_lattice, graph_from_edges, laplacian
from sglmm.simulate import lattice_design

TWO_VERTEX = graph_from_edges(2, [(0, 1)])
ONES_2 = np.ones((2, 1))


@pytest.fixture
def eigensolver(monkeypatch):
    """Call with "dense" or "shift-invert" to force the solver of the leading pairs."""

    def force(path):
        monkeypatch.setattr(
            basis_module, "_dense_eigpairs", lambda n, k: path == "dense" or k >= n - 1
        )

    return force


def test_design_matrix_validates_rank():
    X = np.column_stack([np.ones(10), np.arange(10), 2 * np.arange(10)])
    with pytest.raises(ValueError, match="column 2"):
        DesignMatrix(X)


def test_design_matrix_requires_p_less_than_n():
    with pytest.raises(ValueError, match="p < n"):
        DesignMatrix(np.eye(3))


def projection_complement(X, g):
    """Projection onto span(X)-perp as L L', with L the rhz basis."""
    L = rhz_basis(X, g).L
    return L @ L.T


def test_projection_complement_centering_matrix():
    P = projection_complement(ONES_2, TWO_VERTEX)
    assert np.allclose(P, [[0.5, -0.5], [-0.5, 0.5]])


def test_projection_complement_e1():
    P = projection_complement(np.array([[1.0], [0.0]]), TWO_VERTEX)
    assert np.allclose(P, np.diag([0.0, 1.0]))


def test_projection_complement_annihilates_random_design():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    P = projection_complement(X, build_lattice(2, 5))
    # oracle: direct multiplication
    assert np.abs(P @ X).max() < 1e-10
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.allclose(P, P.T)


def test_projection_complement_idempotent_larger():
    rng = np.random.default_rng(7)
    for rows, cols, p in ((5, 10, 4), (10, 20, 6)):
        X = rng.standard_normal((rows * cols, p))
        P = projection_complement(X, build_lattice(rows, cols))
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P @ X).max() < 1e-10


def test_moran_operator_two_vertex_adjacency():
    # hand multiplication: P = [[.5,-.5],[-.5,.5]], A = [[0,1],[1,0]]
    # P A P = [[-.5,.5],[.5,-.5]]
    op = moran_operator(ONES_2, TWO_VERTEX)
    assert np.allclose(op, [[-0.5, 0.5], [0.5, -0.5]])


def test_moran_operator_rank_bound():
    # with p = n - 1 the projector has rank 1, hence so does P A P at most
    g = build_lattice(2, 2)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3))
    op = moran_operator(X, g)
    assert np.linalg.matrix_rank(op, tol=1e-10) <= 1


def test_moran_operator_symmetric():
    g = build_lattice(7, 5)
    X = lattice_design(g)
    op = moran_operator(X, g)
    assert np.abs(op - op.T).max() < 1e-12


def test_moran_basis_rejects_when_no_positive_eigenvalues():
    # two-vertex spectrum with the centering projection is {0, -1}
    vals, _ = moran_spectrum(ONES_2, TWO_VERTEX)
    assert np.allclose(sorted(vals), [-1.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        moran_basis(ONES_2, TWO_VERTEX, q=1)


def test_moran_basis_rejects_edgeless_graph():
    g = graph_from_edges(3, [])
    X = np.ones((3, 1))
    with pytest.raises(ValueError, match="no edges"):
        moran_basis(X, g, q=1)


def test_moran_basis_orthonormal_and_orthogonal_to_design():
    g = build_lattice(8, 8)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=12)
    assert np.abs(mb.M.T @ mb.M - np.eye(12)).max() < 1e-8
    assert np.abs(X.X.T @ mb.M).max() < 1e-8
    assert np.all(np.diff(mb.eigenvalues) <= 1e-12)  # descending up to ties
    # Q_S is SPD for a connected graph
    assert np.all(np.linalg.eigvalsh(mb.Q_S) > 0)


def test_moran_basis_threshold_rule():
    g = build_lattice(8, 8)
    X = lattice_design(g)
    mb = moran_basis(X, g, threshold=0.5)
    assert np.all(mb.standardized_eigenvalues > 0.5)
    full, std = moran_spectrum(X, g)
    assert mb.q == int(np.sum(std > 0.5))


def test_moran_basis_requires_exactly_one_rule():
    g = build_lattice(4, 4)
    X = lattice_design(g)
    with pytest.raises(ValueError, match="exactly one"):
        moran_basis(X, g)
    with pytest.raises(ValueError, match="exactly one"):
        moran_basis(X, g, q=2, threshold=0.1)


def test_moran_basis_30x30_400th_standardized_eigenvalue():
    g = build_lattice(30, 30)
    X = lattice_design(g)
    _, std = moran_spectrum(X, g)
    assert std[399] == pytest.approx(0.05, abs=0.01)


def test_standardization_constant():
    # standardized = raw * n / (1'A1), and 1'A1 = 2 |E|
    g = build_lattice(6, 6)
    X = lattice_design(g)
    vals, std = moran_spectrum(X, g)
    assert np.allclose(std, vals * 36 / (2 * g.n_edges))


def test_sign_convention_deterministic():
    g = build_lattice(9, 9)
    X = lattice_design(g)
    m1 = moran_basis(X, g, q=10).M
    m2 = moran_basis(X, g, q=10).M
    assert np.array_equal(m1, m2)
    for j in range(10):
        col = m1[:, j]
        nz = np.nonzero(np.abs(col) > 1e-9 * np.abs(col).max())[0]
        assert col[nz[0]] > 0


def test_rhz_basis_two_vertex():
    # complement of span(1) in R^2 is spanned by (1,-1)/sqrt(2); Q = 2 P
    rb = rhz_basis(ONES_2, TWO_VERTEX)
    assert rb.L.shape == (2, 1)
    assert np.allclose(np.abs(rb.L[:, 0]), 1 / np.sqrt(2))
    assert rb.L[0, 0] > 0  # sign convention
    assert np.allclose(rb.Q_R, [[2.0]])


def test_rhz_basis_30x30_has_898_columns():
    g = build_lattice(30, 30)
    X = lattice_design(g)
    rb = rhz_basis(X, g)
    assert rb.L.shape == (900, 898)
    assert np.abs(rb.L.T @ rb.L - np.eye(898)).max() < 1e-8


def test_rhz_basis_orthogonal_to_design():
    rng = np.random.default_rng(5)
    g = build_lattice(5, 8)
    X = rng.standard_normal((40, 3))
    rb = rhz_basis(X, g)
    assert np.abs(X.T @ rb.L).max() < 1e-8


def _rhz_case(name):
    if name == "lattice-12x15":
        g = build_lattice(12, 15)
        return g, lattice_design(g).X
    if name == "islands-and-isolated-vertex":
        # a random first column, so the columns of L need both signs
        g, _ = _two_islands_and_isolated_vertex(6)
        return g, np.random.default_rng(4).standard_normal((g.n, 3))
    if name == "intercept-only":
        g = build_lattice(9, 7)
        return g, np.ones((g.n, 1))
    g = build_lattice(4, 5)  # p = n - 1
    return g, np.random.default_rng(3).standard_normal((g.n, g.n - 1))


@pytest.mark.parametrize(
    "case", ["lattice-12x15", "islands-and-isolated-vertex", "intercept-only", "p-is-n-minus-1"]
)
def test_rhz_basis_matches_dense_oracles(case):
    # the Householder completion spans the complement the SVD null space
    # spans, and Q_R is the dense congruence L'QL of that same L
    g, X = _rhz_case(case)
    n, p = X.shape
    rb = rhz_basis(X, g)
    L = rb.L
    assert L.shape == (n, n - p) and rb.k == n - p
    ref = scipy.linalg.null_space(X.T)
    assert np.abs(L @ L.T - ref @ ref.T).max() < 1e-12
    assert np.abs(X.T @ L).max() < 1e-12
    assert np.abs(L.T @ L - np.eye(n - p)).max() < 1e-12
    assert np.abs(rb.Q_R - L.T @ (laplacian(g).dense() @ L)).max() < 1e-12
    assert np.array_equal(rb.Q_R, rb.Q_R.T)
    for col in L.T:
        nz = np.nonzero(np.abs(col) > 1e-9 * np.abs(col).max())[0]
        assert col[nz[0]] > 0


def test_orthonormality_check_rejects_a_scaled_column():
    g = build_lattice(10, 10)
    L = rhz_basis(lattice_design(g), g).L.copy()
    basis_module._check_orthonormal(L)
    L[:, 17] *= 1.001
    with pytest.raises(ValueError, match="orthonormal"):
        basis_module._check_orthonormal(L)


def test_rhz_basis_memory_is_three_n_by_n_arrays(traced_peak):
    # three n x n arrays at most: L, the dense H'QH and the copy of its
    # trailing block (an SVD null space with L'L and L'(QL) peaks at 5.1)
    g = build_lattice(40, 40)
    assert traced_peak(rhz_basis, lattice_design(g), g) < 3.5 * g.n**2 * 8


def test_reduced_precision_identity_basis():
    g = build_lattice(4, 4)
    Q = laplacian(g)
    out = reduced_precision(np.eye(16), Q)
    assert np.allclose(out, Q.dense())


def test_reduced_precision_dimension_mismatch():
    g = build_lattice(4, 4)
    Q = laplacian(g)
    with pytest.raises(ValueError, match="mismatch"):
        reduced_precision(np.eye(5), Q)


def test_reduced_precision_psd_under_congruence():
    g = build_lattice(6, 6)
    Q = laplacian(g)
    rng = np.random.default_rng(9)
    B, _ = np.linalg.qr(rng.standard_normal((36, 8)))
    out = reduced_precision(B, Q)
    assert np.all(np.linalg.eigvalsh(out) > -1e-10)
    assert np.allclose(out, out.T)


def test_moran_I_two_vertex_alternating():
    assert moran_I(TWO_VERTEX, np.array([1.0, -1.0])) == pytest.approx(-1.0)


def test_moran_I_path_orthogonal_pattern():
    # P3 with Z = (1, 0, -1): A Z = 0, so the quadratic form vanishes
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert moran_I(g, np.array([1.0, 0.0, -1.0])) == pytest.approx(0.0)


def test_moran_I_rejects_constant_with_intercept():
    with pytest.raises(ValueError, match="degenerate"):
        moran_I(TWO_VERTEX, np.array([3.0, 3.0]))


def test_moran_I_rejects_edgeless():
    g = graph_from_edges(2, [])
    with pytest.raises(ValueError, match="no edges"):
        moran_I(g, np.array([1.0, -1.0]))


def test_moran_I_attains_standardized_eigenvalues():
    # each basis column's generalized I equals its standardized eigenvalue
    g = build_lattice(10, 10)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=15)
    for j in range(15):
        stat = moran_I(g, mb.M[:, j], X)
        assert stat == pytest.approx(mb.standardized_eigenvalues[j], abs=1e-8)


def test_trace_identity():
    g = build_lattice(15, 15)
    X = lattice_design(g)
    op = moran_operator(X, g)
    vals, _ = moran_spectrum(X, g)
    assert vals.sum() == pytest.approx(np.trace(op), abs=1e-8)


def test_over_half_nonpositive_30x30():
    g = build_lattice(30, 30)
    X = lattice_design(g)
    vals, _ = moran_spectrum(X, g)
    assert np.sum(vals <= 0) > 450


def test_moran_basis_iterative_path_large_graph():
    # 60x60 has n = 3600 > 2500, so the leading pairs come from the
    # iterative solver; verify genuine eigenpairs by the operator residual
    g = build_lattice(60, 60)
    X = lattice_design(g)
    mb = moran_basis(X, g, q=10)
    assert mb.M.shape == (3600, 10)
    assert np.abs(mb.M.T @ mb.M - np.eye(10)).max() < 1e-8
    assert np.abs(X.X.T @ mb.M).max() < 1e-8

    A = g.adjacency().astype(float)
    U, _ = np.linalg.qr(X.X)

    def apply_op(v):
        w = v - U @ (U.T @ v)
        w = A @ w
        return w - U @ (U.T @ w)

    for j in range(10):
        resid = apply_op(mb.M[:, j]) - mb.eigenvalues[j] * mb.M[:, j]
        assert np.linalg.norm(resid) < 1e-8
    # Boots-Tiefelsdorf: the generalized I of each column is its
    # standardized eigenvalue
    for j in (0, 5, 9):
        assert moran_I(g, mb.M[:, j], X) == pytest.approx(
            mb.standardized_eigenvalues[j], abs=1e-8
        )


def test_moran_basis_iterative_path_reproducible():
    # n = 2601 > 2500 takes the iterative solver, whose default start vector
    # is random; two builds on the same input must agree bit for bit
    g = build_lattice(51, 51)
    X = lattice_design(g)
    assert moran_basis(X, g, q=5).M.tobytes() == moran_basis(X, g, q=5).M.tobytes()


def test_moran_basis_threshold_on_large_graph():
    g = build_lattice(60, 60)
    X = lattice_design(g)
    mb = moran_basis(X, g, threshold=0.98)
    assert mb.q >= 1
    assert np.all(mb.standardized_eigenvalues > 0.98)
    # the next eigenvalue down must fall at or below the threshold
    wider = moran_basis(X, g, q=mb.q + 5)
    assert wider.standardized_eigenvalues[mb.q] <= 0.98


def _two_islands_and_isolated_vertex(rows=36) -> tuple:
    # two rows x rows lattices side by side and one vertex with no edges
    # (n = 2593 for 36x36); the two islands double every eigenvalue of the
    # adjacency
    lat = build_lattice(rows, rows)
    m = lat.n
    edges = list(lat.edges) + [(i + m, j + m) for i, j in lat.edges]
    coords = np.vstack([lat.coords, lat.coords + [2.0, 0.0], [[4.0, 0.5]]])
    return graph_from_edges(2 * m + 1, edges, coords=coords), coords


def _repeated_eigenvalue_case(name):
    if name == "lattice-60x60":
        g = build_lattice(60, 60)
        return g, lattice_design(g).X, 11
    g, coords = _two_islands_and_isolated_vertex()
    if name == "islands-random-design":
        return g, np.random.default_rng(0).standard_normal((g.n, 2)), 10
    return g, coords, 50


@pytest.mark.slow
@pytest.mark.parametrize(
    "case", ["lattice-60x60", "islands-random-design", "islands-coordinate-design"]
)
def test_moran_basis_iterative_path_keeps_every_copy_of_repeated_eigenvalues(case):
    # Above n = 2500 the leading pairs come from Lanczos, which can return
    # one copy too few of a repeated eigenvalue (the 60x60 lattice has a
    # double eigenvalue at q = 11; the islands double every eigenvalue). The
    # kept eigenvalues must be the top q of the dense spectrum.
    g, X, q = _repeated_eigenvalue_case(case)
    mb = moran_basis(X, g, q=q)
    full, _ = moran_spectrum(X, g)
    assert np.abs(mb.eigenvalues - full[:q]).max() < 1e-10
    assert np.abs(mb.M.T @ mb.M - np.eye(q)).max() < 1e-8
    assert np.abs(X.T @ mb.M).max() < 1e-8
    U, _ = np.linalg.qr(X)
    AM = g.adjacency().astype(float) @ mb.M  # M = P M, as X'M = 0
    resid = np.linalg.norm(AM - U @ (U.T @ AM) - mb.M * mb.eigenvalues, axis=0)
    assert resid.max() < 1e-8


def _delaunay_graph(n, seed) -> tuple:
    pts = np.random.default_rng(seed).random((n, 2))
    tri = Delaunay(pts).simplices
    pairs = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=1)
    return graph_from_edges(n, np.unique(pairs, axis=0), coords=pts), pts


def _dense_case(name):
    if name == "lattice-30x30":
        g = build_lattice(30, 30)
        return g, lattice_design(g).X
    if name == "delaunay-900":
        return _delaunay_graph(900, 11)
    return _two_islands_and_isolated_vertex(20)


def _full_eigh_reference(X, g):
    # P A P with an explicit projector, every eigenpair, descending
    U, _ = np.linalg.qr(X)
    P = np.eye(g.n) - U @ U.T
    op = P @ g.adjacency().toarray() @ P
    vals, vecs = np.linalg.eigh(op)
    return op, vals[::-1], vecs[:, ::-1]


def test_solver_rule():
    # dense iff n <= max(500, 9 q), and never above 2500 vertices unless
    # all but one pair are asked for
    rule = basis_module._dense_eigpairs
    assert rule(400, 1) and rule(500, 10)
    assert not rule(900, 50) and rule(900, 100)
    assert not rule(1600, 50) and rule(1600, 200)
    assert not rule(2501, 1000) and rule(2501, 2500)


@pytest.mark.parametrize("case", ["lattice-30x30", "delaunay-900", "islands-20x20"])
def test_dense_moran_basis_matches_full_eigh(case, eigensolver):
    # the dense path computes only the pairs the rank rule keeps from the
    # one buffer it builds P A P in; it must agree with every pair of a full
    # eigh of an explicitly projected operator
    eigensolver("dense")
    g, X = _dense_case(case)
    op, ref_vals, ref_vecs = _full_eigh_reference(X, g)
    size = np.abs(ref_vals).max()
    assert np.abs(moran_spectrum(X, g)[0] - ref_vals).max() <= 1e-12 * size

    # the first q from 40 on whose last eigenvalue is not tied with the next
    q = next(j for j in range(40, g.n) if ref_vals[j - 1] - ref_vals[j] > 1e-3 * size)
    mb = moran_basis(X, g, q=q)
    assert np.abs(mb.eigenvalues - ref_vals[:q]).max() <= 1e-12 * size
    ref_M = ref_vecs[:, :q]
    assert np.abs(mb.M @ mb.M.T - ref_M @ ref_M.T).max() < 1e-10
    assert np.linalg.norm(op @ mb.M - mb.M * mb.eigenvalues, axis=0).max() < 1e-10
    assert np.abs(mb.M.T @ mb.M - np.eye(q)).max() < 1e-10
    assert np.abs(X.T @ mb.M).max() < 1e-10

    # a threshold between the q-th and (q+1)-th standardized eigenvalues
    scale = g.n / (2 * g.n_edges)
    threshold = scale * (ref_vals[q - 1] + ref_vals[q]) / 2
    by_threshold = moran_basis(X, g, threshold=threshold)
    assert by_threshold.q == int(np.sum(ref_vals * scale > threshold)) == q
    assert np.abs(by_threshold.eigenvalues - ref_vals[:q]).max() <= 1e-12 * size


def test_dense_moran_basis_memory_is_one_n_by_n_buffer(eigensolver, traced_peak):
    # P A P is built in the buffer of the dense adjacency and the solver
    # writes only the q kept eigenvectors, so the traced peak stays near one
    # n x n float array (LAPACK's O(n) workspace aside)
    eigensolver("dense")
    g = build_lattice(30, 30)
    assert traced_peak(moran_basis, lattice_design(g), g, q=50) < 1.5 * g.n**2 * 8


def test_shift_invert_moran_basis_forms_no_n_by_n_matrix(traced_peak):
    # at q = 50 on 40x40 the rule picks shift-invert Lanczos, whose memory
    # is the sparse LU and O(n q) vectors: far below one n x n float array
    g = build_lattice(40, 40)
    assert traced_peak(moran_basis, lattice_design(g), g, q=50) < 0.3 * g.n**2 * 8


def test_shift_invert_moran_basis_memory_is_a_few_n_by_q_arrays(traced_peak):
    # above the dense limit the peak is set by the Lanczos vectors: ARPACK's
    # n x ncv basis and scipy's n x ncv extraction buffer, then the n x q
    # basis. With ncv = q + 20 it is about 3.7 n q 8 bytes on this graph
    # (5.4 with scipy's default ncv = 2q + 1)
    g, pts = _delaunay_graph(3000, 3)
    X = np.column_stack([np.ones(g.n), pts])
    q = 100
    assert traced_peak(moran_basis, X, g, q=q) < 4.5 * g.n * q * 8


@st.composite
def _irregular_graphs(draw):
    # islands (random trees plus extra edges), hub vertices joined to half
    # of their island, and isolated vertices; about 30 to 120 vertices
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [draw(st.integers(25, 60))] + draw(st.lists(st.integers(2, 30), max_size=2))
    n_hubs = draw(st.integers(0, 2))
    edges, start = set(), 0
    for m in sizes:
        for v in range(1, m):
            edges.add((start + int(rng.integers(v)), start + v))
        for _ in range(m // 2):
            i, j = sorted(int(v) for v in rng.choice(m, 2, replace=False))
            edges.add((start + i, start + j))
        for hub in rng.choice(m, min(n_hubs, m), replace=False):
            for v in rng.choice(m, m // 2, replace=False):
                if v != hub:
                    edges.add((start + min(hub, v), start + max(hub, v)))
        start += m
    n = start + draw(st.integers(0, 3))
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    return graph_from_edges(n, sorted(edges)), X, draw(st.integers(1, 12))


# each example forces both solvers itself, so the shared fixture is safe
@settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_irregular_graphs())
def test_dense_and_shift_invert_moran_basis_agree(case, eigensolver):
    g, X, q = case
    vals, _ = moran_spectrum(X, g)
    size = max(abs(vals[0]), 1.0)
    q = min(q, int(np.sum(vals > 1e-6 * size)))
    assume(q >= 1)
    eigensolver("dense")
    dense = moran_basis(X, g, q=q)
    eigensolver("shift-invert")
    iterative = moran_basis(X, g, q=q)
    assert np.abs(iterative.eigenvalues - dense.eigenvalues).max() <= 1e-9 * size
    if vals[q - 1] - vals[q] > 1e-3 * size:
        gap = dense.M @ dense.M.T - iterative.M @ iterative.M.T
        assert np.abs(gap).max() < 1e-8
