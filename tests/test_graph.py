import numpy as np
import pytest
from hypothesis import given, settings

from sglmm.graph import (
    build_lattice,
    graph_from_edges,
    laplacian,
    read_coords,
    read_edge_list,
    write_coords,
    write_edge_list,
)
from test_basis import _irregular_graphs


def bfs_component_count(n, edges):
    """Independent component count by plain graph traversal."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return count


def test_lattice_2x2():
    g = build_lattice(2, 2)
    assert g.n == 4
    assert g.n_edges == 4


def test_lattice_30x30():
    g = build_lattice(30, 30)
    assert g.n == 900
    assert g.n_edges == 1740  # 30*29 + 30*29


def test_lattice_single_row_is_path():
    g = build_lattice(1, 5)
    assert g.n == 5
    assert g.n_edges == 4
    # single row maps the y coordinate to 0.5
    assert np.allclose(g.coords[:, 1], 0.5)
    assert np.allclose(g.coords[:, 0], np.linspace(0, 1, 5))


def test_lattice_coordinates_unit_square():
    g = build_lattice(4, 7)
    assert g.coords.min() == 0.0 and g.coords.max() == 1.0
    # vertex (r, c) -> (c/(cols-1), r/(rows-1))
    r, c = 2, 5
    assert g.coords[r * 7 + c, 0] == pytest.approx(5 / 6)
    assert g.coords[r * 7 + c, 1] == pytest.approx(2 / 3)


def test_lattice_rejects_bad_dims():
    with pytest.raises(ValueError):
        build_lattice(0, 3)


def test_graph_from_edges_valid():
    g = graph_from_edges(2, [(0, 1)])
    assert g.n == 2
    assert g.edges.tolist() == [[0, 1]]


def test_graph_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match=r"self-loop \(0, 0\)"):
        graph_from_edges(3, [(0, 0)])


def test_graph_from_edges_rejects_duplicate_unordered():
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
        graph_from_edges(3, [(0, 1), (1, 0)])


def test_graph_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        graph_from_edges(3, [(0, 3)])


def test_single_edge_laplacian():
    g = graph_from_edges(2, [(0, 1)])
    Q = laplacian(g).dense()
    assert np.array_equal(Q, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_row_sums_zero_exactly():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(2, 40))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < 0.3
        edges = [e for e, t in zip(possible, take) if t]
        g = graph_from_edges(n, edges)
        Q = laplacian(g).dense()
        assert np.all(Q.sum(axis=1) == 0.0)
        assert np.array_equal(Q, Q.T)


def test_adjacency_symmetric_binary_zero_diagonal():
    g = build_lattice(5, 6)
    A = g.dense_adjacency()
    assert np.array_equal(A, A.T)
    assert set(np.unique(A)) <= {0.0, 1.0}
    assert np.all(np.diag(A) == 0)
    Q = laplacian(g).dense()
    assert np.array_equal(Q, np.diag(A.sum(axis=1)) - A)


def test_laplacian_rank_30x30():
    g = build_lattice(30, 30)
    pm = laplacian(g)
    # oracle: rank = n - number of connected components found by traversal
    assert pm.rank == 900 - bfs_component_count(g.n, g.edges)
    assert pm.rank == 899


def test_laplacian_rank_disconnected():
    # two components: a triangle and an isolated edge
    g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert laplacian(g).rank == 3
    assert bfs_component_count(5, g.edges) == 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_irregular_graphs())
def test_laplacian_row_sums_and_rank_on_irregular_graphs(case):
    # islands, hubs and isolated vertices: rows still sum to exactly 0, and
    # the rank is n minus the component count, numerically as well as stored
    g = case[0]
    pm = laplacian(g)
    Q = pm.dense()
    assert np.all(Q.sum(axis=1) == 0.0)
    rank = g.n - bfs_component_count(g.n, g.edges)
    assert g.n_components() == g.n - rank
    assert pm.rank == rank
    assert np.linalg.matrix_rank(Q) == rank


def test_laplacian_psd_small_graphs():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 100))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < 0.1
        edges = [e for e, t in zip(possible, take) if t]
        g = graph_from_edges(n, edges)
        vals = np.linalg.eigvalsh(laplacian(g).dense())
        assert vals.min() > -1e-10


def test_edge_list_round_trip(tmp_path):
    g = build_lattice(3, 4)
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    g2 = read_edge_list(path)
    assert g2.n == g.n
    assert np.array_equal(g2.edges, g.edges)
    header = path.read_text().splitlines()[0]
    assert header == "12 17"


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\n2 1\n0 1\n")
    g = read_edge_list(path)
    assert g.n == 2 and g.edges.tolist() == [[0, 1]]

    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n1 0\n")
    with pytest.raises(ValueError, match="i < j"):
        read_edge_list(bad)

    short = tmp_path / "short.edges"
    short.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="promises 2"):
        read_edge_list(short)


@pytest.mark.parametrize(
    "text, line",
    [("2 1\n0 x\n", "2: expected 'i j', got '0 x'"),
     ("# n m\n2 y\n0 1\n", "2: header must be 'n m', got '2 y'"),
     ("3 2\n0 1\n\n1 2.5\n", "4: expected 'i j', got '1 2.5'")],
)
def test_edge_list_parse_errors_name_the_line(tmp_path, text, line):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_edge_list(path)
    assert str(err.value) == f"{path}:{line}"


def test_read_edge_list_memory_per_edge(tmp_path, traced_peak):
    # the pairs stream into one int64 buffer: no tuple per edge, no list of
    # lines (about 485 bytes per edge before, about 95 now)
    g = build_lattice(70, 70)
    assert g.n_edges >= 9000
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    assert traced_peak(read_edge_list, path) < 150 * g.n_edges


def _reference_edges(n, edges):
    """The validation loop over pairs: canonical sorted tuples, or the
    message naming the first offending entry."""
    seen, canonical = set(), []
    for i, j in edges:
        if i == j:
            return f"self-loop ({i}, {j}) is not allowed"
        if not (0 <= i < n) or not (0 <= j < n):
            return f"edge ({i}, {j}) has a vertex index outside [0, {n})"
        key = (min(i, j), max(i, j))
        if key in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add(key)
        canonical.append(key)
    return sorted(canonical)


def test_graph_from_edges_matches_reference_loop():
    # array validation names the same first offending entry and gives the
    # same canonical order as the loop, on small random edge lists with
    # self-loops, reversed pairs, duplicates and out-of-range indices
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        edges = [tuple(int(v) for v in rng.integers(-1, n + 1, 2))
                 for _ in range(int(rng.integers(0, 12)))]
        if rng.random() < 0.6:
            edges = [(i, j) for i, j in edges if 0 <= i < n and 0 <= j < n and i != j]
        expected = _reference_edges(n, edges)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                graph_from_edges(n, edges)
            assert str(err.value) == expected
        else:
            g = graph_from_edges(n, edges)
            assert g.edges.tolist() == [list(e) for e in expected]
            assert not g.edges.flags.writeable
            A = np.zeros((n, n), dtype=np.int64)
            for i, j in expected:
                A[i, j] = A[j, i] = 1
            assert np.array_equal(g.adjacency().toarray(), A)
            assert g.adjacency().has_sorted_indices
            assert np.array_equal(g.degrees, A.sum(axis=1))


def test_coords_round_trip(tmp_path):
    g = build_lattice(4, 4)
    path = tmp_path / "coords.txt"
    write_coords(path, g.coords)
    back = read_coords(path, g.n)
    assert np.array_equal(back, g.coords)
    with pytest.raises(ValueError, match="expected 3"):
        read_coords(path, 3)
