import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from oracles import (
    count_reduced_closed_paths_exhaustive,
    count_spanning_trees_exhaustive,
    path_counts_by_matrix_powers,
)
from graphzeta.errors import GraphError
from graphzeta.graphs import (
    SerreGraph,
    adjacency_and_degree,
    connected,
    euler_characteristic,
    ihara_zeta_reciprocal,
    path_counts_from_zeta,
    reduced_closed_path_counts,
    spanning_tree_count,
    validate_graph,
)
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum, build_level_graph


def _double_edge_cover(level=2):
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    d = TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))
    return build_level_graph(d, level).graph


def test_minimal_graph_valid():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2")])
    validate_graph(g)
    assert g.n_edges == 1


def test_from_edges_reads_endpoints_as_labels_only():
    # integer labels that are also indices: (1, 2) is the edge between the two vertices, not a
    # loop at vertex 2 read from index 1; 0 is no label, though it is an index
    g = SerreGraph.from_edges([1, 2], [(1, 2), (2, 2)])
    assert (g.dart_origin, g.dart_terminus) == ((0, 1, 1, 1), (1, 0, 1, 1))
    validate_graph(g)
    with pytest.raises(GraphError, match="endpoint 0 is not a vertex label"):
        SerreGraph.from_edges([1, 2], [(0, 1)])
    with pytest.raises(GraphError, match="edge 1: endpoint 'c'"):
        SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "c")])


def test_fixed_point_inversion_rejected():
    g = SerreGraph(("v",), (0, 0), (0, 0), (0, 1))
    with pytest.raises(GraphError, match="fixed point"):
        validate_graph(g)


@pytest.mark.parametrize(
    "darts, message",
    [
        (((0, 0), (0,), (1, 0)), "dart arrays have mismatched lengths"),
        (((0,), (0,), (0,)), "dart count must be even"),
        (((0, 2), (0, 0), (1, 0)), "dart 1 has dangling origin reference 2"),
        (((0, 0), (0, 5), (1, 0)), "dart 1 has dangling terminus reference 5"),
        (((0, 0), (0, 0), (1, 2)), "dart 1 has dangling inverse reference"),
        (((0, 0, 0, 0), (0, 0, 0, 0), (1, 2, 3, 0)), "inversion is not an involution at dart 0"),
    ],
    ids=["lengths", "odd", "origin", "terminus", "inverse", "involution"],
)
def test_validate_graph_reports_each_violation(darts, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        validate_graph(SerreGraph(("v",), *darts))


def test_incidence_mismatch_rejected():
    g = SerreGraph(("a", "b", "c"), (0, 1, 1, 2), (1, 0, 2, 0), (1, 0, 3, 2))
    with pytest.raises(GraphError, match="incidence"):
        validate_graph(g)


def test_cover_graph_valid():
    y = _double_edge_cover()
    validate_graph(y)
    assert y.n_vertices == 6
    assert y.n_edges == 8


def test_euler_characteristic():
    assert euler_characteristic(SerreGraph(("v",), (), (), ())) == 1
    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    assert euler_characteristic(base) == 0
    assert euler_characteristic(_double_edge_cover()) == -2


def test_adjacency_and_degree():
    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    a, deg = adjacency_and_degree(base)
    assert a == [[0, 2], [2, 0]]
    assert deg == [[2, 0], [0, 2]]

    loop = SerreGraph.from_edges(["v"], [("v", "v")])
    a, deg = adjacency_and_degree(loop)
    assert a == [[2]]
    assert deg == [[2]]

    y = _double_edge_cover()
    ay, dy = adjacency_and_degree(y)
    # recount the darts directly
    for i in range(6):
        assert dy[i][i] == sum(1 for e in range(y.n_darts) if y.dart_origin[e] == i)
        for j in range(6):
            assert ay[i][j] == sum(
                1
                for e in range(y.n_darts)
                if y.dart_origin[e] == j and y.dart_terminus[e] == i
            )
    assert ay == [list(row) for row in zip(*ay)]


def test_connected():
    two_parts = SerreGraph.from_edges(["a", "b", "c"], [("b", "c")])
    assert not connected(two_parts)
    assert connected(_double_edge_cover())
    assert connected(_double_edge_cover(level=1))


def test_spanning_trees_triangle():
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert spanning_tree_count(k3) == 3
    assert count_spanning_trees_exhaustive(k3) == 3


def test_spanning_trees_cover_against_enumeration():
    y = _double_edge_cover()
    assert spanning_tree_count(y) == 32
    assert count_spanning_trees_exhaustive(y) == 32
    four_cycle = _double_edge_cover(level=1)
    assert spanning_tree_count(four_cycle) == 4
    assert count_spanning_trees_exhaustive(four_cycle) == 4


def test_spanning_tree_minor_independence():
    y = _double_edge_cover()
    a, deg = adjacency_and_degree(y)
    n = y.n_vertices
    from graphzeta.linalg import det_int

    values = set()
    for drop in range(n):
        keep = [i for i in range(n) if i != drop]
        minor = [[deg[i][j] - a[i][j] for j in keep] for i in keep]
        values.add(det_int(minor))
    assert values == {32}


def test_disconnected_spanning_trees_error():
    g = SerreGraph.from_edges(["a", "b", "c"], [("b", "c")])
    with pytest.raises(GraphError, match="not connected"):
        spanning_tree_count(g)


def test_path_counts_tree_all_zero():
    tree = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert reduced_closed_path_counts(tree, 8) == [0] * 8


def test_path_counts_triangle():
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    counts = reduced_closed_path_counts(k3, 6)
    assert counts[2] == 6  # N_3: two directed triangles, three basepoints each
    assert counts[2] == count_reduced_closed_paths_exhaustive(k3, 3)


def test_path_counts_match_exhaustive_enumeration():
    rng = random.Random(31)
    checked = 0
    while checked < 6:
        g = random_connected_graph(rng, 4, 4)
        if g.n_darts == 0 or g.n_darts > 8:
            continue
        checked += 1
        counts = reduced_closed_path_counts(g, 7)
        for k in range(1, 8):
            assert counts[k - 1] == count_reduced_closed_paths_exhaustive(g, k)


def test_ihara_zeta_reciprocal_golden():
    # isolated vertex: the 1x1 determinant is 1 - u^2, and the zeta itself
    # is exactly 1 because chi = 1 cancels it
    single = SerreGraph(("v",), (), (), ())
    h, chi = ihara_zeta_reciprocal(single)
    assert h == UniPoly([1, 0, -1]) and chi == 1
    assert path_counts_from_zeta(h, chi, 8) == [0] * 8

    empty = SerreGraph((), (), (), ())
    h_empty, chi_empty = ihara_zeta_reciprocal(empty)
    assert h_empty == UniPoly([1]) and chi_empty == 0

    y = _double_edge_cover()
    h, chi = ihara_zeta_reciprocal(y)
    assert list(h.coeffs) == [1, 0, 2, 0, -9, 0, -20, 0, -1, 0, 18, 0, 9]
    assert chi == -2

    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    h, chi = ihara_zeta_reciprocal(base)
    assert list(h.coeffs) == [1, 0, -2, 0, 1]  # (1 - u^2)^2
    assert chi == 0


def test_zeta_series_identity_on_cover():
    y = _double_edge_cover()
    h, chi = ihara_zeta_reciprocal(y)
    assert reduced_closed_path_counts(y, 12) == path_counts_from_zeta(h, chi, 12)


def test_zeta_series_identity_random_small():
    rng = random.Random(47)
    done = 0
    while done < 8:
        g = random_connected_graph(rng, 5, 6)
        if g.n_darts > 12:
            continue
        done += 1
        h, chi = ihara_zeta_reciprocal(g)
        assert reduced_closed_path_counts(g, 12) == path_counts_from_zeta(h, chi, 12)


def test_level_zeta_double_edge_level5():
    # 34-vertex cover, above the Bareiss size: h(u) is the reversed characteristic polynomial of
    # the 68-row W of the multimodular pass, degree 68
    y = _double_edge_cover(5)
    h, chi = ihara_zeta_reciprocal(y)
    assert h.degree == 2 * y.n_vertices
    assert h.derivative()(1) == -2 * chi * spanning_tree_count(y)
    assert reduced_closed_path_counts(y, 12) == path_counts_from_zeta(h, chi, 12)


def test_path_counts_past_int64():
    # one vertex with r = 20 loops: 40 darts, bound 40 * 39^12 > 2^63 (N_12,
    # about 39^12, is past it too); N_k counts the cyclically reduced words of
    # length k in a free group of rank r
    r = 20
    bouquet = SerreGraph.from_edges(["v"], [("v", "v")] * r)
    counts = reduced_closed_path_counts(bouquet, 12)
    assert bouquet.n_darts * 39**12 >= 2**63
    for k in range(1, 4):
        assert counts[k - 1] == count_reduced_closed_paths_exhaustive(bouquet, k)
    assert counts == [(2 * r - 1) ** k + 1 + (r - 1) * (1 + (-1) ** k) for k in range(1, 13)]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32), st.integers(0, 22), st.integers(1, 12))
def test_sparse_path_counts_match_dense_matrix_powers(seed, loops, k_max):
    # any multigraph, connected or not, dartless included; enough loops at vertex 0
    # push the bound n_darts * (max deg - 1)^k_max past 2^63
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
    g = SerreGraph.from_edges(range(n), edges + [(0, 0)] * (loops if rng.random() < 0.3 else 0))
    assert reduced_closed_path_counts(g, k_max) == path_counts_by_matrix_powers(g, k_max)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.integers(1, 14))
def test_packed_path_counts_match_matrix_powers(seed, k_max):
    # columns of B^k packed one per integer, against dense powers, on random connected
    # multigraphs with loops and multi-edges
    rng = random.Random(seed)
    g = random_connected_graph(rng, 6, 9)
    loops = [(rng.randrange(g.n_vertices),) * 2 for _ in range(rng.randint(0, 4))]
    g = SerreGraph.from_edges(g.vertices, list(zip(g.dart_origin[::2], g.dart_terminus[::2])) + loops)
    assert reduced_closed_path_counts(g, k_max) == path_counts_by_matrix_powers(g, k_max)


def test_packed_path_counts_at_the_slot_width_extremes():
    # the slot width is the bits of (max deg - 1)^k_max: past 63 bits on a bouquet of 12 loops
    # (n_darts * 23^14 >= 2^63), one bit on a cycle (max deg - 1 = 1) and on one edge (0)
    bouquet = SerreGraph.from_edges(["v"], [("v", "v")] * 12)
    cycle = SerreGraph.from_edges(range(5), [(v, (v + 1) % 5) for v in range(5)])
    edge = SerreGraph.from_edges(range(2), [(0, 1)])
    assert bouquet.n_darts * 23**14 >= 2**63
    for g, k_max in ((bouquet, 14), (cycle, 11), (edge, 5)):
        assert reduced_closed_path_counts(g, k_max) == path_counts_by_matrix_powers(g, k_max)
    assert reduced_closed_path_counts(cycle, 10) == [0, 0, 0, 0, 10, 0, 0, 0, 0, 10]


def test_sparse_path_counts_on_both_integer_routes():
    for g in (SerreGraph((), (), (), ()), SerreGraph(("v",), (), (), ())):
        assert reduced_closed_path_counts(g, 12) == [0] * 12
    bouquet = SerreGraph.from_edges(["v"], [("v", "v")] * 20)  # 40 * 39^12 > 2^63
    star = SerreGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3), (1, 1), (2, 3), (3, 3)])
    assert bouquet.n_darts * 39**12 >= 2**63 > star.n_darts * 4**12
    for g in (bouquet, star, _double_edge_cover(3)):
        assert reduced_closed_path_counts(g, 12) == path_counts_by_matrix_powers(g, 12)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_path_counts_from_zeta_match_exhaustive_enumeration(seed):
    g = random_connected_graph(random.Random(seed), 4, 4)
    h, chi = ihara_zeta_reciprocal(g)
    predicted = path_counts_from_zeta(h, chi, 7)
    assert predicted == [count_reduced_closed_paths_exhaustive(g, k) for k in range(1, 8)]


def test_path_counts_from_zeta_closed_forms():
    # isolated vertex: h = 1 - u^2 and chi = 1 give Z = 1, no closed paths
    assert path_counts_from_zeta(UniPoly([1, 0, -1]), 1, 10) == [0] * 10
    # m-cycle: h = (1 - u^m)^2 and chi = 0; N_k = 2m if m | k, else 0
    for m in range(1, 6):
        cycle = SerreGraph.from_edges(range(m), [(v, (v + 1) % m) for v in range(m)])
        h, chi = ihara_zeta_reciprocal(cycle)
        assert h == UniPoly([1] + [0] * (m - 1) + [-1]) ** 2 and chi == 0
        expected = [2 * m if k % m == 0 else 0 for k in range(1, 13)]
        assert path_counts_from_zeta(h, chi, 12) == expected
    # r-loop bouquet: h = 1 - 2r u + (2r - 1) u^2 and chi = 1 - r, with the
    # counts of test_path_counts_past_int64
    for r in (1, 2, 20):
        bouquet = SerreGraph.from_edges(["v"], [("v", "v")] * r)
        h, chi = ihara_zeta_reciprocal(bouquet)
        assert h == UniPoly([1, -2 * r, 2 * r - 1]) and chi == 1 - r
        expected = [(2 * r - 1) ** k + 1 + (r - 1) * (1 + (-1) ** k) for k in range(1, 13)]
        assert path_counts_from_zeta(h, chi, 12) == expected


def test_path_counts_from_zeta_sees_chi_and_rejects_non_unit():
    y = _double_edge_cover()
    h, chi = ihara_zeta_reciprocal(y)
    counts = reduced_closed_path_counts(y, 12)
    assert path_counts_from_zeta(h, chi, 12) == counts
    for wrong in (chi - 1, chi + 1):
        assert path_counts_from_zeta(h, wrong, 12) != counts
    with pytest.raises(ValueError, match="h\\(0\\)"):
        path_counts_from_zeta(UniPoly([2, 0, -1]), 1, 4)
    with pytest.raises(ValueError):
        path_counts_from_zeta(UniPoly([0, 1]), 0, 4)


def test_hashimoto_identity_random():
    rng = random.Random(53)
    for _ in range(30):
        g = random_connected_graph(rng, 6, 8)
        h, chi = ihara_zeta_reciprocal(g)
        assert h.derivative()(1) == -2 * chi * spanning_tree_count(g)
