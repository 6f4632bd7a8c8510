import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import collect_random_data
from oracles import level_matrices, quotient_level_graph
from graphzeta.errors import DatumError
from graphzeta.graphs import SerreGraph, connected, euler_characteristic, validate_graph
from graphzeta.groupring import GroupRingElem, norm_element
from graphzeta.lfunctions import characters, r0
from graphzeta.tower import (
    TowerDatum,
    build_level_graph,
    level_connected,
    level_shape,
    ramification_profile,
    tower_euler_char,
)


def _double_edge():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    return TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))


def test_datum_validation():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2")])
    with pytest.raises(DatumError, match="antisymmetric"):
        TowerDatum(g, 2, (1, 1), (None, None))
    with pytest.raises(DatumError, match="not prime"):
        TowerDatum(g, 4, (1, -1), (None, None))
    disconnected = SerreGraph.from_edges(["a", "b", "c"], [("b", "c")])
    with pytest.raises(DatumError, match="not connected"):
        TowerDatum(disconnected, 2, (0, 0), (None, None, None))
    with pytest.raises(DatumError, match="^voltage must assign an integer to every dart$"):
        TowerDatum(g, 2, (1, -1, 0), (None, None))
    with pytest.raises(DatumError, match="^ramification must cover every vertex$"):
        TowerDatum(g, 2, (1, -1), (None,))
    for k in (-1, 1.0, "1"):
        with pytest.raises(DatumError, match="^ramification exponent must be a nonnegative integer, got"):
            TowerDatum(g, 2, (1, -1), (None, k))


def test_level_zero_is_base():
    d = _double_edge()
    lg = build_level_graph(d, 0)
    assert lg.graph.n_vertices == d.base.n_vertices
    assert lg.graph.n_edges == d.base.n_edges
    assert euler_characteristic(lg.graph) == 0


def test_level_two_is_the_known_cover():
    d = _double_edge()
    lg = build_level_graph(d, 2)
    validate_graph(lg.graph)
    assert lg.graph.n_vertices == 6
    assert lg.graph.n_edges == 8
    # fibers: 4 over the unramified vertex, 2 over the ramified one
    assert sum(1 for b in lg.vertex_base if b == 0) == 4
    assert sum(1 for b in lg.vertex_base if b == 1) == 2


def test_level_one_is_a_four_cycle():
    d = _double_edge()
    lg = build_level_graph(d, 1)
    g = lg.graph
    assert g.n_vertices == 4 and g.n_edges == 4
    degs = [sum(1 for e in range(g.n_darts) if g.dart_origin[e] == v) for v in range(4)]
    assert degs == [2, 2, 2, 2]
    # a connected 2-regular simple-cycle check: closed walk visits all vertices
    from graphzeta.graphs import connected

    assert connected(g)


def test_ramification_profile():
    d = _double_edge()
    for n in range(0, 4):
        prof = ramification_profile(d, n)
        for v, (fiber, m) in enumerate(prof):
            assert fiber * m == 2**n
    assert ramification_profile(d, 2) == [(4, 1), (2, 2)]
    # unramified vertex at any level has index 1
    assert ramification_profile(d, 3)[0] == (8, 1)

    g3 = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    deep = TowerDatum(g3, 2, (1, -1, 2, -2), (None, 3))
    assert ramification_profile(deep, 2)[1] == (4, 1)


def test_tower_euler_char_closed_form_and_direct():
    d = _double_edge()
    for n in range(0, 5):
        direct = euler_characteristic(build_level_graph(d, n).graph)
        assert tower_euler_char(d, n) == direct
    assert tower_euler_char(d, 2) == -2
    for n in range(1, 6):
        assert tower_euler_char(d, n) == 2 - 2**n


@st.composite
def _shape_datum(draw):
    # 1-3 vertices with loops and multi-edges; voltages small or all multiples of p, which
    # disconnects level 1 unless some k_v = 0; k_v from 0 to 3
    p = draw(st.sampled_from([2, 3, 5]))
    size = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)] + draw(st.lists(pairs, max_size=3))
    scale = p if draw(st.booleans()) else 1
    volt = []
    for _ in edges:
        a = scale * draw(st.integers(-6, 6))
        volt += [a, -a]
    ram = tuple(draw(st.one_of(st.none(), st.integers(0, 3))) for _ in range(size))
    return TowerDatum(SerreGraph.from_edges(list(range(size)), edges), p, tuple(volt), ram)


def _triangle(p, voltages, ram):
    g = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    return TowerDatum(g, p, tuple(x for a in voltages for x in (a, -a)), ram)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_shape_datum())
@example(_triangle(3, (3, 0, 6), (None, 2, None)))  # disconnected from level 1 on
@example(_triangle(2, (2, 4, 2), (None, 0, None)))  # multiples of p, joined by k_v = 0
@example(_triangle(5, (1, 0, 0), (1, 1, 1)))  # a closed-walk voltage prime to p
def test_level_shape_and_connectivity_match_built_covers(d):
    for n in range(5):
        graph = build_level_graph(d, n).graph
        assert level_shape(d, n) == (graph.n_vertices, graph.n_edges, euler_characteristic(graph))
        assert level_connected(d, n) == connected(graph)


def test_tower_euler_char_unramified():
    loops = SerreGraph.from_edges(["v"], [("v", "v"), ("v", "v")])
    d = TowerDatum(loops, 2, (1, -1, 0, 0), (None,))
    for n in range(4):
        assert tower_euler_char(d, n) == 2**n * (-1)


def test_level_matrices_known_values():
    d = _double_edge()
    a, c, deg = level_matrices(d, 2)
    assert a[0][1] == GroupRingElem.from_dict(4, {3: 1, 2: 1})
    assert a[1][0] == GroupRingElem.from_dict(4, {1: 1, 2: 1})
    assert a[0][0] == GroupRingElem.zero(4)
    assert c[0] == GroupRingElem.one(4)
    assert c[1] == norm_element(4, 2)
    assert deg == [2, 2]

    a1, c1, _ = level_matrices(d, 1)
    assert a1[0][1] == GroupRingElem.from_dict(2, {1: 1, 0: 1})
    assert a1[1][0] == GroupRingElem.from_dict(2, {1: 1, 0: 1})
    assert c1[0] == c1[1] == GroupRingElem.one(2)


def test_level_matrices_full_stabilizers():
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    d = TowerDatum(k3, 3, (0,) * 6, (0, 0, 0))
    a, c, deg = level_matrices(d, 1)
    aug = [[x.augmentation() for x in row] for row in a]
    assert aug == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert all(ci == norm_element(3, 3) for ci in c)


def test_quotient_compatibility():
    data = [(_double_edge(), 4)] + [
        (d, 3 if d.p == 2 else 2) for d in collect_random_data(101, 4, levels_connected=1)
    ]
    for d, n_top in data:
        lg = build_level_graph(d, n_top)
        for m in range(n_top + 1):
            assert quotient_level_graph(d, lg, m) == build_level_graph(d, m).graph


def test_r0_sum_identity():
    for d in [_double_edge()] + collect_random_data(57, 5, levels_connected=1):
        for n in (1, 2):
            total = sum(r0(d, n, psi) for psi in characters(d.p, n))
            branch = sum(
                fiber * (m - 1) for fiber, m in ramification_profile(d, n)
            )
            assert total == branch


def test_degree_identity():
    d = _double_edge()
    for n in range(4):
        for fiber, m in ramification_profile(d, n):
            assert fiber * m == d.p**n
