import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, chorded_heptagon, collect_random_data, random_datum
from graphzeta.cli import cmd_zeta
from graphzeta.datum_io import load_datum
from graphzeta.errors import HypothesisError
from graphzeta import cyclo, lfunctions, linalg, tower, verify
from graphzeta.graphs import SerreGraph, connected, ihara_zeta_reciprocal, spanning_tree_count
from graphzeta.lfunctions import (
    CharacterLabel,
    character_table,
    character_tables,
    characters,
    orbit_norms,
    orbit_special_products,
    orbit_vertices,
    ordp_orbit_product,
    product_formula_check,
    r0,
    trivial_h_derivative_at_one,
    vanishing_order_check,
    xi_poly,
)
from graphzeta.groupring import GroupRingElem
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum, build_level_graph
from graphzeta.verify import default_subgroup_order, run_battery
from oracles import (
    CycloNum,
    character_value_by_powers,
    det_cofactor,
    l_reciprocal_of_sum,
    lfn_data_direct,
    orbit_norm_by_kernel,
    orbit_special_products_by_characters,
    ordp_cyclo,
    z_poly_direct,
    zeta,
)


def _double_edge():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    return TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))


def _rational_poly(h: UniPoly) -> list[Fraction]:
    out = []
    for c in h.coeffs:
        assert isinstance(c, CycloNum) and c.is_rational()
        out.append(c.to_rational())
    return out


def test_character_labels():
    labels = characters(2, 2)
    assert [psi.order for psi in labels] == [1, 4, 2, 4]
    assert labels[0].is_trivial
    one = GroupRingElem.basis(4, 1)
    assert character_value_by_powers(one, 2, 2, labels[1].a, labels[1].order_exponent) == zeta(2, 2)
    assert character_value_by_powers(one, 2, 2, labels[2].a, labels[2].order_exponent) == CycloNum.rational(2, -1, 1)
    # uniqueness: the labels enumerate the dual group once
    assert len({(psi.a) for psi in labels}) == 4


def test_r0_values():
    d = _double_edge()
    by_order = {}
    for psi in characters(2, 2):
        by_order.setdefault(psi.order, set()).add(r0(d, 2, psi))
    assert by_order == {1: {0}, 2: {0}, 4: {1}}


def test_h_polys_level_two():
    d = _double_edge()
    for psi in characters(2, 2):
        h = lfn_data_direct(d, 2, psi).h
        if psi.order == 1:
            assert _rational_poly(h) == [1, 0, -4, 0, 3]
        elif psi.order == 2:
            assert _rational_poly(h) == [1, 0, 4, 0, 3]
        else:
            assert _rational_poly(h) == [1, 0, 1]


def test_h_trivial_closed_form_along_levels():
    # det of [[1 + u^2, -2^n u], [-2u, 1 + (2^n - 1) u^2]]
    d = _double_edge()
    for n in range(1, 5):
        h = lfn_data_direct(d, n, CharacterLabel(2, n, 0)).h
        assert _rational_poly(h) == [1, 0, -(2**n), 0, 2**n - 1]


def test_h_empty_block_is_one():
    # fully ramified datum: every nontrivial character kills all vertices
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    d = TowerDatum(k3, 3, (0,) * 6, (0, 0, 0))
    psi = CharacterLabel(3, 1, 1)
    assert r0(d, 1, psi) == 3
    h = lfn_data_direct(d, 1, psi).h
    assert h.degree == 0 and h.coefficient(0) == 1


def test_z_polys_level_two():
    d = _double_edge()
    for psi in characters(2, 2):
        z = z_poly_direct(d, 2, psi)
        if psi.order == 4:
            assert _rational_poly(z) == [1, 0, 0, 0, -1]
        elif psi.order == 2:
            assert _rational_poly(z) == [1, 0, 4, 0, 3]
        else:
            assert _rational_poly(z) == [1, 0, -4, 0, 3]


def test_reduction_identity():
    data = [_double_edge()] + collect_random_data(71, 6, levels_connected=2)
    for d in data:
        for n in (1, 2):
            for psi in characters(d.p, n):
                j = psi.order_exponent
                one_minus = UniPoly(
                    [CycloNum.rational(d.p, 1, j), CycloNum.rational(d.p, 0, j), CycloNum.rational(d.p, -1, j)]
                )
                assert one_minus ** r0(d, n, psi) * lfn_data_direct(d, n, psi).h == z_poly_direct(d, n, psi)


def test_xi_poly_golden():
    d = _double_edge()
    xi = xi_poly(character_table(d, 2))
    assert xi.coefficient(0) == GroupRingElem.one(4)
    assert xi.coefficient(2) == GroupRingElem.from_dict(4, {1: -2, 3: -2})
    assert xi.coefficient(4) == GroupRingElem.from_dict(4, {0: 1, 2: 2})
    assert xi.degree == 4


def test_special_values_level_two():
    d = _double_edge()
    sv0 = lfn_data_direct(d, 2, CharacterLabel(2, 2, 0))
    assert not sv0.h_at_one
    assert sv0.h_derivative_at_one == 4
    sv2 = lfn_data_direct(d, 2, CharacterLabel(2, 2, 2))
    assert sv2.h_at_one.to_rational() == 8
    for a in (1, 3):
        sv = lfn_data_direct(d, 2, CharacterLabel(2, 2, a))
        assert sv.h_at_one.to_rational() == 2
    # -2 chi kappa = product of the special values
    assert 4 * 8 * 2 * 2 == 128 == -2 * (-2) * 32


def test_special_value_valuation():
    d = _double_edge()
    sv = lfn_data_direct(d, 2, CharacterLabel(2, 2, 2))
    assert ordp_cyclo(sv.h_at_one, 2).value == 3


def test_galois_stability():
    cases = [(_double_edge(), 3)] + [(d, 2) for d in collect_random_data(83, 4, levels_connected=2)]
    for d, n in cases:
        for psi in characters(d.p, n):
            j = psi.order_exponent
            if j == 0:
                continue
            for u in range(2, d.p**j):
                if u % d.p == 0:
                    continue
                conj = CharacterLabel(d.p, n, (psi.a * u) % d.p**n)
                if conj.order_exponent != j:
                    continue
                h1 = lfn_data_direct(d, n, psi).h.map_coeffs(lambda c: c.galois(u))
                assert h1 == lfn_data_direct(d, n, conj).h


def test_h_degree_bounds_and_integrality():
    data = [_double_edge()] + collect_random_data(91, 4, levels_connected=2)
    for d in data:
        g = d.base.n_vertices
        for n in (1, 2):
            for psi in characters(d.p, n):
                h = lfn_data_direct(d, n, psi).h
                assert h.degree <= 2 * (g - r0(d, n, psi))
                assert h.coefficient(0) == 1
                for c in h.coeffs:
                    assert all(x.denominator == 1 for x in c.coeffs)


def test_orbit_products_rational():
    d = _double_edge()
    prods = orbit_special_products(d, 2)
    assert prods == {1: Fraction(8), 2: Fraction(4)}


def test_product_formula_known_and_random():
    d = _double_edge()
    pc = product_formula_check(character_table(d, 2), build_level_graph(d, 2).graph)
    assert pc.ok
    assert [int(c) for c in pc.h_product.coeffs] == [1, 0, 2, 0, -9, 0, -20, 0, -1, 0, 18, 0, 9]
    assert pc.chi_sum == -2
    # chorded_heptagon(3): its order-3 characters keep all seven vertices, so h(u, psi)
    # is a 7 x 7 determinant over Q(zeta_3) of degree 14
    assert len(character_table(chorded_heptagon(3), 1).rep_coordinates[1]) == 14 + 1
    for d in [chorded_heptagon(3)] + collect_random_data(19, 5, levels_connected=2):
        for n in (1, 2):
            assert product_formula_check(character_table(d, n), build_level_graph(d, n).graph).ok


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_level_h_from_norms_matches_the_cover(seed, p):
    # the Artin-formalism h of every connected level 0..3 against the built cover's
    # determinant, and the zeta command's kappa against the matrix-tree count
    d = random_datum(random.Random(seed), p, levels_connected=0)
    for n in range(4):
        graph = build_level_graph(d, n).graph
        if not connected(graph):
            continue
        assert character_table(d, n).level_h() == ihara_zeta_reciprocal(graph)[0]
        assert cmd_zeta(d, n)["spanning_trees"] == spanning_tree_count(graph)


def test_c_exponents():
    d = _double_edge()
    exps = sorted(lfn_data_direct(d, 2, psi).c_exponent for psi in characters(2, 2))
    assert exps == [0, 0, 1, 1]


def test_l_reciprocal_of_sum_is_multiplicative():
    d = _double_edge()
    data = [lfn_data_direct(d, 2, psi) for psi in characters(2, 2)]
    c_total, h_total = l_reciprocal_of_sum(data)
    assert c_total == 2
    # the product of all character L^-1 is the zeta reciprocal of the cover
    rational = [c.to_rational() for c in h_total.coeffs]
    assert rational == [1, 0, 2, 0, -9, 0, -20, 0, -1, 0, 18, 0, 9]


def test_vanishing_order_check():
    d = _double_edge()
    assert vanishing_order_check(character_table(d, 2))["ok"]
    with pytest.raises(HypothesisError, match="chi"):
        vanishing_order_check(character_table(d, 1))  # chi(X_1) = 0
    cycle = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    flat = TowerDatum(cycle, 2, (0, 0, 0, 0), (None, None))
    with pytest.raises(HypothesisError):
        vanishing_order_check(character_table(flat, 1))


def test_orbit_products_match_character_products():
    data = [load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star")]
    for d, n in zip(data, (4, 3)):
        assert orbit_special_products(d, n) == orbit_special_products_by_characters(d, n)
    for d in collect_random_data(47, 6, levels_connected=2):
        for n in (1, 2):
            assert orbit_special_products(d, n) == orbit_special_products_by_characters(d, n)


def _orbit_matrix_norm(d, j):
    # N(det(D - A_zeta) on K_j), the matrix built over Q(zeta_{p^j}) from the darts
    kept = orbit_vertices(d, j)
    z = zeta(d.p, j)
    base = d.base
    m = [[CycloNum.rational(d.p, 0, j) for _ in kept] for _ in kept]
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        if o not in kept:
            continue
        m[kept.index(o)][kept.index(o)] += 1
        if t in kept:
            m[kept.index(t)][kept.index(o)] -= z ** (d.voltage[e] % d.p**j)
    return (det_cofactor(m) + CycloNum.rational(d.p, 0, j)).norm() if kept else 1


def test_orbit_norm_is_cyclonum_norm():
    data = [_double_edge()] + collect_random_data(53, 8, levels_connected=2)
    for d in data:
        norms = orbit_norms(d, 3)
        assert norms == {j: _orbit_matrix_norm(d, j) for j in (1, 2, 3)}


def test_trivial_derivative_is_special_value():
    for d in [_double_edge(), chorded_heptagon()] + collect_random_data(59, 6, levels_connected=2):
        for n in (0, 1, 2):
            want = lfn_data_direct(d, n, CharacterLabel(d.p, n, 0)).h_derivative_at_one
            got = trivial_h_derivative_at_one(d, n)
            assert type(got) is int and got == want


def _table_cases():
    fixtures = [load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star")]
    cases = [(d, n) for d in fixtures for n in range(1, 5)]
    for p, seed in ((2, 61), (3, 67)):
        for d in collect_random_data(seed, 4, p_choices=(p,), levels_connected=1):
            cases += [(d, n) for n in range(4)]
    return cases


def _coordinate_rows(h: UniPoly) -> list[list[int]]:
    # the integer power-basis coordinates of a polynomial over Z[zeta], row k its u^k coefficient
    return [[int(x) for x in c.coeffs] for c in h.coeffs]


def test_character_table_matches_per_character_routes():
    for d, n in _table_cases():
        table = character_table(d, n)
        assert table.representatives == [CharacterLabel(d.p, n, d.p ** (n - j)) for j in range(n + 1)]
        exponents = []
        for j, rep in enumerate(table.representatives):
            assert table.rep_coordinates[j] == _coordinate_rows(lfn_data_direct(d, n, rep).h)
            assert table.z(j) == _coordinate_rows(z_poly_direct(d, n, rep))
            for a, rows, h_at_one in table.orbit_rows(j):
                exponents.append(a)
                psi = CharacterLabel(d.p, n, a)
                assert psi.order_exponent == j
                sv = lfn_data_direct(d, n, psi)
                assert rows == _coordinate_rows(sv.h)
                assert h_at_one == [int(x) for x in sv.h_at_one.coeffs]
        assert sorted(exponents) == [psi.a for psi in characters(d.p, n)]
        trivial = lfn_data_direct(d, n, CharacterLabel(d.p, n, 0))
        assert table.trivial_h_derivative_at_one() == trivial.h_derivative_at_one


def _record_kernels(monkeypatch) -> list:
    # (kernel name, the j of each problem) for every call of the orbit kernel
    calls = []
    original = linalg.det_cyclotomic_poly

    def recorder(problems, p):
        calls.append(("det_cyclotomic_poly", [j for _, _, j in problems]))
        return original(problems, p)

    monkeypatch.setattr(linalg, "det_cyclotomic_poly", recorder)
    return calls


def test_character_table_takes_one_determinant_per_orbit(monkeypatch):
    # the table's h: one kernel call with one problem per orbit; every z: one more, on first use
    calls = _record_kernels(monkeypatch)
    d = load_datum(FIXTURES / "double_edge.json")
    for n in range(6):
        calls.clear()
        table = character_table(d, n)
        orbits = ("det_cyclotomic_poly", list(range(n + 1)))
        assert calls == [orbits]
        for j in range(n + 1):
            list(table.orbit_rows(j)), table.z(j), table.z(j)
        assert calls == [orbits, orbits]
    # one verify battery: h of the level-4 table, h of the quotient table at level 3 and z of the
    # level-4 table in one call, eta of the order-2 subgroup action and the cover's h (the product
    # formula takes its norms from the table's rows, with no kernel call)
    calls.clear()
    run_battery(d, 4)
    assert sorted(calls) == [
        ("det_cyclotomic_poly", [0]),
        ("det_cyclotomic_poly", [0, 1]),
        ("det_cyclotomic_poly", [0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2, 3, 4]),
    ]
    # with the trivial subgroup the quotient level is the level itself
    calls.clear()
    run_battery(d, 3, 1)
    assert sorted(calls) == [
        ("det_cyclotomic_poly", [0]),
        ("det_cyclotomic_poly", [0]),
        ("det_cyclotomic_poly", [0, 1, 2, 3, 0, 1, 2, 3]),
    ]


def test_character_tables_split_one_kernel_call_into_one_level_tables(monkeypatch):
    # the h and z of several levels from one call equal those of one-level tables
    calls = _record_kernels(monkeypatch)
    for name, levels in (("double_edge.json", [4, 2, 0]), ("triple_star.json", [2, 1])):
        d = load_datum(FIXTURES / name)
        calls.clear()
        tables = character_tables(d, levels, (levels[0], levels[-1]))
        assert len(calls) == 1
        for n, table in zip(levels, tables):
            alone = character_table(d, n)
            assert (table.level, table.representatives) == (n, alone.representatives)
            assert table.rep_coordinates == alone.rep_coordinates
            assert (table.rep_z is not None) == (n in (levels[0], levels[-1]))
            assert [table.z(j) for j in range(n + 1)] == [alone.z(j) for j in range(n + 1)]


def test_orbit_loops_make_one_kernel_call(monkeypatch):
    # the level's h (one table) and det_groupring_poly take all n + 1 orbits at once;
    # product_formula_check takes its norms from the table's rows, and only the cover's h from a kernel
    calls = _record_kernels(monkeypatch)
    for d, n in ((load_datum(FIXTURES / "double_edge.json"), 5), (load_datum(FIXTURES / "triple_star.json"), 3)):
        orbits = list(range(n + 1))
        calls.clear()
        character_table(d, n).level_h()
        assert calls == [("det_cyclotomic_poly", orbits)]
        table = character_table(d, n)
        cover = build_level_graph(d, n).graph
        calls.clear()
        product_formula_check(table, cover)
        assert calls == [("det_cyclotomic_poly", [0])]  # the cover's h
        calls.clear()
        terms = [(0, 0, s, 1, s + 1) for s in range(d.p**n)] + [(0, 0, 0, 0, 1)]
        linalg.det_groupring_poly(1, terms, d.p**n)
        assert calls == [("det_cyclotomic_poly", orbits)]


def test_verify_battery_builds_its_cover_once(monkeypatch):
    # product_formula_check and eta_for_subgroup_action take the battery's cover
    built = []
    original = tower.build_level_graph

    def recorder(d, n):
        built.append(n)
        return original(d, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphzeta") and getattr(module, "build_level_graph", None) is original:
            monkeypatch.setattr(module, "build_level_graph", recorder)
    d = load_datum(FIXTURES / "double_edge.json")
    for n, sub in ((3, None), (3, 1), (3, 8)):
        built.clear()
        run_battery(d, n, sub)
        assert built == [n]


def test_verify_riemann_hurwitz_checks_the_closed_vertex_count(monkeypatch):
    # the item compares the built cover's (|V|, |E|, chi) with level_shape, the sizes tower prints
    d = load_datum(FIXTURES / "double_edge.json")

    def item():
        return next(it for it in run_battery(d, 3) if it.name == "riemann-hurwitz")

    passing = item()
    assert passing.status == "pass"
    shape = verify.level_shape
    monkeypatch.setattr(verify, "level_shape", lambda d, n: (shape(d, n)[0] + 1, *shape(d, n)[1:]))
    assert item() == verify.VerifyItem("riemann-hurwitz", "fail", passing.detail)


def test_verify_battery_at_level_zero_checks_the_trivial_subgroup():
    d = load_datum(FIXTURES / "double_edge.json")
    items = run_battery(d, 0)
    assert items == run_battery(d, 0, 1)
    assert not [it.name for it in items if it.status == "fail"]
    assert [default_subgroup_order(p, n) for p, n in ((2, 0), (2, 1), (3, 0), (3, 2))] == [1, 2, 1, 3]


@st.composite
def _orbit_datum(draw):
    # 1-3 vertices, loops and multi-edges; voltages small, above p^n and past int64 (or all
    # multiples of p^n, which makes F_K = 0 where K holds every vertex); k_v = 0 and k_v >= n
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, {2: 4, 3: 3, 5: 2, 7: 2}[p]))
    size = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)] + draw(st.lists(pairs, max_size=3))
    small = st.integers(-40, 40)
    voltage = st.one_of(small, small.map(lambda a: a + 7 * p**n), small.map(lambda a: a - 2**64))
    if draw(st.booleans()):
        voltage = small.map(lambda a: a * p**n)
    volt = []
    for _ in edges:
        a = draw(voltage)
        volt += [a, -a]
    ram = tuple(draw(st.one_of(st.none(), st.integers(0, n + 1))) for _ in range(size))
    return TowerDatum(SerreGraph.from_edges(list(range(size)), edges), p, tuple(volt), ram), n


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_orbit_datum())
def test_orbit_norms_match_the_kernel_oracle(case):
    d, n = case
    assert orbit_norms(d, n) == {j: orbit_norm_by_kernel(d, j) for j in range(1, n + 1)}


@settings(max_examples=40)
@given(_orbit_datum())
def test_galois_stability_on_drawn_data(case):
    # every character's h rows and h(1), conjugated from its orbit representative by the table,
    # equal the oracle's, which takes each character's own group-ring matrices
    d, n = case
    table = character_table(d, n)
    for j in range(n + 1):
        for a, rows, h_at_one in table.orbit_rows(j):
            direct = lfn_data_direct(d, n, CharacterLabel(d.p, n, a))
            assert rows == _coordinate_rows(direct.h)
            assert h_at_one == [int(x) for x in direct.h_at_one.coeffs]


def test_orbit_norms_where_f_or_f_at_one_vanishes():
    triangle = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    # voltages that zeta_{p^j} cannot see: D - A_x is the Laplacian, F_K = 0
    flat = TowerDatum(triangle, 3, (9, -9, -18, 18, 27, -27), (None, None, 2))
    assert orbit_norms(flat, 2) == {1: 0, 2: 0} == {j: orbit_norm_by_kernel(flat, j) for j in (1, 2)}
    # every vertex unramified: F_K(1) = det of the Laplacian = 0, the norms are not
    cycle = TowerDatum(triangle, 2, (1, -1, 0, 0, 0, 0), (None, None, None))
    norms = orbit_norms(cycle, 4)
    assert all(norms.values())
    assert norms == {j: orbit_norm_by_kernel(cycle, j) for j in range(1, 5)}


def _loop_1000():
    # a loop of voltage 1000 at an unramified vertex: F_K has degree 2000 on K = {a}
    g = SerreGraph.from_edges(["a", "b"], [("a", "a"), ("a", "b"), ("a", "b")])
    return TowerDatum(g, 2, (1000, -1000, 1, -1, 0, 0), (None, 1))


def test_graeffe_iterates_stay_below_their_period(monkeypatch):
    # every G_i of a cyclotomic_norms(..., p, n) call is reduced mod y^(p^(n-i)) - 1
    chains = []
    norms, step = cyclo.cyclotomic_norms, cyclo._graeffe_step

    def record_norms(coeffs, p, n):
        chains.append((p, n, []))
        return norms(coeffs, p, n)

    def record_step(coeffs, p):
        chains[-1][2].append(len(coeffs))
        return step(coeffs, p)

    monkeypatch.setattr(cyclo, "_graeffe_step", record_step)
    monkeypatch.setattr(lfunctions, "cyclotomic_norms", record_norms)
    d = _loop_1000()
    got = orbit_norms(d, 11)
    assert [n for _, n, _ in chains] == [1, 11]  # K_1 = {a, b}; K_j = {a} for j >= 2
    p, n, lengths = chains[1]
    assert len(lengths) == n - 1
    assert all(length <= p ** (n - i) for i, length in enumerate(lengths))
    assert lengths[1] == p ** (n - 1)  # 2001 coefficients, folded from step 1 on
    assert all(got[j] == orbit_norm_by_kernel(d, j) for j in range(1, 6))


def test_ordp_orbit_product_refuses_orders_outside_the_level():
    d = _double_edge()
    assert [ordp_orbit_product(d, 3, j).value for j in (1, 2, 3)] == [4, 2, 4]  # N_j = 16, 4, 16
    for j in (0, 4, -1):
        with pytest.raises(ValueError):
            ordp_orbit_product(d, 3, j)
