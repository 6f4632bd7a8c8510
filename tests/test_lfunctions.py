from fractions import Fraction

import pytest

from conftest import FIXTURES, chorded_heptagon, collect_random_data
from graphzeta.cyclo import CycloNum, ordp_cyclo, zeta
from graphzeta.datum_io import load_datum
from graphzeta.errors import HypothesisError
from graphzeta import lfunctions
from graphzeta.graphs import SerreGraph
from graphzeta.lfunctions import (
    CharacterLabel,
    character_table,
    characters,
    h_poly,
    l_reciprocal_of_sum,
    lfn_data,
    orbit_norm,
    orbit_special_products,
    orbit_vertices,
    product_formula_check,
    r0,
    special_values,
    trivial_h_derivative_at_one,
    vanishing_order_check,
    xi_poly,
    z_poly,
)
from graphzeta.groupring import GroupRingElem
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum
from graphzeta.verify import run_battery
from oracles import det_cofactor, orbit_special_products_by_characters


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
    assert labels[1].value(1) == zeta(2, 2)
    assert labels[2].value(1) == CycloNum.rational(2, -1, 1)
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
        h = h_poly(d, 2, psi)
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
        h = h_poly(d, n, CharacterLabel(2, n, 0))
        assert _rational_poly(h) == [1, 0, -(2**n), 0, 2**n - 1]


def test_h_empty_block_is_one():
    # fully ramified datum: every nontrivial character kills all vertices
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    d = TowerDatum(k3, 3, (0,) * 6, (0, 0, 0))
    psi = CharacterLabel(3, 1, 1)
    assert r0(d, 1, psi) == 3
    h = h_poly(d, 1, psi)
    assert h.degree == 0 and h.coefficient(0) == 1


def test_z_polys_level_two():
    d = _double_edge()
    for psi in characters(2, 2):
        z = z_poly(d, 2, psi)
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
                assert one_minus ** r0(d, n, psi) * h_poly(d, n, psi) == z_poly(d, n, psi)


def test_xi_poly_golden():
    d = _double_edge()
    xi = xi_poly(character_table(d, 2))
    assert xi.coefficient(0) == GroupRingElem.one(4)
    assert xi.coefficient(2) == GroupRingElem.from_dict(4, {1: -2, 3: -2})
    assert xi.coefficient(4) == GroupRingElem.from_dict(4, {0: 1, 2: 2})
    assert xi.degree == 4


def test_special_values_level_two():
    d = _double_edge()
    sv0 = special_values(d, 2, CharacterLabel(2, 2, 0))
    assert not sv0.h_at_one
    assert sv0.h_derivative_at_one == 4
    sv2 = special_values(d, 2, CharacterLabel(2, 2, 2))
    assert sv2.h_at_one.to_rational() == 8
    for a in (1, 3):
        sv = special_values(d, 2, CharacterLabel(2, 2, a))
        assert sv.h_at_one.to_rational() == 2
    # -2 chi kappa = product of the special values
    assert 4 * 8 * 2 * 2 == 128 == -2 * (-2) * 32


def test_special_value_valuation():
    d = _double_edge()
    sv = special_values(d, 2, CharacterLabel(2, 2, 2))
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
                h1 = h_poly(d, n, psi).map_coeffs(lambda c: c.galois(u))
                assert h1 == h_poly(d, n, conj)


def test_h_degree_bounds_and_integrality():
    data = [_double_edge()] + collect_random_data(91, 4, levels_connected=2)
    for d in data:
        g = d.base.n_vertices
        for n in (1, 2):
            for psi in characters(d.p, n):
                h = h_poly(d, n, psi)
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
    pc = product_formula_check(character_table(d, 2))
    assert pc.ok
    assert [int(c) for c in pc.h_product.coeffs] == [1, 0, 2, 0, -9, 0, -20, 0, -1, 0, 18, 0, 9]
    assert pc.chi_sum == -2
    # chorded_heptagon(3): its order-3 characters keep all seven vertices, so h(u, psi)
    # is a 7 x 7 determinant over Q(zeta_3) of degree 14
    assert character_table(chorded_heptagon(3), 1).rep_h[1].degree == 14
    for d in [chorded_heptagon(3)] + collect_random_data(19, 5, levels_connected=2):
        for n in (1, 2):
            assert product_formula_check(character_table(d, n)).ok


def test_c_exponents():
    d = _double_edge()
    exps = sorted(lfn_data(d, 2, psi).c_exponent for psi in characters(2, 2))
    assert exps == [0, 0, 1, 1]


def test_l_reciprocal_of_sum_is_multiplicative():
    d = _double_edge()
    data = [lfn_data(d, 2, psi) for psi in characters(2, 2)]
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
        for j in (1, 2, 3):
            assert orbit_norm(d, j) == _orbit_matrix_norm(d, j)


def test_trivial_derivative_is_special_value():
    for d in [_double_edge(), chorded_heptagon()] + collect_random_data(59, 6, levels_connected=2):
        for n in (0, 1, 2):
            want = special_values(d, n, CharacterLabel(d.p, n, 0)).h_derivative_at_one
            got = trivial_h_derivative_at_one(d, n)
            assert type(got) is int and got == want


def _table_cases():
    fixtures = [load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star")]
    cases = [(d, n) for d in fixtures for n in range(1, 5)]
    for p, seed in ((2, 61), (3, 67)):
        for d in collect_random_data(seed, 4, p_choices=(p,), levels_connected=1):
            cases += [(d, n) for n in range(4)]
    return cases


def test_character_table_matches_per_character_routes():
    for d, n in _table_cases():
        table = character_table(d, n)
        assert table.representatives == [CharacterLabel(d.p, n, d.p ** (n - j)) for j in range(n + 1)]
        for psi in characters(d.p, n):
            sv = special_values(d, n, psi)
            got = table.special_values(psi)
            assert table.h(psi) == h_poly(d, n, psi)
            assert table.z(psi) == z_poly(d, n, psi)
            assert got.h_at_one == sv.h_at_one
            assert got.h_derivative_at_one == sv.h_derivative_at_one
            assert table.lfn_data(psi) == lfn_data(d, n, psi)


def test_character_table_takes_one_determinant_per_orbit(monkeypatch):
    calls = []
    for name in ("h_poly", "z_poly"):
        original = getattr(lfunctions, name)

        def recorder(d, n, psi, name=name, original=original):
            calls.append((name, n, psi))
            return original(d, n, psi)

        monkeypatch.setattr(lfunctions, name, recorder)
    d = load_datum(FIXTURES / "double_edge.json")
    for n in range(6):
        calls.clear()
        table = character_table(d, n)
        assert calls == [("h_poly", n, psi) for psi in table.representatives]
        for psi in table.characters:
            table.h(psi), table.z(psi), table.special_values(psi), table.lfn_data(psi)
        z_calls = calls[n + 1 :]  # in order of first use
        assert len(z_calls) == n + 1
        assert set(z_calls) == {("z_poly", n, psi) for psi in table.representatives}
    # one verify battery: a table at level 4 and one at the quotient level 3
    calls.clear()
    run_battery(d, 4)
    h_calls = [call for call in calls if call[0] == "h_poly"]
    assert len(h_calls) == len(set(h_calls)) == 5 + 4
    assert len(calls) == len(set(calls))
    # with the trivial subgroup the quotient level is the level itself
    calls.clear()
    run_battery(d, 3, 1)
    assert len(calls) == len(set(calls)) == 2 * 4
