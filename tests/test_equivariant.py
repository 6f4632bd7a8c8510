from fractions import Fraction

import pytest

from conftest import collect_random_data
from graphzeta.equivariant import (
    equiv_zeta,
    equivariant_euler_char,
    eta_for_subgroup_action,
    eta_poly,
    gamma_expand,
    gamma_exponents,
    inflation_check,
    norm_gamma_exponents,
    norm_map,
    trace_map,
)
from graphzeta.graphs import SerreGraph
from graphzeta.groupring import GroupRingElem, groupring_idempotent
from graphzeta.lfunctions import character_table, characters, h_poly, r0
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum
from oracles import eta_direct, norm_map_direct


def _double_edge():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    return TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))


GOLDEN_ETA_U2 = GroupRingElem(4, (Fraction(1, 2), Fraction(-2), Fraction(-1, 2), Fraction(-2)))
GOLDEN_ETA_U4 = GroupRingElem(4, (Fraction(3, 2), 0, Fraction(3, 2), 0))


def test_equivariant_euler_char_golden():
    d = _double_edge()
    value = equivariant_euler_char(d, 2).value
    assert value == groupring_idempotent(4, 2) - 1


def test_equivariant_euler_char_unramified_and_level_one():
    d = _double_edge()
    assert equivariant_euler_char(d, 1).value == GroupRingElem.zero(2)
    loops = SerreGraph.from_edges(["v"], [("v", "v"), ("v", "v")])
    du = TowerDatum(loops, 2, (1, -1, 0, 0), (None,))
    assert equivariant_euler_char(du, 2).value == GroupRingElem.basis(4, 0, -1)


def test_equivariant_euler_char_projects_to_chi_psi():
    for d in [_double_edge()] + collect_random_data(29, 4, levels_connected=2):
        n = 2
        value = equivariant_euler_char(d, n).value
        chi_base = d.base.n_vertices - d.base.n_edges
        from graphzeta.groupring import apply_character

        for psi in characters(d.p, n):
            proj = apply_character(value, psi)
            assert proj == chi_base - r0(d, n, psi)


def test_eta_golden():
    d = _double_edge()
    eta = eta_poly(character_table(d, 2))
    assert eta.coefficient(0) == GroupRingElem.one(4)
    assert eta.coefficient(2) == GOLDEN_ETA_U2
    assert eta.coefficient(4) == GOLDEN_ETA_U4
    assert eta.degree == 4


def test_eta_single_vertex_no_edges():
    lonely = SerreGraph(("v",), (), (), ())
    d = TowerDatum(lonely, 2, (), (None,))
    eta = eta_poly(character_table(d, 2))
    # one vertex of valence 0: eta = 1 - u^2 over the group ring
    assert eta == UniPoly([GroupRingElem.one(4), GroupRingElem.zero(4), -GroupRingElem.one(4)])


def test_eta_direct_cross_check():
    for d in [_double_edge()] + collect_random_data(37, 4, levels_connected=2):
        for n in (1, 2):
            assert eta_poly(character_table(d, n)) == eta_direct(d, n)


def test_eta_character_consistency():
    d = _double_edge()
    from graphzeta.groupring import apply_character

    eta = eta_poly(character_table(d, 2))
    for psi in characters(2, 2):
        h = h_poly(d, 2, psi)
        lvl = 2
        projected = eta.map_coeffs(lambda c: apply_character(c, psi, level=lvl))
        lifted = h.map_coeffs(lambda c: c.lift(lvl))
        assert projected == lifted


def test_eta_subgroup_action_golden():
    d = _double_edge()
    eta_h = eta_for_subgroup_action(d, 2, 2)
    assert eta_h.coefficient(0) == GroupRingElem.one(2)
    assert eta_h.coefficient(2) == GroupRingElem(2, (Fraction(1), Fraction(-1)))
    assert eta_h.coefficient(4) == GroupRingElem(2, (Fraction(-9, 2), Fraction(-11, 2)))
    assert eta_h.coefficient(6) == GroupRingElem.zero(2)
    assert eta_h.coefficient(8) == GroupRingElem(2, (Fraction(9, 2), Fraction(9, 2)))
    assert eta_h.degree == 8


def test_eta_subgroup_full_and_trivial():
    d = _double_edge()
    # trivial subgroup: plain zeta data of the cover, as Q[1][u]
    eta_triv = eta_for_subgroup_action(d, 2, 1)
    from graphzeta.graphs import ihara_zeta_reciprocal
    from graphzeta.tower import build_level_graph

    h, _ = ihara_zeta_reciprocal(build_level_graph(d, 2).graph)
    assert [c.coeffs[0] for c in eta_triv.coeffs] == [Fraction(c) for c in h.coeffs]
    # full subgroup: recovers eta over the whole group
    assert eta_for_subgroup_action(d, 2, 4) == eta_poly(character_table(d, 2))


def test_norm_map_golden_and_direct():
    d = _double_edge()
    eta_g = eta_poly(character_table(d, 2))
    eta_h = eta_for_subgroup_action(d, 2, 2)
    assert norm_map(eta_g, 2) == eta_h
    assert norm_map_direct(eta_g, 2) == eta_h


def test_norm_map_of_unit():
    one = UniPoly.constant(GroupRingElem.one(8))
    assert norm_map(one, 2) == UniPoly.constant(GroupRingElem.one(2))
    assert norm_map_direct(one, 2) == UniPoly.constant(GroupRingElem.one(2))


def test_norm_map_multiplicative():
    import random

    rng = random.Random(77)
    for _ in range(5):
        x = UniPoly(
            [GroupRingElem(4, tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))) for _ in range(3)]
        )
        y = UniPoly(
            [GroupRingElem(4, tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))) for _ in range(2)]
        )
        assert norm_map(x * y, 2) == norm_map(x, 2) * norm_map(y, 2)


def test_norm_induction_property_random():
    for d in collect_random_data(41, 3, levels_connected=3):
        for n in (2, 3):
            m = d.p**n
            eta_g = eta_poly(character_table(d, n))
            sub = 1
            while sub < m:
                sub *= d.p
                assert norm_map(eta_g, sub) == eta_for_subgroup_action(d, n, sub)


def test_gamma_exponents_and_norm():
    d = _double_edge()
    exps = gamma_exponents(d, 2)
    assert exps == (0, -1, 0, -1)
    assert norm_gamma_exponents(d, 2, 2) == (0, -2)
    gamma_h = gamma_expand(2, 1, norm_gamma_exponents(d, 2, 2))
    assert gamma_h.coefficient(0) == GroupRingElem.one(2)
    assert gamma_h.coefficient(2) == GroupRingElem(2, (Fraction(-1), Fraction(1)))
    assert gamma_h.coefficient(4) == GroupRingElem(2, (Fraction(1, 2), Fraction(-1, 2)))


def test_gamma_expand_rejects_positive_exponents():
    with pytest.raises(ValueError):
        gamma_expand(2, 1, (1, 0))


def test_equiv_zeta_bundle():
    d = _double_edge()
    ez = equiv_zeta(character_table(d, 2))
    assert ez.m == 4
    assert ez.gamma == (0, -1, 0, -1)
    assert ez.eta.coefficient(2) == GOLDEN_ETA_U2


def test_trace_map_values():
    e_k = groupring_idempotent(4, 2)
    t = trace_map(e_k, 2)
    # (G:K)/(H:H cap K) = 2, so T(e_K) = 2 e_{K cap H}
    assert t == GroupRingElem(2, (Fraction(1), Fraction(1)))
    assert trace_map(GroupRingElem.basis(4, 1), 2) == GroupRingElem.zero(2)
    assert trace_map(GroupRingElem.one(4), 2) == GroupRingElem.basis(2, 0, 2)


def test_trace_compatible_with_euler_char():
    for d in [_double_edge()] + collect_random_data(59, 3, levels_connected=2):
        n = 2
        chi_g = equivariant_euler_char(d, n).value
        traced = trace_map(chi_g, d.p)
        # independent computation from the orbit structure of the cover
        direct = _subgroup_euler_char_direct(d, n, d.p)
        assert traced == direct


def _subgroup_euler_char_direct(d, n, subgroup_order):
    from graphzeta.tower import build_level_graph

    lg = build_level_graph(d, n)
    graph = lg.graph
    m = d.p**n
    step = m // subgroup_order
    seen = {}
    total = GroupRingElem.zero(subgroup_order)
    for vi in range(graph.n_vertices):
        base = lg.vertex_base[vi]
        fiber = d.fiber_size(base, n)
        rep = lg.vertex_rep[vi]
        orbit = frozenset((base, (rep + t * step) % fiber) for t in range(subgroup_order))
        if orbit in seen:
            continue
        seen[orbit] = True
        stab = subgroup_order // len(orbit)
        total = total + groupring_idempotent(subgroup_order, stab)
    return total - graph.n_edges // subgroup_order


def test_inflation_failure_golden():
    d = _double_edge()
    rep = inflation_check(eta_poly(character_table(d, 2)), character_table(d, 1))
    assert not rep.equal
    assert rep.lhs.coefficient(0) == GroupRingElem.one(2)
    assert rep.lhs.coefficient(2) == GroupRingElem.from_dict(2, {1: -4})
    assert rep.lhs.coefficient(4) == GroupRingElem.from_dict(2, {0: 3})
    # the quotient cover is a four-cycle; its eta is 1 - 2[1]u^2 + u^4
    assert rep.rhs.coefficient(0) == GroupRingElem.one(2)
    assert rep.rhs.coefficient(2) == GroupRingElem.from_dict(2, {1: -2})
    assert rep.rhs.coefficient(4) == GroupRingElem.one(2)


def test_inflation_trivial_subgroup_is_identity():
    d = _double_edge()
    rep = inflation_check(eta_poly(character_table(d, 2)), character_table(d, 2))
    assert rep.equal
    assert rep.lhs == eta_poly(character_table(d, 2))


def test_inflation_full_group():
    d = _double_edge()
    rep = inflation_check(eta_poly(character_table(d, 2)), character_table(d, 0))
    # lhs is h(u, trivial), rhs is the base h; unequal for ramified data
    assert [c.coeffs[0] for c in rep.lhs.coeffs] == [1, 0, -4, 0, 3]
    assert [c.coeffs[0] for c in rep.rhs.coeffs] == [1, 0, -2, 0, 1]
    assert not rep.equal
    # with no ramification the two sides agree
    loops = SerreGraph.from_edges(["v"], [("v", "v"), ("v", "v")])
    du = TowerDatum(loops, 2, (1, -1, 0, 0), (None,))
    rep_u = inflation_check(eta_poly(character_table(du, 1)), character_table(du, 0))
    assert rep_u.equal


def test_theta_reciprocal_projects_to_l_reciprocals():
    # gamma * eta is the reciprocal equivariant zeta; per character it must
    # give (1 - u^2)^(c-exponent) * h(u, psi)
    from graphzeta.groupring import apply_character
    from graphzeta.lfunctions import lfn_data
    from graphzeta.cyclo import CycloNum

    d = _double_edge()
    n = 2
    ez = equiv_zeta(character_table(d, n))
    gamma_poly = gamma_expand(d.p, n, ez.gamma)
    theta_reciprocal = (gamma_poly * ez.eta).map_coeffs(
        lambda c: c if isinstance(c, GroupRingElem) else GroupRingElem.basis(d.p**n, 0, c)
    )
    for psi in characters(d.p, n):
        data = lfn_data(d, n, psi)
        projected = theta_reciprocal.map_coeffs(lambda c: apply_character(c, psi, level=n))
        one_minus = UniPoly(
            [
                CycloNum.rational(d.p, 1, n),
                CycloNum.rational(d.p, 0, n),
                CycloNum.rational(d.p, -1, n),
            ]
        )
        expected = one_minus ** data.c_exponent * data.h.map_coeffs(
            lambda c: c.lift(n)
        )
        # normalize the int zero slots on both sides before comparing
        norm = lambda poly: poly.map_coeffs(
            lambda c: c if isinstance(c, CycloNum) else CycloNum.rational(d.p, c, n)
        )
        assert norm(projected) == norm(expected)
