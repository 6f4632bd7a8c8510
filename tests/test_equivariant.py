import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, collect_random_data, random_datum
from graphzeta.datum_io import load_datum
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
    subgroup_vertex_orbits,
    trace_map,
)
from graphzeta.graphs import SerreGraph
from graphzeta import linalg
from graphzeta.groupring import GroupRingElem, factor_prime_power, groupring_idempotent
from graphzeta.lfunctions import character_table, characters, r0
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum, build_level_graph
from oracles import CycloNum, character_value_by_powers, eta_direct, lfn_data_direct, norm_map_direct, zeta


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
        for psi in characters(d.p, n):
            proj = character_value_by_powers(value, d.p, n, psi.a, psi.order_exponent)
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
    eta = eta_poly(character_table(d, 2))
    for psi in characters(2, 2):
        h = lfn_data_direct(d, 2, psi).h
        lvl = 2
        projected = eta.map_coeffs(lambda c: character_value_by_powers(c, 2, 2, psi.a, lvl))
        lifted = h.map_coeffs(lambda c: c.lift(lvl))
        assert projected == lifted


def test_eta_subgroup_action_golden():
    d = _double_edge()
    eta_h = eta_for_subgroup_action(d, build_level_graph(d, 2), 2)
    assert eta_h.coefficient(0) == GroupRingElem.one(2)
    assert eta_h.coefficient(2) == GroupRingElem(2, (Fraction(1), Fraction(-1)))
    assert eta_h.coefficient(4) == GroupRingElem(2, (Fraction(-9, 2), Fraction(-11, 2)))
    assert eta_h.coefficient(6) == GroupRingElem.zero(2)
    assert eta_h.coefficient(8) == GroupRingElem(2, (Fraction(9, 2), Fraction(9, 2)))
    assert eta_h.degree == 8


def test_eta_subgroup_full_and_trivial():
    d = _double_edge()
    # trivial subgroup: plain zeta data of the cover, as Q[1][u]
    lg = build_level_graph(d, 2)
    eta_triv = eta_for_subgroup_action(d, lg, 1)
    from graphzeta.graphs import ihara_zeta_reciprocal

    h, _ = ihara_zeta_reciprocal(lg.graph)
    assert [c.coeffs[0] for c in eta_triv.coeffs] == [Fraction(c) for c in h.coeffs]
    # full subgroup: recovers eta over the whole group
    assert eta_for_subgroup_action(d, lg, 4) == eta_poly(character_table(d, 2))


def test_norm_map_golden_and_direct():
    d = _double_edge()
    eta_g = eta_poly(character_table(d, 2))
    eta_h = eta_for_subgroup_action(d, build_level_graph(d, 2), 2)
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


def _norm_in_prime_steps(x, m: int, subgroup_order: int) -> UniPoly:
    # norms are transitive, so N_{G/H} is the chain of index-p cofactor norms through the
    # subgroups in between: a single cofactor expansion of index 27 is out of reach
    p = factor_prime_power(m)[0]
    x = x if isinstance(x, UniPoly) else UniPoly.constant(x)
    while m > subgroup_order and not x.is_zero():
        m //= p
        x = norm_map_direct(x, m)
    return x


@pytest.mark.parametrize("p, n", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2**32), size=st.sampled_from([1, 7, 10**12]))
def test_norm_map_matches_cofactor_norms(p, n, seed, size):
    # rational elements of Q[Z/p^n Z][u] with denominators and zero coordinates; at size 10^12
    # the bound 2 B^k + 1 takes several CRT primes
    m = p**n
    rng = random.Random(seed)

    def coeff():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-size, size), rng.choice((1, 1, 2, 3, 4, 9)))

    x = UniPoly([GroupRingElem(m, [coeff() for _ in range(m)]) for _ in range(rng.randint(1, 3))])
    assume(not x.is_zero())
    for h in range(n + 1):
        expected = _norm_in_prime_steps(x, m, p**h)
        assert norm_map(x, p**h) == expected
        if m // p**h <= 8:  # a single cofactor expansion where it is quick
            assert norm_map_direct(x, p**h) == expected


def test_norm_map_refuses_cyclotomic_coefficients():
    x = GroupRingElem(4, [zeta(2, 2), Fraction(1), Fraction(0), Fraction(0)])
    with pytest.raises(ValueError, match="rational group-ring coefficients"):
        norm_map(x, 2)
    with pytest.raises(ValueError, match="rational group-ring coefficients"):
        linalg.norm_groupring_poly([(0, 0, 1), (1, 1, CycloNum.rational(2, 1, 1))], 4, 1)


def test_norm_induction_property_random():
    for d in collect_random_data(41, 3, levels_connected=3):
        for n in (2, 3):
            m = d.p**n
            eta_g = eta_poly(character_table(d, n))
            lg = build_level_graph(d, n)
            sub = 1
            while sub < m:
                sub *= d.p
                assert norm_map(eta_g, sub) == eta_for_subgroup_action(d, lg, sub)


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


def test_gamma_expand_rejects_exponents_split_within_an_orbit_or_of_wrong_length():
    # psi_1, psi_2 of Z/3Z are conjugate; so are psi_1, psi_3 of Z/4Z
    for p, n, exponents in ((3, 1, (0, -1, 0)), (2, 2, (-1, 0, 0, -1))):
        with pytest.raises(ValueError, match="constant on each Galois orbit"):
            gamma_expand(p, n, exponents)
    for exponents in ((0, -1, -1), (0, -1, -1, -1, 0)):
        with pytest.raises(ValueError, match="one per character"):
            gamma_expand(2, 2, exponents)


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
    d = _double_edge()
    n = 2
    ez = equiv_zeta(character_table(d, n))
    gamma_poly = gamma_expand(d.p, n, ez.gamma)
    theta_reciprocal = (gamma_poly * ez.eta).map_coeffs(
        lambda c: c if isinstance(c, GroupRingElem) else GroupRingElem.basis(d.p**n, 0, c)
    )
    for psi in characters(d.p, n):
        data = lfn_data_direct(d, n, psi)
        projected = theta_reciprocal.map_coeffs(lambda c: character_value_by_powers(c, d.p, n, psi.a, n))
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


def _eta_by_both_routes(d, n, order):
    # eta for the order-`order` subgroup on the level-n cover, as routed and with every orbit problem
    # forced onto the Kronecker route; returns the j of each problem the multimodular pass took
    lg = build_level_graph(d, n)
    passes = []
    multimodular = linalg._det_multimodular

    def recorder(k, terms, j, p, *bounds):
        passes.append(j)
        return multimodular(k, terms, j, p, *bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_det_multimodular", recorder)
        eta = eta_for_subgroup_action(d, lg, order)
        patch.setattr(linalg, "_kronecker_wins", lambda *args: True)
        assert eta_for_subgroup_action(d, lg, order) == eta
    return passes


def test_fixture_eta_above_the_switch_takes_the_pass_and_equals_the_kronecker_route():
    # the orbit problems above the size switch at j >= 1: 10 rows at j = 1 (double_edge level 4,
    # H of order 2), 10 at j = 1 and 2 (level 5, order 4), 12 at j = 1 and 6 at j = 2 (triple_star
    # level 3, orders 3 and 9)
    double_edge, triple_star = (load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star"))
    assert _eta_by_both_routes(double_edge, 4, 2) == [1]
    assert _eta_by_both_routes(double_edge, 5, 4) == [1, 2]
    assert _eta_by_both_routes(triple_star, 3, 3) == [1]
    assert _eta_by_both_routes(triple_star, 3, 9) == [2]


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from([(2, 3), (2, 4), (3, 2), (3, 3)]), st.integers(1, 2))
def test_random_eta_equals_the_kronecker_route(seed, level, h):
    # random tower data whose level-n cover has at most 20 orbits of H (order p^h): the routed eta
    # equals the all-Kronecker one, whichever orbit problems lie above the switch
    (p, n) = level
    d = random_datum(random.Random(seed), p, max_vertices=5, max_edges=8, max_k=2, levels_connected=0)
    assume(len(subgroup_vertex_orbits(d, build_level_graph(d, n), p**h)[1]) <= 20)
    _eta_by_both_routes(d, n, p**h)
