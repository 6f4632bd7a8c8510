from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, chorded_heptagon, collect_random_data
from graphzeta import cli, iwasawa, tower
from graphzeta.cyclo import euler_phi_prime_power, ordp_fraction
from graphzeta.datum_io import load_datum
from graphzeta.errors import CertificationError, HypothesisError
from graphzeta.graphs import SerreGraph, spanning_tree_count
from graphzeta.iwasawa import (
    char_ideal_generator,
    closed_form_invariants,
    fit_and_certify,
    g_series,
    lambda_components,
    mu_lambda,
    tower_sweep,
)
from graphzeta.lfunctions import CharacterLabel, characters, orbit_norms
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum, build_level_graph, tower_euler_char
from oracles import CycloNum, lfn_data_direct, ordp_cyclo, zeta


def _double_edge():
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    return TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))


def _two_loops_unramified():
    loops = SerreGraph.from_edges(["v"], [("v", "v"), ("v", "v")])
    return TowerDatum(loops, 2, (1, -1, 0, 0), (None,))


def _triangle_fully_ramified(p=3):
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    return TowerDatum(k3, p, (0,) * 6, (0, 0, 0))


def test_mu_lambda_extraction_fixtures():
    assert mu_lambda([1, 0, -1, 1, -1], 3) == (0, 0)
    assert mu_lambda([3, 0, -3, 3, -3], 3) == (1, 0)
    assert mu_lambda(UniPoly([0, 4, 2]), 2) == (1, 2)
    with pytest.raises(ValueError):
        mu_lambda([0, 0], 2)


def test_mu_lambda_takes_integer_coefficients_only():
    # integral Fractions count as integers; a non-integer raises even beside a zero series
    assert mu_lambda([Fraction(0), Fraction(12, 2), 9], 3) == (1, 1)
    assert mu_lambda(UniPoly([Fraction(-8), Fraction(4, 1)]), 2) == (2, 1)
    for coeffs in ([1, Fraction(1, 3)], [Fraction(1, 2)], [0, Fraction(0), Fraction(5, 2)]):
        with pytest.raises(ValueError, match="integer coefficients"):
            mu_lambda(coeffs, 3)
    with pytest.raises(ValueError, match="zero series"):
        mu_lambda(UniPoly([]), 5)


def test_g_series_double_edge():
    gs = g_series(_double_edge())
    assert gs.rep == UniPoly([2])
    assert gs.unit_exponent == 0
    assert (gs.mu_unr, gs.lambda_unr) == (1, 0)


def test_g_series_fully_ramified_is_one():
    gs = g_series(_triangle_fully_ramified())
    assert gs.rep == UniPoly([1])
    assert (gs.mu_unr, gs.lambda_unr) == (0, 0)


def test_g_series_unramified_loops():
    # 1x1 block: (1+T)(4 - 2 - (1+T) - (1+T)^{-1}) = -T^2
    gs = g_series(_two_loops_unramified())
    assert gs.rep == UniPoly([0, 0, -1])
    assert gs.unit_exponent == 1
    assert (gs.mu_unr, gs.lambda_unr) == (0, 2)


def test_g_specialization_identity():
    # ord_p(g(zeta - 1)) = ord_p(h(1, psi)) for characters of order beyond n1
    for d in [_double_edge(), _two_loops_unramified()]:
        gs = g_series(d)
        for n in range(1, 5):
            for psi in characters(d.p, n):
                j = psi.order_exponent
                if j <= d.n1 or j < 1:
                    continue
                point = zeta(d.p, j) - 1
                g_val = gs.rep.map_coeffs(lambda c: CycloNum.rational(d.p, c, j))(point)
                h1 = lfn_data_direct(d, n, psi).h_at_one
                assert ordp_cyclo(g_val, d.p) == ordp_cyclo(h1.lift(j), d.p)


def test_lambda_components_double_edge():
    d = _double_edge()
    assert lambda_components(d, g_series(d)) == (0, [1], 0)


def test_lambda_components_closed_forms():
    # two ramified vertices with k = 0 and k = 2 at p = 3
    g = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    d = TowerDatum(g, 3, (1, -1, 0, 0), (0, 2))
    lambda0, lambdas, lambda_unr = lambda_components(d, g_series(d))
    assert lambda0 == 1
    assert lambdas == [2, 6]
    assert lambda_unr == 0


def test_lambda_components_refusal():
    cycle = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    flat = TowerDatum(cycle, 2, (1, -1, 0, 0), (None, None))
    with pytest.raises(HypothesisError, match="V\\^ram"):
        lambda_components(flat, g_series(flat))


def test_closed_form_invariants():
    for d, expected in [
        (_double_edge(), (1, 1)),
        (_two_loops_unramified(), (0, 1)),
        (_triangle_fully_ramified(), (0, 2)),
    ]:
        assert closed_form_invariants(d, g_series(d)) == expected


def test_closed_form_requires_negative_chi():
    cycle = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    flat = TowerDatum(cycle, 2, (1, -1, 0, 0), (None, None))
    with pytest.raises(HypothesisError, match="eventually"):
        closed_form_invariants(flat, g_series(flat))


def test_hashimoto_kappa_certifies_the_quotient():
    # h'(1) = -2 chi kappa; a quotient that is not a positive integer is a certification failure
    assert iwasawa.hashimoto_kappa(448, -14, 4) == 16
    for h_derivative_at_one, chi in ((7, -1), (-4, -1), (0, -3)):
        with pytest.raises(CertificationError, match="level 4"):
            iwasawa.hashimoto_kappa(h_derivative_at_one, chi, 4)


def test_tower_sweep_double_edge():
    d = _double_edge()
    rows = tower_sweep(d, 6)
    assert [r.kappa for r in rows[:3]] == [2, 4, 32]
    assert [r.ordp_kappa for r in rows] == [1, 2, 5, 10, 19, 36, 69]
    assert [r.ordp_kappa for r in rows[1:]] == [2**n + n - 1 for n in range(1, 7)]
    assert [r.chi for r in rows] == [tower_euler_char(d, n) for n in range(7)]


def test_tower_sweep_disconnected_level():
    # zero voltages with an unramified vertex disconnect every level n >= 1
    g = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    d = TowerDatum(g, 2, (0, 0, 0, 0), (None, None))
    with pytest.raises(HypothesisError, match="disconnected"):
        tower_sweep(d, 2)


def test_fit_and_certify_double_edge():
    d = _double_edge()
    rows = tower_sweep(d, 6)
    inv = fit_and_certify(rows, 2, 1, 1, n1=d.n1)
    assert (inv.mu, inv.lam, inv.nu, inv.n0) == (1, 1, -1, 1)


def test_fit_and_certify_too_short():
    d = _double_edge()
    rows = tower_sweep(d, 3)
    with pytest.raises(CertificationError, match="asymptotic"):
        fit_and_certify(rows, 2, 1, 1, n1=d.n1)


def test_fit_rejects_wrong_invariants():
    d = _double_edge()
    rows = tower_sweep(d, 6)
    with pytest.raises(CertificationError):
        fit_and_certify(rows, 2, 0, 1, n1=d.n1)


def test_fully_ramified_triangle_growth():
    # kappa(X_n) = 3 p^(2n): each of the three two-edge trees lifts p^n ways per edge
    d = _triangle_fully_ramified(3)
    rows = tower_sweep(d, 4)
    assert [r.kappa for r in rows] == [3 * 9**n for n in range(5)]
    inv = fit_and_certify(rows, 3, 0, 2, n1=d.n1)
    assert (inv.mu, inv.lam, inv.nu) == (0, 2, 1)
    assert closed_form_invariants(d, g_series(d)) == (0, 2)


def test_unramified_loops_growth():
    # the level-n cover is a 2^n-cycle with a loop at every vertex
    d = _two_loops_unramified()
    rows = tower_sweep(d, 6)
    assert [r.kappa for r in rows] == [2**n for n in range(7)]
    inv = fit_and_certify(rows, 2, 0, 1, n1=0)
    assert (inv.mu, inv.lam, inv.nu, inv.n0) == (0, 1, 0, 0)


def test_char_ideal_generator_double_edge():
    d = _double_edge()
    gs = g_series(d)
    cig = char_ideal_generator(d, gs)
    assert cig.f == UniPoly([0, 4, 2])
    assert cig.f_over_t == UniPoly([4, 2])
    assert cig.mu == 1
    assert cig.lam_f_over_t == 1
    mu, lam = closed_form_invariants(d, gs)
    assert (cig.mu, cig.lam_f_over_t) == (mu, lam)


def test_char_ideal_unramified_is_g():
    d = _two_loops_unramified()
    gs = g_series(d)
    cig = char_ideal_generator(d, gs)
    assert cig.f == gs.rep
    assert (cig.mu, cig.lam_f_over_t) == closed_form_invariants(d, gs)


def test_char_ideal_fully_ramified():
    d = _triangle_fully_ramified(3)
    cig = char_ideal_generator(d, g_series(d))
    # g = 1, so f is the product of three copies of (1+T)^1 - 1 = T
    assert cig.f == UniPoly([0, 0, 0, 1])
    assert (cig.mu, cig.lam_f_over_t) == (0, 2)


def test_block_slope_checks_double_edge():
    from graphzeta.lfunctions import ordp_orbit_product

    d = _double_edge()
    lambda0, lambdas, _ = lambda_components(d, g_series(d))
    # h'(1, trivial) = 2^(n+1) - 4 has constant ord 2 from level 2 on: slope 0
    derivs = {}
    for n in (3, 4):
        sv = lfn_data_direct(d, n, CharacterLabel(2, n, 0))
        assert sv.h_derivative_at_one == 2 ** (n + 1) - 4
        derivs[n] = ordp_fraction(sv.h_derivative_at_one, 2).value
    assert derivs[4] - derivs[3] == lambda0 == 0
    # order-2 block: ord grows with slope lambda_1 = 1
    vals = {n: ordp_orbit_product(d, n, 1).value for n in (3, 4)}
    assert vals[4] - vals[3] == lambdas[0] == 1


def _required_depth(d) -> int:
    first_negative = next(n for n in range(0, 8) if tower_euler_char(d, n) < 0)
    return max(d.n1, first_negative) + 3


def test_global_consistency_random():
    checked = 0
    for d in collect_random_data(2024, 12, p_choices=(2, 3), max_k=1, levels_connected=3):
        try:
            mu, lam = closed_form_invariants(d, g_series(d))
        except HypothesisError:
            continue
        n_max = _required_depth(d)
        if n_max > (6 if d.p == 2 else 4):
            continue
        try:
            rows = tower_sweep(d, n_max)
        except HypothesisError:
            continue
        inv = fit_and_certify(rows, d.p, mu, lam, n1=d.n1)
        assert (inv.mu, inv.lam) == (mu, lam)
        checked += 1
    assert checked >= 6


def test_g_series_negative_voltage_row_normalization():
    # triangle with one fully ramified corner; the unramified block carries
    # a negative voltage, forcing a (1+T) row shift: det = 3(1+T), g = 3
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    d = TowerDatum(k3, 2, (-1, 1, 2, -2, 0, 0), (None, None, 0))
    gs = g_series(d)
    assert gs.rep == UniPoly([3, 3])
    assert gs.unit_exponent == 1
    assert (gs.mu_unr, gs.lambda_unr) == (0, 0)
    # cross-check through the specialization at a deep character
    for n in (2, 3):
        for psi in characters(d.p, n):
            if psi.order_exponent <= d.n1:
                continue
            h1 = lfn_data_direct(d, n, psi).h_at_one
            assert ordp_cyclo(h1, d.p) == ordp_fraction(3, d.p)


def test_two_ramified_vertices_deep_tower():
    # k = 0 and k = 2 at p = 3: lambda blocks phi(3)*1 and phi(9)*1, and the
    # sweep certifies lambda = 9 = 0 + (1 + 9) - 1 with slope starting at n = 2
    g = SerreGraph.from_edges(["a", "b"], [("a", "b"), ("a", "b")])
    d = TowerDatum(g, 3, (1, -1, 0, 0), (0, 2))
    gs = g_series(d)
    assert lambda_components(d, gs) == (1, [2, 6], 0)
    mu, lam = closed_form_invariants(d, gs)
    assert (mu, lam) == (0, 9)
    rows = tower_sweep(d, 5)
    assert [r.ordp_kappa for r in rows] == [0, 0, 0, 9, 18, 27]
    fitted = fit_and_certify(rows, 3, mu, lam, n1=d.n1)
    assert (fitted.mu, fitted.lam, fitted.nu, fitted.n0) == (0, 9, -18, 2)


def _direct_kappas(d, n_max):
    return [spanning_tree_count(build_level_graph(d, n).graph) for n in range(n_max + 1)]


def test_factored_kappa_matches_cover_on_fixtures():
    for name, n_max in (("double_edge", 8), ("triple_star", 5)):
        d = load_datum(FIXTURES / f"{name}.json")
        assert [r.kappa for r in tower_sweep(d, n_max)] == _direct_kappas(d, n_max)


def test_factored_kappa_matches_cover_on_random_data():
    for d in collect_random_data(61, 12, levels_connected=4):
        assert [r.kappa for r in tower_sweep(d, 4)] == _direct_kappas(d, 4)


@settings(max_examples=40)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_factored_kappa_matches_cover_on_drawn_data(seed, p):
    # a datum drawn from the seed, levels 0..4 connected: the sweep's kappa against the covers'
    [d] = collect_random_data(seed, 1, p_choices=(p,), levels_connected=4)
    assert [r.kappa for r in tower_sweep(d, 4)] == _direct_kappas(d, 4)


def test_cover_count_only_where_chi_vanishes(monkeypatch):
    # double_edge has chi(X_0) = chi(X_1) = 0 and chi(X_n) < 0 from n = 2
    counted = []

    def recording_count(graph):
        counted.append(graph.n_vertices)
        return spanning_tree_count(graph)

    monkeypatch.setattr(iwasawa, "spanning_tree_count", recording_count)
    rows = tower_sweep(_double_edge(), 4)
    assert [r.chi for r in rows[:2]] == [0, 0]
    assert counted == [rows[0].n_vertices, rows[1].n_vertices]
    assert [r.kappa for r in rows] == _direct_kappas(_double_edge(), 4)


def test_sweeps_build_level_one_and_the_chi_zero_levels_only(monkeypatch):
    # sizes and chi come from the datum, connectivity from the level-1 cover
    built = []
    original = tower.build_level_graph

    def recorder(d, n):
        built.append(n)
        return original(d, n)

    for module in (tower, iwasawa, cli):
        monkeypatch.setattr(module, "build_level_graph", recorder)
    for name, n_max in (("double_edge", 12), ("triple_star", 8)):
        d = load_datum(FIXTURES / f"{name}.json")
        built.clear()
        rows = tower_sweep(d, n_max)
        chi_zero = [r.n for r in rows if r.chi == 0]
        assert sorted(built) == sorted([1] + chi_zero)
        assert chi_zero and max(chi_zero) <= 1  # the fixtures have chi(X_n) < 0 from level 2
    built.clear()
    doc = cli.cmd_zeta(load_datum(FIXTURES / "double_edge.json"), 8)
    assert doc["euler_characteristic"] != 0
    assert built == [1]


def test_factored_kappa_matches_cover_on_a_seven_vertex_base():
    d = chorded_heptagon()
    assert [r.kappa for r in tower_sweep(d, 3)] == _direct_kappas(d, 3)


def test_tower_sweep_takes_the_orbit_norms_once(monkeypatch):
    calls = []

    def recording_norms(d, n):
        calls.append(n)
        return orbit_norms(d, n)

    monkeypatch.setattr(iwasawa, "orbit_norms", recording_norms)
    rows = tower_sweep(_double_edge(), 6)
    assert calls == [6]  # on level 2, the first with chi != 0
    assert [r.kappa for r in rows] == _direct_kappas(_double_edge(), 6)


def test_orbit_norms_beyond_the_kernel_prime_ceiling():
    # the tail of the orbit valuations: e_j = ord_p Ntilde_j = mu_unr phi(p^j) + lambda_unr for
    # every j > J0 = max(n1, min{j : phi(p^j) > lambda_unr}), on the fixtures past the levels
    # where q = 1 mod p^j below 2^31 runs out (17 and 11), and on data with a nonconstant g
    fixtures = [(load_datum(FIXTURES / f"{name}.json"), n) for name, n in (("double_edge", 20), ("triple_star", 13))]
    others = [(_two_loops_unramified(), 12)] + [(d, 10) for d in collect_random_data(73, 8, levels_connected=1)]
    checked = 0
    for d, n in fixtures + others:
        try:
            gs = g_series(d)
        except HypothesisError:  # g = 0
            continue
        phi = [euler_phi_prime_power(d.p, j) for j in range(n + 1)]
        j0 = max(d.n1, next(j for j in range(n + 1) if phi[j] > gs.lambda_unr))
        norms = orbit_norms(d, n)
        for j in range(j0 + 1, n + 1):
            assert ordp_fraction(norms[j], d.p).value == gs.mu_unr * phi[j] + gs.lambda_unr
            checked += 1
    assert checked > 60


def test_tower_sweep_ordp_is_the_valuation_of_kappa():
    # the sweep sums the valuations of kappa's factors; on random data (with chi(X_n) = 0 levels
    # among them) and on the fixtures that is ord_p(kappa) at every level
    data = collect_random_data(79, 16, max_k=3, levels_connected=1)
    data += [load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star")]
    for d in data:
        rows = tower_sweep(d, 6 if d.p == 2 else 4)
        assert [r.ordp_kappa for r in rows] == [ordp_fraction(r.kappa, d.p).value for r in rows]
