"""End-to-end checks of the shipped p = 3 fixture against hand-derived values.

Base: two vertices joined by two edges with voltages 1 and 0; v2 is
Ramified(1).  The level-n cover has 3^n vertices above v1 and three hubs
above v2; level 1 is a hexagon.  Hand computation of the three-term
determinants gives

    h(u, trivial)     = 1 - 2*3^(n-1) u^2 + (2*3^(n-1) - 1) u^4
    h(1, order 3)     = 3^n          (two characters)
    h(1, deeper)      = 2            (matching g(T) = 2)

so ord_3(kappa(X_n)) = 2n - 1 from level 1 on.
"""

from fractions import Fraction

from conftest import FIXTURES
from oracles import CycloNum, count_spanning_trees_exhaustive, lfn_data_direct, ordp_cyclo
from graphzeta.datum_io import load_datum
from graphzeta.equivariant import eta_for_subgroup_action, eta_poly, norm_map
from graphzeta.graphs import spanning_tree_count
from graphzeta.iwasawa import (
    char_ideal_generator,
    closed_form_invariants,
    fit_and_certify,
    g_series,
    lambda_components,
    tower_sweep,
)
from graphzeta.lfunctions import (
    CharacterLabel,
    character_table,
    characters,
    product_formula_check,
)
from graphzeta.poly import UniPoly
from graphzeta.tower import build_level_graph
from graphzeta.verify import run_battery


def _datum():
    return load_datum(FIXTURES / "triple_star.json")


def test_level_one_is_a_hexagon():
    d = _datum()
    g = build_level_graph(d, 1).graph
    assert g.n_vertices == 6 and g.n_edges == 6
    assert spanning_tree_count(g) == 6
    assert count_spanning_trees_exhaustive(g) == 6


def test_h_trivial_closed_form():
    d = _datum()
    for n in (1, 2, 3):
        h = lfn_data_direct(d, n, CharacterLabel(3, n, 0)).h
        expected = [1, 0, -2 * 3 ** (n - 1), 0, 2 * 3 ** (n - 1) - 1]
        assert [c.to_rational() for c in h.coeffs] == expected


def test_special_values_by_order():
    d = _datum()
    for n in (1, 2, 3):
        for psi in characters(3, n):
            sv = lfn_data_direct(d, n, psi)
            j = psi.order_exponent
            if j == 0:
                assert not sv.h_at_one
                assert sv.h_derivative_at_one == 4 * 3 ** (n - 1) - 4
            elif j == 1:
                assert ordp_cyclo(sv.h_at_one, 3).value == n
            else:
                assert sv.h_at_one == CycloNum.rational(3, 2, j)


def test_product_formula_level_two():
    d = _datum()
    assert product_formula_check(character_table(d, 2), build_level_graph(d, 2).graph).ok


def test_sweep_and_invariants():
    d = _datum()
    # chi(X_1) = 0, so certification needs three rows past level 2
    rows = tower_sweep(d, 5)
    assert rows[1].kappa == 6
    assert [r.ordp_kappa for r in rows[1:]] == [2 * n - 1 for n in range(1, 6)]
    gs = g_series(d)
    assert gs.rep == UniPoly([2])
    assert (gs.mu_unr, gs.lambda_unr) == (0, 0)
    assert lambda_components(d, gs) == (0, [2], 0)
    mu, lam = closed_form_invariants(d, gs)
    assert (mu, lam) == (0, 2)
    fitted = fit_and_certify(rows, 3, mu, lam, n1=d.n1)
    assert (fitted.mu, fitted.lam, fitted.nu, fitted.n0) == (0, 2, -1, 1)


def test_char_ideal():
    d = _datum()
    cig = char_ideal_generator(d, g_series(d))
    # f = 2((1+T)^3 - 1) = 2T^3 + 6T^2 + 6T
    assert cig.f == UniPoly([0, 6, 6, 2])
    assert cig.f_over_t == UniPoly([6, 6, 2])
    assert (cig.mu, cig.lam_f_over_t) == (0, 2)


def test_norm_induction_over_z9():
    d = _datum()
    eta_g = eta_poly(character_table(d, 2))
    assert norm_map(eta_g, 3) == eta_for_subgroup_action(d, build_level_graph(d, 2), 3)


def test_battery_level_two():
    items = run_battery(_datum(), 2, 3)
    statuses = {it.name: it.status for it in items}
    assert all(s in ("pass", "info", "skip") for s in statuses.values())
    assert statuses["product-formula-h"] == "pass"
    assert statuses["norm-induction-eta"] == "pass"
