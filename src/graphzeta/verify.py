"""The cross-check battery behind `graphzeta verify`.

Every item recomputes one identity from two independent routes at a single
tower level and reports pass/fail; the inflation item is informational
(the two sides genuinely may differ, and for ramified data they should).
The character tables of the battery, h and z at level n and h at the
quotient level n - h, come from one `character_tables` call, so one
determinant kernel pass; the product formula's orbit norms, the cover's h
and the group-ring determinant of the subgroup action take one kernel call
each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import euler_phi_prime_power
from .equivariant import (
    eta_for_subgroup_action,
    eta_poly,
    inflation_check,
    norm_gamma_exponents,
    norm_map,
    subgroup_vertex_orbits,
)
from .errors import HypothesisError
from .graphs import (
    connected,
    euler_characteristic,
    path_counts_from_zeta,
    reduced_closed_path_counts,
    spanning_tree_count,
)
from .groupring import CharacterLabel, subgroup_exponent
from .lfunctions import character_tables, product_formula_check, r0, vanishing_order_check
from .poly import UniPoly
from .report import poly_text
from .tower import LevelGraph, TowerDatum, build_level_graph, level_shape

__all__ = ["VerifyItem", "default_subgroup_order", "run_battery"]

PATH_COUNT_MAX = 12  # compare N_1..N_12: the Euler product through u^12


@dataclass(frozen=True)
class VerifyItem:
    name: str
    status: str  # "pass" | "fail" | "skip" | "info"
    detail: str


def default_subgroup_order(p: int, level: int) -> int:
    """The subgroup order checked when none is given: p, or 1 at level 0, where G is trivial."""
    return p if level else 1


def run_battery(d: TowerDatum, n: int, subgroup_order: int | None = None) -> list[VerifyItem]:
    items: list[VerifyItem] = []
    p = d.p
    if subgroup_order is None:
        subgroup_order = default_subgroup_order(p, n)
    lg = build_level_graph(d, n)
    graph = lg.graph
    if not connected(graph):
        raise HypothesisError(f"level {n} disconnected")
    h_exp = subgroup_exponent(p**n, subgroup_order)
    tables = character_tables(d, [n, n - h_exp] if h_exp else [n], (n,))
    table, quotient = tables[0], tables[-1]

    def check(name: str, ok: bool, detail: str) -> None:
        items.append(VerifyItem(name, "pass" if ok else "fail", detail))

    pc = product_formula_check(table, graph)
    check("product-formula-h", pc.h_equal, f"prod h(u,psi) vs level h: {poly_text(pc.h_product)}")
    check("product-formula-chi", pc.chi_equal, f"sum chi_psi = {pc.chi_sum}, chi(level) = {pc.chi_direct}")

    # sigma_u fixes the rational (1 - u^2)^r0: one representative per orbit, coordinatewise
    one_minus = UniPoly([1, 0, -1])
    reduction_ok = all(
        [one_minus ** r0(d, n, psi) * UniPoly(c) for c in zip(*table.rep_coordinates[j])]
        == [UniPoly(c) for c in zip(*table.z(j))]
        for j, psi in enumerate(table.representatives)
    )
    check("zeta-reduction", reduction_ok, "(1-u^2)^r0 * h(u,psi) = z(u,psi) for every character")

    h_level, chi_level = pc.h_direct, pc.chi_direct
    kappa = spanning_tree_count(graph)
    slope, expected = h_level.derivative()(1), -2 * chi_level * kappa
    check("hashimoto", slope == expected, f"h'(1) = {slope}, -2*chi*kappa = {expected}")

    counts = reduced_closed_path_counts(graph, PATH_COUNT_MAX)
    predicted = path_counts_from_zeta(h_level, chi_level, PATH_COUNT_MAX)
    check(
        "path-count-oracle", counts == predicted, f"exp(sum N_k u^k/k) matches 1/Z^-1 through u^{PATH_COUNT_MAX}"
    )

    # the built cover against the closed forms (|V|, |E|, chi) that `tower` and `zeta` print
    shape = level_shape(d, n)
    chi_closed = shape[2]
    branch_sum = p**n * euler_characteristic(d.base) - chi_closed
    rh_ok = (graph.n_vertices, graph.n_edges, chi_level) == shape
    check("riemann-hurwitz", rh_ok, f"chi = {chi_level}, branched closed form = {chi_closed}")

    # r0 is constant on a Galois orbit, as chi_psi is in the product formula
    r0_total = sum(
        euler_phi_prime_power(p, j) * r0(d, n, psi) for j, psi in enumerate(table.representatives)
    )
    check("r0-sum", r0_total == branch_sum, f"sum r0(psi) = {r0_total}, sum (m_w - 1) = {branch_sum}")

    if chi_closed == 0:
        items.append(VerifyItem("vanishing-order", "skip", f"chi(X_{n}) = 0, hypothesis not met"))
    else:
        res = vanishing_order_check(table)
        check("vanishing-order", res["ok"], "simple zero at u=1 for the trivial character only")

    eta_G = eta_poly(table)
    eta_H = eta_for_subgroup_action(d, lg, subgroup_order)
    check(
        "norm-induction-eta",
        norm_map(eta_G, subgroup_order) == eta_H,
        f"N maps eta over Z/{p**n} to eta of the order-{subgroup_order} subgroup action",
    )

    gamma_H = norm_gamma_exponents(d, n, subgroup_order)
    exps_H = _subgroup_gamma_direct(d, lg, subgroup_order)
    check("norm-induction-gamma", gamma_H == exps_H, f"summed exponents {gamma_H} vs direct {exps_H}")

    infl = inflation_check(eta_G, quotient)
    note = "equal" if infl.equal else "not equal (expected)"
    sides = f"pi_H(eta) = {poly_text(infl.lhs)}; eta of quotient = {poly_text(infl.rhs)}"
    items.append(VerifyItem("inflation", "info", f"{note}: {sides}"))
    return items


def _subgroup_gamma_direct(d: TowerDatum, lg: LevelGraph, subgroup_order: int) -> tuple[int, ...]:
    # chi_phi for the subgroup action, from the H-orbits on the vertices of the level-n cover lg
    _, reps, stabilizers = subgroup_vertex_orbits(d, lg, subgroup_order)
    h_exp = subgroup_exponent(d.p**lg.level, subgroup_order)
    n_orbit_edges = lg.graph.n_edges // subgroup_order
    out = []
    for b in range(subgroup_order):
        phi = CharacterLabel(d.p, h_exp, b)
        killed = sum(1 for stab in stabilizers if not phi.kernel_contains(stab))
        out.append(len(reps) - n_orbit_edges - killed)
    return tuple(out)
