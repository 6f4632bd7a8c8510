"""Equivariant zeta data over the group ring, and the norm/trace formalism.

For the cyclic group G = Z/p^n Z acting on a level graph, the central
objects are the equivariant Euler characteristic (a group-ring element),
the polynomial eta(u) whose character projections are the h(u, psi), and
the exponent vector of gamma(u) = (1-u^2)^(-chi_{C[G]}).  Subgroups H of G
act on the same cover; eta for the H-action is computed from the graph
itself via orbit bookkeeping, which is what the induction (norm) identity
N_{G/H}(eta_G) = eta_H is tested against.

Inflation genuinely fails here: pushing eta_G down the quotient map
C[G] -> C[G/H] does not in general give the eta of the quotient cover.
The check reports both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclo import CycloNum
from .groupring import (
    GroupRingElem,
    apply_character,
    characters,
    factor_prime_power,
    from_character_polys,
    groupring_idempotent,
    subgroup_exponent,
)
from .lfunctions import CharacterTable, r0
from .poly import UniPoly
from .tower import TowerDatum, build_level_graph

__all__ = [
    "EquivEulerChar",
    "EquivZeta",
    "InflationReport",
    "equivariant_euler_char",
    "eta_for_subgroup_action",
    "eta_poly",
    "equiv_zeta",
    "gamma_exponents",
    "gamma_expand",
    "inflation_check",
    "norm_map",
    "norm_gamma_exponents",
    "trace_map",
]


@dataclass(frozen=True)
class EquivEulerChar:
    """Group-ring Euler characteristic: sum of vertex idempotents minus |E_X|."""

    m: int
    value: GroupRingElem


def equivariant_euler_char(d: TowerDatum, n: int) -> EquivEulerChar:
    m = d.p**n
    total = GroupRingElem.zero(m)
    for v in range(d.base.n_vertices):
        total = total + groupring_idempotent(m, d.stabilizer_order(v, n))
    total = total - d.base.n_edges
    return EquivEulerChar(m, total)


def gamma_exponents(d: TowerDatum, n: int) -> tuple[int, ...]:
    """chi_psi for each character exponent a = 0..p^n-1 (free dart action)."""
    chi_base = d.base.n_vertices - d.base.n_edges
    return tuple(chi_base - r0(d, n, psi) for psi in characters(d.p, n))


def gamma_expand(p: int, n: int, exponents: tuple[int, ...]) -> UniPoly:
    """Expand gamma(u) = sum_psi (1-u^2)^(-chi_psi) e_psi as a polynomial.

    Only available when every exponent is <= 0; otherwise gamma is a genuine
    power series and stays in exponent-vector form.
    """
    if any(e > 0 for e in exponents):
        raise ValueError("gamma is not polynomial: some character exponent is positive")
    one_minus = UniPoly([1, 0, -1])
    return from_character_polys(p, n, [one_minus ** (-e) for e in exponents])


@dataclass(frozen=True)
class EquivZeta:
    """eta(u) plus the per-character exponent vector representing gamma(u)."""

    m: int
    eta: UniPoly
    gamma: tuple[int, ...]


def eta_poly(table: CharacterTable) -> UniPoly:
    """eta(u) over Q[Z/p^n Z]: the table's h(u, psi) reassembled."""
    return from_character_polys(
        table.datum.p, table.level, [table.h(psi) for psi in table.characters]
    )


def equiv_zeta(table: CharacterTable) -> EquivZeta:
    d, n = table.datum, table.level
    return EquivZeta(d.p**n, eta_poly(table), gamma_exponents(d, n))


# -- subgroup actions on a level graph ---------------------------------


def eta_for_subgroup_action(d: TowerDatum, n: int, subgroup_order: int) -> UniPoly:
    """eta(u) for the order-p^h subgroup H of Z/p^n Z acting on the level-n cover.

    The cover is treated as a plain graph; H permutes it through the dart
    labels.  Orbits are identified with H = Z/p^h Z via t -> t * p^(n-h).
    The result lives over Q[Z/p^h Z].
    """
    m = d.p**n
    subgroup_exponent(m, subgroup_order)
    h_ord = subgroup_order
    step = m // h_ord
    lg = build_level_graph(d, n)
    graph = lg.graph

    def act_vertex(vi: int, t: int) -> int:
        base = lg.vertex_base[vi]
        rep = (lg.vertex_rep[vi] + t * step) % d.fiber_size(base, n)
        return _vertex_lookup(lg, d, base, rep)

    # Orbit representatives in vertex order.
    reps: list[int] = []
    orbit_of = [-1] * graph.n_vertices
    for vi in range(graph.n_vertices):
        if orbit_of[vi] >= 0:
            continue
        idx = len(reps)
        reps.append(vi)
        for t in range(h_ord):
            orbit_of[act_vertex(vi, t)] = idx
    stab_orders = []
    for w in reps:
        stab = sum(1 for t in range(h_ord) if act_vertex(w, t) == w)
        stab_orders.append(stab)

    # a[w][v] = number of darts from v to w, for the orbit bookkeeping below.
    darts_into: dict[tuple[int, int], int] = {}
    for e in range(graph.n_darts):
        key = (graph.dart_terminus[e], graph.dart_origin[e])
        darts_into[key] = darts_into.get(key, 0) + 1

    gsize = len(reps)
    rows = []
    for i in range(gsize):
        w_i = reps[i]
        e_i = groupring_idempotent(h_ord, stab_orders[i])
        val = sum(1 for e in range(graph.n_darts) if graph.dart_origin[e] == w_i)
        row = []
        for j in range(gsize):
            w_j = reps[j]
            ell = GroupRingElem.zero(h_ord)
            for t in range(h_ord):
                count = darts_into.get((w_i, act_vertex(w_j, t)), 0)
                if count:
                    ell = ell + GroupRingElem.basis(h_ord, -t, Fraction(count, stab_orders[i]))
            ident = GroupRingElem.one(h_ord) if i == j else GroupRingElem.zero(h_ord)
            q_entry = e_i * (val - 1) if i == j else GroupRingElem.zero(h_ord)
            row.append(UniPoly([ident, -ell, q_entry]))
        rows.append(row)
    return linalg.det_groupring_poly(rows, h_ord)


def _vertex_lookup(lg, d: TowerDatum, base: int, rep: int) -> int:
    offset = 0
    for i in range(base):
        offset += d.fiber_size(i, lg.level)
    return offset + rep


# -- norm and trace ----------------------------------------------------


def _as_groupring_poly(x, m: int) -> UniPoly:
    if isinstance(x, GroupRingElem):
        return UniPoly.constant(x)
    if isinstance(x, UniPoly):
        return x
    return UniPoly.constant(GroupRingElem.basis(m, 0, x))


def norm_map(x: UniPoly | GroupRingElem, subgroup_order: int) -> UniPoly:
    """N_{G/H}: determinant of multiplication by x on C[G] over C[H].

    Computed per character of H as the product of psi(x) over the characters
    psi of G restricting to it, then reassembled; the result lives over
    Q[Z/p^h Z] with H identified with Z/p^h Z.
    """
    m = _modulus_of(x)
    p, n = factor_prime_power(m)
    h_exp = subgroup_exponent(m, subgroup_order)
    poly = _as_groupring_poly(x, m)
    # psi_a(x) for every character of G, all at ambient level n.
    projections = [
        poly.map_coeffs(lambda c: apply_character(c, psi, level=n)) for psi in characters(p, n)
    ]
    ph = p**h_exp
    per_h_char: list[UniPoly] = []
    one = UniPoly.constant(CycloNum.rational(p, 1, n))
    for b in range(ph):
        prod = one
        for a in range(b, m, ph):
            prod = prod * projections[a]
        per_h_char.append(prod)
    return from_character_polys(p, h_exp, per_h_char)


def _modulus_of(x) -> int:
    if isinstance(x, GroupRingElem):
        return x.m
    if isinstance(x, UniPoly):
        for c in x.coeffs:
            if isinstance(c, GroupRingElem):
                return c.m
    raise ValueError("cannot infer the group order from the argument")


def trace_map(x: GroupRingElem, subgroup_order: int) -> GroupRingElem:
    """T_{G/H}: trace of multiplication by x on C[G] over C[H].

    Equals (G:H) times the restriction of x to H, reindexed by Z/p^h Z.
    """
    subgroup_exponent(x.m, subgroup_order)
    index = x.m // subgroup_order
    return x.restrict_to_subgroup(subgroup_order) * index


def norm_gamma_exponents(
    d: TowerDatum, n: int, subgroup_order: int
) -> tuple[int, ...]:
    """Exponent vector of N_{G/H}(gamma): fiberwise sums of the chi_psi."""
    exps = gamma_exponents(d, n)
    m = d.p**n
    ph = subgroup_order
    out = []
    for b in range(ph):
        out.append(sum(exps[a] for a in range(m) if a % ph == b))
    return tuple(out)


# -- inflation ----------------------------------------------------------


@dataclass(frozen=True)
class InflationReport:
    lhs: UniPoly  # projection of eta at level n to the quotient group ring
    rhs: UniPoly  # eta of the quotient cover
    equal: bool


def inflation_check(eta_full: UniPoly, quotient: CharacterTable) -> InflationReport:
    """Compare pi_H(eta_G) with eta of the quotient level.

    eta_full is eta over Q[G], G = Z/p^n Z (`eta_poly` of the level-n
    table); quotient is the table of a level n - h, and H is the subgroup
    of order p^h.  The two need not agree: inflation is the one piece of the
    usual L-function formalism that branched covers break.
    """
    quotient_order = quotient.datum.p**quotient.level
    lhs = eta_full.map_coeffs(lambda c: c.project_to_quotient(quotient_order))
    rhs = eta_poly(quotient)
    return InflationReport(lhs, rhs, lhs == rhs)
