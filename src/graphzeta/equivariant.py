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

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graphs import euler_characteristic
from .groupring import (
    GroupRingElem,
    character_orbits,
    characters,
    factor_prime_power,
    from_character_polys,
    groupring_idempotent,
    subgroup_elements,
    subgroup_exponent,
)
from .lfunctions import CharacterTable, r0
from .poly import UniPoly
from .tower import LevelGraph, TowerDatum

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
    "subgroup_vertex_orbits",
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
    chi_base = euler_characteristic(d.base)
    return tuple(chi_base - r0(d, n, psi) for psi in characters(d.p, n))


def gamma_expand(p: int, n: int, exponents: tuple[int, ...]) -> UniPoly:
    """Expand gamma(u) = sum_psi (1-u^2)^(-chi_psi) e_psi as a polynomial.

    exponents[a] is chi_psi for psi = psi_a, constant on each Galois orbit.
    Only available when every exponent is <= 0; otherwise gamma is a genuine
    power series and stays in exponent-vector form.
    """
    if len(exponents) != p**n:
        raise ValueError(f"need {p**n} exponents, one per character of Z/{p**n}Z")
    reps, orbits = character_orbits(p, n)
    if any(exponents[a] != exponents[reps[j].a] for a, (j, _) in enumerate(orbits)):
        raise ValueError("gamma exponents must be constant on each Galois orbit of characters")
    if any(e > 0 for e in exponents):
        raise ValueError("gamma is not polynomial: some character exponent is positive")
    one_minus, rows = UniPoly([1, 0, -1]), []
    for psi in reps:  # (1 - u^2)^(-chi_psi) is rational: coordinates (c, 0, ..., 0), phi(p^j) in all
        zeros = [0] * (psi.order - psi.order // p - 1)
        rows.append([[c, *zeros] for c in (one_minus ** -exponents[psi.a]).coeffs])
    return from_character_polys(p, n, rows)


@dataclass(frozen=True)
class EquivZeta:
    """eta(u) plus the per-character exponent vector representing gamma(u)."""

    m: int
    eta: UniPoly
    gamma: tuple[int, ...]


def eta_poly(table: CharacterTable) -> UniPoly:
    """eta(u) over Q[Z/p^n Z], reassembled from the table's n + 1 representative h rows."""
    return from_character_polys(table.datum.p, table.level, table.rep_coordinates)


def equiv_zeta(table: CharacterTable) -> EquivZeta:
    d, n = table.datum, table.level
    return EquivZeta(d.p**n, eta_poly(table), gamma_exponents(d, n))


# -- subgroup actions on a level graph ---------------------------------


def subgroup_vertex_orbits(d: TowerDatum, lg: LevelGraph, subgroup_order: int):
    """(act, reps, stabilizers) for the order-p^h subgroup H of Z/p^n Z on the level-n cover lg.

    act(vi, t) is the vertex that t * p^(n-h) in H sends the vertex vi to;
    reps holds the least vertex of each H-orbit, in vertex order, and
    stabilizers[i] the order of the stabilizer of reps[i] in H.  ValueError
    for an order that does not divide p^n.  With f_v the fiber size of v and
    g_v = gcd(p^(n-h), f_v), the orbit of (v, r) is r + g_v Z mod f_v: its
    least vertex is the one with r < g_v, and its stabilizer has order
    |H| g_v / f_v.
    """
    n = lg.level
    subgroup_exponent(d.p, n, subgroup_order)
    step = d.p**n // subgroup_order
    fibers = [d.fiber_size(v, n) for v in range(d.base.n_vertices)]
    offsets = list(itertools.accumulate(fibers, initial=0))  # index of (v, 0)

    def act(vi: int, t: int) -> int:
        base = lg.vertex_base[vi]
        return offsets[base] + (lg.vertex_rep[vi] + t * step) % fibers[base]

    reps, stabilizers = [], []
    for offset, fiber in zip(offsets, fibers):
        g = math.gcd(step, fiber)
        reps += range(offset, offset + g)
        stabilizers += [subgroup_order * g // fiber] * g
    return act, reps, stabilizers


def eta_for_subgroup_action(d: TowerDatum, lg: LevelGraph, subgroup_order: int) -> UniPoly:
    """eta(u) for the order-p^h subgroup H of Z/p^n Z acting on the level-n cover lg.

    The cover is treated as a plain graph; H permutes it through the dart
    labels (`subgroup_vertex_orbits`).  Orbits are identified with
    H = Z/p^h Z via t -> t * p^(n-h).  The result lives over Q[Z/p^h Z].
    """
    graph = lg.graph
    act, reps, stab_orders = subgroup_vertex_orbits(d, lg, subgroup_order)
    h_ord = subgroup_order

    # a[w][v] = number of darts from v to w, for the orbit bookkeeping below, and the degrees
    darts_into = Counter(zip(graph.dart_terminus, graph.dart_origin))
    degree = Counter(graph.dart_origin)

    # terms (r, c, s, d, coeff) of I - A u + Q u^2 over Q[H]: Q[i][i] = (deg w_i - 1) e_i with
    # e_i the idempotent of the stabilizer of w_i
    terms = []
    for i, w_i in enumerate(reps):
        stab = stab_orders[i]
        terms.append((i, i, 0, 0, 1))
        terms += [(i, i, s, 2, Fraction(degree[w_i] - 1, stab)) for s in subgroup_elements(h_ord, stab)]
        for j, w_j in enumerate(reps):
            for t in range(h_ord):
                count = darts_into.get((w_i, act(w_j, t)), 0)
                if count:
                    terms.append((i, j, -t, 1, Fraction(-count, stab)))
    return linalg.det_groupring_poly(len(reps), terms, h_ord)


# -- norm and trace ----------------------------------------------------


def norm_map(x: UniPoly | GroupRingElem, subgroup_order: int) -> UniPoly:
    """N_{G/H}: determinant of multiplication by x on Q[G] over Q[H] (`linalg.norm_groupring_poly`).

    x needs rational group-ring coefficients; otherwise ValueError.
    """
    m = _modulus_of(x)
    terms = [
        (s, d, a)
        for d, coeff in enumerate(x.coeffs if isinstance(x, UniPoly) else (x,))
        for s, a in (enumerate(coeff.coeffs) if isinstance(coeff, GroupRingElem) else [(0, coeff)])
    ]
    return linalg.norm_groupring_poly(terms, m, subgroup_order)


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
    subgroup_exponent(*factor_prime_power(x.m), subgroup_order)
    index = x.m // subgroup_order
    return x.restrict_to_subgroup(subgroup_order) * index


def norm_gamma_exponents(
    d: TowerDatum, n: int, subgroup_order: int
) -> tuple[int, ...]:
    """Exponent vector of N_{G/H}(gamma): fiberwise sums of the chi_psi."""
    exps = gamma_exponents(d, n)
    return tuple(sum(exps[b::subgroup_order]) for b in range(subgroup_order))


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
