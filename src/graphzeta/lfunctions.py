"""Per-character Ihara L-function data for the levels of a voltage tower.

A character of Z/p^n Z is labelled by its exponent a; it sends x to
zeta_{p^n}^(a x) and has order p^j where j is determined by the p-part of
a.  The polynomial h(u, psi) is the determinant of the three-term matrix
restricted to the base vertices whose level stabilizer lies in ker(psi);
z(u, psi) is the unreduced determinant, and the two differ exactly by the
factor (1 - u^2)^r0(psi).

`h_poly`, `z_poly`, `special_values` and `lfn_data` compute one character
at a time.  The three-term matrix is written as integer terms in
zeta_{p^j} and u, and `linalg.det_cyclotomic_poly` returns the power-basis
coordinates of its determinant (no arithmetic in `CycloNum` on the way).
A `CharacterTable` holds the same data for every character of one level
from one determinant per Galois orbit; the commands and checks use it, and
the per-character functions stay as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclo import CycloNum, Valuation, euler_phi_prime_power, ordp_fraction
from .errors import CertificationError, HypothesisError
from .graphs import adjacency_and_degree, ihara_zeta_reciprocal
from .groupring import (
    CharacterLabel,
    character_orbits,
    characters,
    from_character_polys,
    galois_conjugate,
)
from .poly import UniPoly
from .tower import TowerDatum, build_level_graph, tower_euler_char

__all__ = [
    "CharacterLabel",
    "CharacterTable",
    "LfnData",
    "SpecialValues",
    "character_table",
    "characters",
    "h_poly",
    "kernel_contains_stabilizer",
    "l_reciprocal_of_sum",
    "lfn_data",
    "orbit_level_factor",
    "orbit_norm",
    "orbit_special_products",
    "orbit_vertices",
    "ordp_orbit_product",
    "product_formula_check",
    "r0",
    "special_values",
    "trivial_h_derivative_at_one",
    "vanishing_order_check",
    "xi_poly",
    "z_poly",
]


def kernel_contains_stabilizer(d: TowerDatum, v: int, n: int, psi: CharacterLabel) -> bool:
    k = d.ram[v]
    if k is None:
        return True
    return psi.order_exponent <= min(k, n)


def r0(d: TowerDatum, n: int, psi: CharacterLabel) -> int:
    """Number of base vertices whose level-n stabilizer escapes ker(psi)."""
    return sum(1 for v in range(d.base.n_vertices) if not kernel_contains_stabilizer(d, v, n, psi))


def _three_term_terms(d: TowerDatum, n: int, psi: CharacterLabel, kept: list[int]) -> list:
    """I - psi(A_alpha C) u + (psi(D C) - I) u^2 on kept vertices, as integer terms.

    psi sends the group element x to zeta_{p^j}^(e x) (e its exponent at its
    own level j) and the stabilizer sum C[v] = N_{H_v} to |H_v| when ker(psi)
    contains H_v, else to 0; A_alpha[i][k] sums the voltages of the base
    darts from v_k to v_i.  The terms (r, c, exp, d, coeff) are those of
    `linalg.det_cyclotomic_poly`.
    """
    base = d.base
    step = psi.exponent_at(psi.order_exponent)
    pos = {v: r for r, v in enumerate(kept)}
    c = [d.stabilizer_order(v, n) if kernel_contains_stabilizer(d, v, n, psi) else 0 for v in kept]
    deg = [0] * base.n_vertices
    terms = []
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        deg[o] += 1
        if o in pos and t in pos:
            terms.append((pos[t], pos[o], step * d.voltage[e], 1, -c[pos[o]]))
    for r, v in enumerate(kept):
        terms += [(r, r, 0, 0, 1), (r, r, 0, 2, c[r] * deg[v] - 1)]
    return terms


def _three_term_det(d: TowerDatum, n: int, psi: CharacterLabel, kept: list[int]) -> UniPoly:
    p, j = d.p, psi.order_exponent
    det = linalg.det_cyclotomic_poly(len(kept), _three_term_terms(d, n, psi, kept), p, j)
    return UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det])


def h_poly(d: TowerDatum, n: int, psi: CharacterLabel) -> UniPoly:
    """h(u, psi): the reduced three-term determinant, over Q(zeta_{p^j})."""
    kept = [v for v in range(d.base.n_vertices) if kernel_contains_stabilizer(d, v, n, psi)]
    return _three_term_det(d, n, psi, kept)


def z_poly(d: TowerDatum, n: int, psi: CharacterLabel) -> UniPoly:
    """z(u, psi): the full (unreduced) three-term determinant under psi."""
    return _three_term_det(d, n, psi, list(range(d.base.n_vertices)))


def xi_poly(table: CharacterTable) -> UniPoly:
    """The group-ring polynomial det(I - A_alpha C u + (D C - I) u^2).

    Reassembled through the idempotents from the z(u, psi) of the table's
    level, which are its projections.
    """
    return from_character_polys(
        table.datum.p, table.level, [table.z(psi) for psi in table.characters]
    )


@dataclass(frozen=True)
class SpecialValues:
    h_at_one: CycloNum
    h_derivative_at_one: Fraction | None  # only for the trivial character


def _values_at_one(h: UniPoly, psi: CharacterLabel) -> SpecialValues:
    # h(1) and h'(1) as sums of (k times) the coefficients: no products in the field
    h1 = sum(h.coeffs, CycloNum.rational(psi.p, 0, psi.order_exponent))
    if psi.is_trivial:
        deriv = sum((k * c.to_rational() for k, c in enumerate(h.coeffs)), Fraction(0))
        return SpecialValues(h1, deriv)
    return SpecialValues(h1, None)


def special_values(d: TowerDatum, n: int, psi: CharacterLabel) -> SpecialValues:
    """h(1, psi), plus h'(1, psi0) for the trivial character."""
    return _values_at_one(h_poly(d, n, psi), psi)


@dataclass(frozen=True)
class LfnData:
    """Everything attached to one character: L(u)^-1 = (1-u^2)^c_exponent * h."""

    label: CharacterLabel
    h: UniPoly
    c_exponent: int
    r0: int


def lfn_data(d: TowerDatum, n: int, psi: CharacterLabel) -> LfnData:
    chi_base = d.base.n_vertices - d.base.n_edges
    r = r0(d, n, psi)
    return LfnData(psi, h_poly(d, n, psi), r - chi_base, r)


@dataclass
class CharacterTable:
    """h, z and the special values of every character of Z/p^n Z at one level.

    One three-term determinant per Galois orbit: for j = 0..n, h (and, on
    first use, z) is computed by `h_poly` (`z_poly`) on the representative
    psi_{p^(n-j)} only.  Any other character psi = sigma_u o psi_{p^(n-j)}
    (`groupring.character_orbits`) has sigma_u of the representative's
    three-term matrix as its own, so its h, z and h(1, psi) are the
    representative's with sigma_u applied.  Build it with `character_table`;
    it belongs to one computation and is not cached between calls.
    """

    datum: TowerDatum
    level: int
    representatives: list[CharacterLabel]
    orbits: list[tuple[int, int]]  # (j, u) for each character exponent a
    rep_h: list[UniPoly]
    rep_values: list[SpecialValues]
    rep_z: list[UniPoly | None]  # filled in on first use

    @property
    def characters(self) -> list[CharacterLabel]:
        return characters(self.datum.p, self.level)

    def h(self, psi: CharacterLabel) -> UniPoly:
        j, u = self.orbits[psi.a]
        return galois_conjugate(self.rep_h[j], u)

    def z(self, psi: CharacterLabel) -> UniPoly:
        j, u = self.orbits[psi.a]
        if self.rep_z[j] is None:
            self.rep_z[j] = z_poly(self.datum, self.level, self.representatives[j])
        return galois_conjugate(self.rep_z[j], u)

    def special_values(self, psi: CharacterLabel) -> SpecialValues:
        j, u = self.orbits[psi.a]
        values = self.rep_values[j]
        return SpecialValues(values.h_at_one.galois(u), values.h_derivative_at_one)

    def lfn_data(self, psi: CharacterLabel) -> LfnData:
        d = self.datum
        r = r0(d, self.level, psi)
        return LfnData(psi, self.h(psi), r - (d.base.n_vertices - d.base.n_edges), r)


def character_table(d: TowerDatum, n: int) -> CharacterTable:
    """The `CharacterTable` of level n: n + 1 calls of `h_poly`, one per orbit."""
    reps, orbits = character_orbits(d.p, n)
    rep_h = [h_poly(d, n, psi) for psi in reps]
    return CharacterTable(
        d,
        n,
        reps,
        orbits,
        rep_h,
        [_values_at_one(h, psi) for h, psi in zip(rep_h, reps)],
        [None] * len(reps),
    )


def l_reciprocal_of_sum(data: list[LfnData]) -> tuple[int, UniPoly]:
    """Reciprocal L-function of a direct sum of characters (additivity).

    Returns (total c-exponent, product of the h factors), all characters
    lifted to a common cyclotomic level first.
    """
    if not data:
        raise ValueError("empty character list")
    p = data[0].label.p
    level = max(item.label.order_exponent for item in data)
    prod = UniPoly.constant(CycloNum.rational(p, 1, level))
    for item in data:
        prod = prod * item.h.map_coeffs(lambda c: c.lift(level))
    # a coefficient whose products were all zero stays the integer 0
    return sum(item.c_exponent for item in data), prod.map_coeffs(
        lambda c: c if isinstance(c, CycloNum) else CycloNum.rational(p, c, level)
    )


@dataclass(frozen=True)
class ProductCheck:
    h_product: UniPoly
    h_direct: UniPoly
    h_equal: bool
    chi_sum: int
    chi_direct: int
    chi_equal: bool

    @property
    def ok(self) -> bool:
        return self.h_equal and self.chi_equal


def product_formula_check(table: CharacterTable) -> ProductCheck:
    """Check prod_psi h(u, psi) = h of the level graph, and sum chi_psi = chi."""
    d, n = table.datum, table.level
    c_sum, prod = l_reciprocal_of_sum([table.lfn_data(psi) for psi in table.characters])
    rational_coeffs = []
    for c in prod.coeffs:
        if not c.is_rational():
            raise CertificationError("character product is not rational")
        rational_coeffs.append(c.to_rational())
    h_product = UniPoly(rational_coeffs)
    chi_sum = -c_sum
    lg = build_level_graph(d, n)
    h_direct, chi_direct = ihara_zeta_reciprocal(lg.graph)
    h_equal = h_product == h_direct.map_coeffs(Fraction)
    return ProductCheck(h_product, h_direct, h_equal, chi_sum, chi_direct, chi_sum == chi_direct)


def vanishing_order_check(table: CharacterTable) -> dict:
    """h(1, psi) nonzero away from the trivial character; simple zero there.

    Requires a connected level graph with nonzero Euler characteristic.
    Galois conjugation preserves nonvanishing, so one representative per
    orbit decides it.
    """
    n = table.level
    chi = tower_euler_char(table.datum, n)
    if chi == 0:
        raise HypothesisError(f"hypothesis violated: chi(X_{n}) = 0")
    trivial, *others = table.rep_values
    results = {
        "trivial_vanishes": not bool(trivial.h_at_one),
        "trivial_derivative_nonzero": trivial.h_derivative_at_one != 0,
    }
    if others:
        results["nontrivial_nonzero"] = all(bool(sv.h_at_one) for sv in others)
    results["ok"] = all(results.values())
    return results


def orbit_vertices(d: TowerDatum, j: int) -> list[int]:
    """K_j: the base vertices kept by every character of order p^j (j >= 1).

    They are the unramified vertices and those with k_v >= j, at every
    level n >= j.
    """
    return [v for v, k in enumerate(d.ram) if k is None or k >= j]


def orbit_norm(d: TowerDatum, j: int) -> int:
    """N_{Q(zeta_{p^j})/Q} det(D - A_zeta) on K_j, for j >= 1; independent of the level.

    A_zeta[i][i'] is the sum of zeta^alpha(s) over the base darts s from
    v_i' to v_i, and D holds the base degrees.
    """
    kept = orbit_vertices(d, j)
    pos = {v: i for i, v in enumerate(kept)}
    base = d.base
    deg = [0] * base.n_vertices
    for e in range(base.n_darts):
        deg[base.dart_origin[e]] += 1
    terms = [(i, i, 0, deg[v]) for i, v in enumerate(kept)]
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        if o in pos and t in pos:
            terms.append((pos[t], pos[o], d.voltage[e], -1))
    return linalg.det_norm_cyclotomic(len(kept), terms, d.p, j)


def orbit_level_factor(d: TowerDatum, n: int, j: int) -> int:
    """(prod over v in K_j of |H_v(n)|)^phi(p^j): psi(C) on K_j, over the orbit of order p^j."""
    stabilizers = math.prod(d.stabilizer_order(v, n) for v in orbit_vertices(d, j))
    return stabilizers ** euler_phi_prime_power(d.p, j)


def orbit_special_products(d: TowerDatum, n: int) -> dict[int, int]:
    """For each j = 1..n: N_j, the product of h(1, psi) over the characters of order p^j.

    At u = 1 the three-term matrix on K_j is (D - A_psi) psi(C), and psi(C)
    is diag |H_v(n)| there, so N_j = orbit_norm(d, j) * orbit_level_factor(d, n, j).
    """
    return {j: orbit_norm(d, j) * orbit_level_factor(d, n, j) for j in range(1, n + 1)}


def ordp_orbit_product(d: TowerDatum, n: int, j: int) -> Valuation:
    """Valuation of the order-p^j block product of special values, 1 <= j <= n."""
    return ordp_fraction(orbit_norm(d, j) * orbit_level_factor(d, n, j), d.p)


def trivial_h_derivative_at_one(d: TowerDatum, n: int) -> int:
    """h'(1, psi_0): the u-derivative at u = 1 of the integer polynomial
    det(I - A_0 C_n u + (D C_n - I) u^2), with C_n = diag |H_v(n)|.

    By Jacobi's formula it is the sum over rows i of det M(1) with row i
    replaced by row i of M'(1), where M(1) = (D - A_0) C_n and
    M'(1) = (2 D - A_0) C_n - 2 I: base-size integer determinants.
    """
    a, deg = adjacency_and_degree(d.base)
    g = d.base.n_vertices
    c = [d.stabilizer_order(v, n) for v in range(g)]
    at_one = [[(deg[i][k] - a[i][k]) * c[k] for k in range(g)] for i in range(g)]
    slope = [[(2 * deg[i][k] - a[i][k]) * c[k] - 2 * (i == k) for k in range(g)] for i in range(g)]
    return sum(linalg.det_int(at_one[:i] + [slope[i]] + at_one[i + 1 :]) for i in range(g))
