"""Per-character Ihara L-function data for the levels of a voltage tower.

A character of Z/p^n Z is labelled by its exponent a; it sends x to
zeta_{p^n}^(a x) and has order p^j where j is determined by the p-part of
a.  The polynomial h(u, psi) is the determinant of the three-term matrix
restricted to the base vertices whose level stabilizer lies in ker(psi);
z(u, psi) is the unreduced determinant, and the two differ exactly by the
factor (1 - u^2)^r0(psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclo import CycloNum, Valuation, ordp_cyclo
from .errors import CertificationError, HypothesisError
from .graphs import ihara_zeta_reciprocal
from .groupring import CharacterLabel, apply_character, characters, from_character_polys
from .poly import UniPoly
from .tower import TowerDatum, build_level_graph, level_matrices, tower_euler_char

__all__ = [
    "CharacterLabel",
    "LfnData",
    "SpecialValues",
    "characters",
    "h_poly",
    "kernel_contains_stabilizer",
    "l_reciprocal_of_sum",
    "lfn_data",
    "orbit_special_products",
    "product_formula_check",
    "r0",
    "special_values",
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


def _three_term_matrix(d: TowerDatum, n: int, psi: CharacterLabel, kept: list[int]):
    """Rows/columns of I - psi(A_alpha C) u + (psi(D C) - I) u^2 on kept vertices."""
    a_alpha, c, deg = level_matrices(d, n)
    j = psi.order_exponent
    p = d.p
    c_val = {jj: apply_character(c[jj], psi) for jj in kept}
    rows = []
    for i in kept:
        row = []
        for jj in kept:
            c0 = CycloNum.rational(p, 1 if i == jj else 0, j)
            a_val = apply_character(a_alpha[i][jj], psi) * c_val[jj]
            q_val = c_val[jj] * deg[jj] - 1 if i == jj else CycloNum.rational(p, 0, j)
            row.append(UniPoly([c0, -a_val, q_val]))
        rows.append(row)
    return rows


def _normalize_cyclo_poly(det, p: int, j: int) -> UniPoly:
    if not isinstance(det, UniPoly):
        det = UniPoly.constant(det)
    return det.map_coeffs(
        lambda c: c if isinstance(c, CycloNum) else CycloNum.rational(p, c, j)
    )


def h_poly(d: TowerDatum, n: int, psi: CharacterLabel) -> UniPoly:
    """h(u, psi): the reduced three-term determinant, over Q(zeta_{p^j})."""
    kept = [v for v in range(d.base.n_vertices) if kernel_contains_stabilizer(d, v, n, psi)]
    if not kept:
        return UniPoly.constant(CycloNum.rational(d.p, 1, psi.order_exponent))
    rows = _three_term_matrix(d, n, psi, kept)
    return _normalize_cyclo_poly(linalg.det_commutative(rows), d.p, psi.order_exponent)


def z_poly(d: TowerDatum, n: int, psi: CharacterLabel) -> UniPoly:
    """z(u, psi): the full (unreduced) three-term determinant under psi."""
    rows = _three_term_matrix(d, n, psi, list(range(d.base.n_vertices)))
    return _normalize_cyclo_poly(linalg.det_commutative(rows), d.p, psi.order_exponent)


def xi_poly(d: TowerDatum, n: int) -> UniPoly:
    """The group-ring polynomial det(I - A_alpha C u + (D C - I) u^2).

    Computed per character and reassembled through the idempotents; its
    projections are the z(u, psi).
    """
    polys = [z_poly(d, n, psi) for psi in characters(d.p, n)]
    return from_character_polys(d.p, n, polys)


@dataclass(frozen=True)
class SpecialValues:
    h_at_one: CycloNum
    h_derivative_at_one: Fraction | None  # only for the trivial character


def special_values(d: TowerDatum, n: int, psi: CharacterLabel) -> SpecialValues:
    """h(1, psi), plus h'(1, psi0) for the trivial character."""
    h = h_poly(d, n, psi)
    one = CycloNum.rational(d.p, 1, psi.order_exponent)
    h1 = h(one)
    if not isinstance(h1, CycloNum):
        h1 = CycloNum.rational(d.p, h1, psi.order_exponent)
    if psi.is_trivial:
        deriv = h.derivative()(one)
        if isinstance(deriv, CycloNum):
            deriv = deriv.to_rational()
        return SpecialValues(h1, Fraction(deriv))
    return SpecialValues(h1, None)


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
        prod = prod * item.h.map_coeffs(
            lambda c: (c if isinstance(c, CycloNum) else CycloNum.rational(p, c, 0)).lift(level)
        )
    return sum(item.c_exponent for item in data), _normalize_cyclo_poly(prod, p, level)


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


def product_formula_check(d: TowerDatum, n: int) -> ProductCheck:
    """Check prod_psi h(u, psi) = h of the level graph, and sum chi_psi = chi."""
    c_sum, prod = l_reciprocal_of_sum([lfn_data(d, n, psi) for psi in characters(d.p, n)])
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


def vanishing_order_check(d: TowerDatum, n: int) -> dict:
    """h(1, psi) nonzero away from the trivial character; simple zero there.

    Requires a connected level graph with nonzero Euler characteristic.
    """
    chi = tower_euler_char(d, n)
    if chi == 0:
        raise HypothesisError(f"hypothesis violated: chi(X_{n}) = 0")
    results = {}
    for psi in characters(d.p, n):
        sv = special_values(d, n, psi)
        if psi.is_trivial:
            results["trivial_vanishes"] = not bool(sv.h_at_one)
            results["trivial_derivative_nonzero"] = sv.h_derivative_at_one != 0
        else:
            results.setdefault("nontrivial_nonzero", True)
            if not sv.h_at_one:
                results["nontrivial_nonzero"] = False
    results["ok"] = all(v for k, v in results.items() if k != "ok")
    return results


def orbit_special_products(d: TowerDatum, n: int) -> dict[int, Fraction]:
    """For each j >= 1: the rational product of h(1, psi) over ord(psi) = p^j."""
    p = d.p
    out: dict[int, Fraction] = {}
    for j in range(1, n + 1):
        prod = CycloNum.rational(p, 1, j)
        for psi in characters(p, n):
            if psi.order_exponent == j:
                prod = prod * special_values(d, n, psi).h_at_one.lift(j)
        if not prod.is_rational():
            raise CertificationError("orbit product is not rational")
        out[j] = prod.to_rational()
    return out


def ordp_orbit_product(d: TowerDatum, n: int, j: int) -> Valuation:
    """Valuation of the order-p^j block product of special values."""
    p = d.p
    total = Valuation.of(0)
    for psi in characters(p, n):
        if psi.order_exponent == j:
            total = total + ordp_cyclo(special_values(d, n, psi).h_at_one, p)
    return total
