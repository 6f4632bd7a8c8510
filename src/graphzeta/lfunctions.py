"""Per-character Ihara L-function data for the levels of a voltage tower.

A character of Z/p^n Z is labelled by its exponent a; it sends x to
zeta_{p^n}^(a x) and has order p^j where j is determined by the p-part of
a.  The polynomial h(u, psi) is the determinant of the three-term matrix
restricted to the base vertices whose level stabilizer lies in ker(psi);
z(u, psi) is the unreduced determinant, and the two differ exactly by the
factor (1 - u^2)^r0(psi).

The three-term matrix is written as integer terms in zeta_{p^j} and u;
`linalg.det_cyclotomic_poly` gives the power-basis coordinates of its
determinant.  A level's n + 1 Galois-orbit representatives share one kernel
call: the h or z of a `CharacterTable` (integer coordinate rows, as
`groupring.from_character_polys` takes them).  The level's own h is the
product of the norms of the table's h rows (`CharacterTable.level_h`, by
`cyclo.coordinate_norm`), which `zeta` prints and `product_formula_check`
compares with the built cover's.
`character_tables` takes the h of several levels and the z of some of them
in one call, which evaluates a determinant they share once (`verify`: h and
z at level n, h at the quotient level).

`orbit_norms` takes the norms of det(D - A_zeta) on K_j for every j from
one integer polynomial det(D - A_x) per distinct K_j
(`voltage_laplacian_det`, also behind g(T)) by `cyclo.cyclotomic_norms`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import linalg
from .cyclo import (
    Valuation,
    coordinate_norm,
    cyclotomic_norms,
    euler_phi_prime_power,
    galois_conjugates,
    ordp_fraction,
)
from .errors import HypothesisError
from .graphs import SerreGraph, adjacency_and_degree, euler_characteristic, ihara_zeta_reciprocal
from .groupring import CharacterLabel, characters, from_character_polys, orbit_representatives
from .poly import UniPoly
from .tower import TowerDatum, tower_euler_char

__all__ = [
    "CharacterLabel",
    "CharacterTable",
    "character_table",
    "character_tables",
    "characters",
    "orbit_level_exponent",
    "orbit_norms",
    "orbit_special_products",
    "orbit_vertices",
    "ordp_orbit_product",
    "product_formula_check",
    "r0",
    "trivial_h_derivative_at_one",
    "vanishing_order_check",
    "voltage_laplacian_det",
    "xi_poly",
]


def r0(d: TowerDatum, n: int, psi: CharacterLabel) -> int:
    """Number of base vertices whose level-n stabilizer escapes ker(psi): |V| - |K_j|."""
    return d.base.n_vertices - len(orbit_vertices(d, psi.order_exponent))


def _three_term_terms(d: TowerDatum, n: int, j: int, kept: list[int]) -> list:
    """I - psi(A_alpha C) u + (psi(D C) - I) u^2 on kept vertices, as integer terms, for the
    representative psi = psi_{p^(n-j)} of the characters of order p^j (`orbit_representatives`).

    psi sends the group element x to zeta_{p^j}^x (to 1 at j = 0) and the
    stabilizer sum C[v] = N_{H_v} to |H_v| when ker(psi) contains H_v, that
    is for v in K_j (`orbit_vertices`), else to 0; A_alpha[i][k] sums the
    voltages of the base darts from v_k to v_i.  The terms (r, c, exp, d,
    coeff) are those of `linalg.det_cyclotomic_poly`.
    """
    base = d.base
    pos = {v: r for r, v in enumerate(kept)}
    k_j = set(orbit_vertices(d, j))
    c = [d.stabilizer_order(v, n) if v in k_j else 0 for v in kept]
    deg = [0] * base.n_vertices
    terms = []
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        deg[o] += 1
        if o in pos and t in pos:
            terms.append((pos[t], pos[o], d.voltage[e] if j else 0, 1, -c[pos[o]]))
    for r, v in enumerate(kept):
        terms += [(r, r, 0, 0, 1), (r, r, 0, 2, c[r] * deg[v] - 1)]
    return terms


def _three_term_dets(d: TowerDatum, asks: list) -> list:
    # for each (n, reduced) of asks, the coordinate rows of h (reduced: on K_j) or z of the level's
    # n + 1 orbit representatives, each up to its last nonzero row as UniPoly keeps it: one kernel
    # call, which takes a problem that several asks share once
    problems = []
    for n, reduced in asks:
        for j in range(n + 1):
            kept = orbit_vertices(d, j) if reduced else list(range(d.base.n_vertices))
            problems.append((len(kept), _three_term_terms(d, n, j, kept), j))
    dets = iter(linalg.det_cyclotomic_poly(problems, d.p))
    out = [[next(dets) for _ in range(n + 1)] for n, _ in asks]
    for rows in itertools.chain.from_iterable(out):
        while rows and not any(rows[-1]):
            rows.pop()
    return out


def xi_poly(table: CharacterTable) -> UniPoly:
    """The group-ring polynomial det(I - A_alpha C u + (D C - I) u^2).

    Its projections are the z(u, psi) of the table's level; it is
    reassembled by traces from the n + 1 representatives' z rows.
    """
    return from_character_polys(
        table.datum.p, table.level, [table.z(j) for j in range(table.level + 1)]
    )


@dataclass
class CharacterTable:
    """h, z and the special values of the characters of Z/p^n Z at one level.

    One three-term determinant per Galois orbit: h (and, on first use, z)
    of the representatives psi_{p^(n-j)}, j = 0..n, all from one kernel call,
    kept as integer coordinate rows.  Any other character psi = sigma_u o
    psi_{p^(n-j)} (`groupring.orbit_representatives`) has sigma_u of the
    representative's three-term matrix as its own, so its h and h(1, psi)
    are the representative's with sigma_u applied, which `orbit_rows` does
    for a whole orbit (`cyclo.galois_conjugates`).  Build it with
    `character_table`, or several levels' tables, z included where asked,
    with one kernel call of `character_tables`; it is not cached between
    calls.
    """

    datum: TowerDatum
    level: int
    representatives: list[CharacterLabel]
    rep_coordinates: list[list[list[int]]]  # h per representative: row k its u^k coefficient
    rep_z: list[list[list[int]]] | None = None  # z per representative, filled in on first use

    def z(self, j: int) -> list[list[int]]:
        """The coordinate rows of z(u, psi) at the representative of order p^j."""
        if self.rep_z is None:
            self.rep_z = _three_term_dets(self.datum, [(self.level, False)])[0]
        return self.rep_z[j]

    def rep_h_at_one(self, j: int) -> list[int]:
        """Coordinates of h(1) at the representative of order p^j: its rows' column sums."""
        sums = [sum(column) for column in zip(*self.rep_coordinates[j])]
        return sums or [0] * euler_phi_prime_power(self.datum.p, j)

    def trivial_h_derivative_at_one(self) -> int:
        return sum(k * row[0] for k, row in enumerate(self.rep_coordinates[0]))

    def level_h(self) -> UniPoly:
        """h_{X_n}(u) = det(I - A u + (D - I) u^2) of the level-n cover, without building it.

        The Artin formalism h_{X_n}(u) = prod_psi h(u, psi), orbit by orbit:
        the characters of order p^j are the Galois conjugates of one
        representative, so their product is the norm from Q(zeta_{p^j})(u) to
        Q(u) of its h rows (`cyclo.coordinate_norm`).
        """
        p = self.datum.p
        norms = [coordinate_norm(rows, p, j) for j, rows in enumerate(self.rep_coordinates)]
        return math.prod(map(UniPoly, norms), start=UniPoly.constant(1))

    def orbit_rows(self, j: int):
        """(a, h rows, h(1)) for each character psi_a of order p^j, by increasing a.

        The rows are the integer coordinates of h(u, psi_a) and h(1) their
        column sums: sigma_u of the representative's for a = u p^(n-j),
        one gather per unit u mod p^j (`cyclo.galois_conjugates`).
        """
        p, rows = self.datum.p, self.rep_coordinates[j]
        rows = rows + [self.rep_h_at_one(j)]  # sigma_u commutes with the column sums
        units = [u for u in range(1, p**j) if u % p] if j else [1]
        step = p ** (self.level - j) if j else 0  # the trivial character is a = 0
        for u, conjugate in zip(units, galois_conjugates(p, j, rows, units)):
            *h, h_at_one = conjugate
            yield u * step, h, h_at_one


def character_tables(d: TowerDatum, levels: list[int], z_levels: tuple[int, ...] = ()) -> list[CharacterTable]:
    """The `CharacterTable` of each level in levels, z filled in at those in z_levels (each of
    them in levels): the h and z of every orbit representative from one kernel call.

    A determinant that two tables share is taken once: z(psi_j) is h(psi_j) where K_j holds every
    vertex, and the h of a lower level is the level's where no stabilizer of K_j changes.
    """
    dets = _three_term_dets(d, [(n, True) for n in levels] + [(n, False) for n in z_levels])
    tables = [CharacterTable(d, n, orbit_representatives(d.p, n), h) for n, h in zip(levels, dets)]
    for n, z in zip(z_levels, dets[len(levels) :]):
        tables[levels.index(n)].rep_z = z
    return tables


def character_table(d: TowerDatum, n: int) -> CharacterTable:
    """The `CharacterTable` of level n: the h of its n + 1 orbit representatives, in one kernel call."""
    return character_tables(d, [n])[0]


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


def product_formula_check(table: CharacterTable, cover: SerreGraph) -> ProductCheck:
    """Check prod_psi h(u, psi) = h of the level graph, and sum chi_psi = chi.

    The product is the table's `level_h`; the other side is h of `cover`,
    the built level graph.
    """
    d, n, reps = table.datum, table.level, table.representatives
    h_product = table.level_h()
    chi = euler_characteristic(d.base)  # chi_psi = chi - r0(psi), one value on an orbit
    chi_sum = sum(euler_phi_prime_power(d.p, j) * (chi - r0(d, n, psi)) for j, psi in enumerate(reps))
    h_direct, chi_direct = ihara_zeta_reciprocal(cover)
    h_equal = h_product == h_direct
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
    results = {
        "trivial_vanishes": not any(table.rep_h_at_one(0)),
        "trivial_derivative_nonzero": table.trivial_h_derivative_at_one() != 0,
    }
    if n:
        results["nontrivial_nonzero"] = all(any(table.rep_h_at_one(j)) for j in range(1, n + 1))
    results["ok"] = all(results.values())
    return results


def orbit_vertices(d: TowerDatum, j: int) -> list[int]:
    """K_j: the base vertices kept by every character of order p^j, the rows of its h.

    They are the unramified vertices and those with k_v >= j, at every
    level n >= j: the vertices whose stabilizer H_v(n) lies in ker(psi).
    """
    return [v for v, k in enumerate(d.ram) if k is None or k >= j]


def voltage_laplacian_det(d: TowerDatum, kept: list[int], voltage) -> tuple[list[int], int]:
    """(F, s): F(x) = x^s det(D - A_x) on the vertices kept, by `linalg.det_cyclotomic_poly` at j = 0.

    A_x[i][i'] sums x^voltage[e] over the base darts e from kept[i'] to
    kept[i], and D holds the base degrees.  Row i is multiplied by x^s_i,
    s_i the sum of the negative voltages' |voltage[e]| in it, and s = sum s_i.
    """
    base = d.base
    pos = {v: i for i, v in enumerate(kept)}
    darts = [
        (pos[base.dart_terminus[e]], pos[base.dart_origin[e]], voltage[e])
        for e in range(base.n_darts)
        if base.dart_origin[e] in pos and base.dart_terminus[e] in pos
    ]
    shift = [0] * len(kept)
    for r, _, a in darts:
        shift[r] += max(0, -a)
    terms = [(r, r, 0, shift[r], base.dart_origin.count(v)) for r, v in enumerate(kept)]
    terms += [(r, c, 0, shift[r] + a, -1) for r, c, a in darts]
    # j = 0: the integer polynomial determinant, one coordinate per u-degree; p plays no role, so pass 2
    return [row[0] for row in linalg.det_cyclotomic_poly([(len(kept), terms, 0)], 2)[0]], sum(shift)


def orbit_norms(d: TowerDatum, n: int) -> dict[int, int]:
    """{j: Ntilde_j = N_{Q(zeta_{p^j})/Q} det(D - A_zeta) on K_j} for j = 1..n; level-free.

    D - A_zeta is the three-term matrix of a character of order p^j at
    level j (where C = I on K_j) at u = 1.  Per distinct K_j, one
    `cyclotomic_norms` call on F_K = x^s det(D - A_x) (`voltage_laplacian_det`,
    voltages as symmetric residues mod p^n) gives every N_j(F_K); then
    det(D - A_zeta) = zeta^(-s) F_K(zeta), and N(zeta_{p^j}) = -1 only for p^j = 2.
    """
    order = d.p**n
    voltage = [(a + order // 2) % order - order // 2 for a in d.voltage]
    norms = {}
    for kept, group in itertools.groupby(range(1, n + 1), lambda j: orbit_vertices(d, j)):
        js = list(group)
        coeffs, shift = voltage_laplacian_det(d, kept, voltage)
        values = cyclotomic_norms(coeffs, d.p, js[-1])
        norms.update((j, -values[j] if d.p**j == 2 and shift % 2 else values[j]) for j in js)
    return norms


def orbit_level_exponent(d: TowerDatum, n: int, j: int) -> int:
    """phi(p^j) * sum over v with j <= k_v < n of (n - k_v): the power of p that psi(C) on K_j,
    diag |H_v(n)|, gives the product over the orbit of order p^j.

    On K_j (`orbit_vertices`) |H_v(n)| = p^(n - k_v) where k_v < n, and 1 where
    k_v >= n or v is unramified.
    """
    return euler_phi_prime_power(d.p, j) * sum(n - k for k in d.ram if k is not None and j <= k < n)


def orbit_special_products(d: TowerDatum, n: int) -> dict[int, int]:
    """For each j = 1..n: N_j, the product of h(1, psi) over the characters of order p^j.

    At u = 1 the three-term matrix on K_j is (D - A_psi) psi(C), and psi(C)
    is diag |H_v(n)| there, so N_j = Ntilde_j * p^orbit_level_exponent(d, n, j) (`orbit_norms`).
    """
    return {j: norm * d.p ** orbit_level_exponent(d, n, j) for j, norm in orbit_norms(d, n).items()}


def ordp_orbit_product(d: TowerDatum, n: int, j: int) -> Valuation:
    """Valuation of the order-p^j block product of special values; ValueError unless 1 <= j <= n."""
    if not 1 <= j <= n:
        raise ValueError(f"orbit exponent j = {j} outside 1..{n}")
    return ordp_fraction(orbit_norms(d, j)[j] * d.p ** orbit_level_exponent(d, n, j), d.p)


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
