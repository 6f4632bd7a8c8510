"""Brute-force oracles, kept independent of the library code paths they check."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from graphzeta.cyclo import CycloNum, zeta
from graphzeta.equivariant import _modulus_of
from graphzeta.graphs import SerreGraph
from graphzeta.groupring import GroupRingElem, groupring_idempotent
from graphzeta.lfunctions import LfnData, characters, orbit_vertices, special_values
from graphzeta.linalg import det_norm_cyclotomic
from graphzeta.poly import UniPoly
from graphzeta.tower import TowerDatum, level_matrices


def det_cofactor(rows):
    """Division-free Laplace expansion with column-subset memoization.

    Valid over any commutative ring (integers, fractions, cyclotomic numbers,
    group-ring elements, polynomials and truncated series over them);
    exponential in the dimension.
    """
    n = len(rows)
    if n == 0:
        return 1
    # dp maps a bitmask of used columns to the determinant of the top rows.
    dp = {0: 1}
    for i in range(n):
        nxt = {}
        for mask, val in dp.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = rows[i][c]
                if entry == 0:
                    continue
                below = mask & (bit - 1)
                sign = -1 if (i + bin(below).count("1")) % 2 else 1
                term = val * entry * sign
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + term
        dp = nxt
    full = (1 << n) - 1
    return dp.get(full, 0)


def count_spanning_trees_exhaustive(g: SerreGraph) -> int:
    """Enumerate all (n-1)-edge subsets and count the spanning trees."""
    n = g.n_vertices
    if n <= 1:
        return 1
    edges = [
        (g.dart_origin[e], g.dart_terminus[e])
        for e in range(g.n_darts)
        if e < g.dart_inverse[e]
    ]
    count = 0
    for combo in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i in combo:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            count += 1
    return count


def count_reduced_closed_paths_exhaustive(g: SerreGraph, k: int) -> int:
    """Count closed dart sequences of length k with no backtracking, cyclically."""
    total = 0
    follows = [
        [
            f
            for f in range(g.n_darts)
            if g.dart_origin[f] == g.dart_terminus[e] and f != g.dart_inverse[e]
        ]
        for e in range(g.n_darts)
    ]

    def extend(path):
        nonlocal total
        if len(path) == k:
            if (
                g.dart_origin[path[0]] == g.dart_terminus[path[-1]]
                and path[0] != g.dart_inverse[path[-1]]
            ):
                total += 1
            return
        for f in follows[path[-1]]:
            extend(path + [f])

    for e0 in range(g.n_darts):
        extend([e0])
    return total


def dart_transition_matrix(g: SerreGraph) -> list[list[int]]:
    """Non-backtracking dart matrix: B[e][f] = 1 iff f follows e and f != inv(e)."""
    d = g.n_darts
    b = [[0] * d for _ in range(d)]
    for e in range(d):
        for f in range(d):
            if g.dart_terminus[e] == g.dart_origin[f] and f != g.dart_inverse[e]:
                b[e][f] = 1
    return b


def path_counts_by_matrix_powers(g: SerreGraph, k_max: int) -> list[int]:
    """N_1..N_k as traces of dense powers of the dart transition matrix, in Python integers."""
    b = np.array(dart_transition_matrix(g), dtype=object).reshape(g.n_darts, g.n_darts)
    power, counts = np.eye(g.n_darts, dtype=object), []
    for _ in range(k_max):
        power = power @ b
        counts.append(int(power.trace()))
    return counts


def character_value_by_powers(x, p: int, n: int, a: int, level: int) -> CycloNum:
    """psi_a(x) = sum_s c_s * zeta_{p^L}^(a p^L / p^n * s) by explicit powers.

    Cyclotomic coefficients are lifted to level L and multiplied in; the
    exponent a p^L / p^n must be an integer.
    """
    order = p**level
    assert (a * order) % p**n == 0
    root = zeta(p, level)
    acc = CycloNum.rational(p, 0, level)
    for s, c in enumerate(x.coeffs):
        power = root ** ((a * order // p**n * s) % order)
        acc = acc + (c.lift(level) if isinstance(c, CycloNum) else c) * power
    return acc


def from_character_values_by_characters(p: int, n: int, values) -> GroupRingElem:
    """x = sum_a values[a] e_{psi_a} from all p^n character values, one at a time.

    values[a] = psi_a(x) (rational, or CycloNum at any level); the work is
    done at the level max(n, value levels), and a nonrational coefficient
    is an error.
    """
    m = p**n
    values = list(values)
    assert len(values) == m
    level = max([n] + [v.j for v in values if isinstance(v, CycloNum)])
    scale = p ** (level - n)

    def monomials(v):
        # (exponent, coefficient) pairs of v in powers of zeta_{p^level}
        if not isinstance(v, CycloNum):
            return [(0, v)]
        step = p ** (level - v.j) if v.j else 0
        return [(i * step, c) for i, c in enumerate(v.coeffs) if c]

    terms = [(a * scale, monomials(v)) for a, v in enumerate(values) if v]
    coeffs = []
    for t in range(m):
        # psi_a(-t) = zeta_{p^level}^(-a t scale): rotate v_a's monomials
        acc = CycloNum.from_monomials(
            p, level, ((e - rot * t, c) for rot, mono in terms for e, c in mono)
        )
        if not acc.is_rational():
            raise ValueError(f"reassembled coefficient of [{t}] is not rational: {acc!r}")
        coeffs.append(acc.to_rational() / m)
    return GroupRingElem(m, coeffs)


def orbit_special_products_by_characters(d, n: int) -> dict[int, Fraction]:
    """N_j = prod h(1, psi) over ord(psi) = p^j, multiplied out in Q(zeta_{p^j}) per character."""
    p = d.p
    out = {}
    for j in range(1, n + 1):
        prod = CycloNum.rational(p, 1, j)
        for psi in characters(p, n):
            if psi.order_exponent == j:
                prod = prod * special_values(d, n, psi).h_at_one.lift(j)
        assert prod.is_rational()
        out[j] = prod.to_rational()
    return out


def orbit_norm_by_kernel(d: TowerDatum, j: int) -> int:
    """Ntilde_j = N det(D - A_zeta) on K_j, by the multimodular kernel over primes q = 1 mod p^j.

    D holds the base degrees and A_zeta[i][i'] sums zeta_{p^j}^alpha(s) over
    the base darts s from v_i' to v_i: u-free terms of `det_norm_cyclotomic`
    at level j, which runs out of primes below 2^31 for large phi(p^j).
    """
    kept = orbit_vertices(d, j)
    pos = {v: i for i, v in enumerate(kept)}
    base = d.base
    deg = [base.dart_origin.count(v) for v in kept]
    terms = [(i, i, 0, 0, deg[i]) for i in range(len(kept))]
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        if o in pos and t in pos:
            terms.append((pos[t], pos[o], d.voltage[e], 0, -1))
    return det_norm_cyclotomic([(len(kept), terms, j)], d.p)[0][0]


def l_reciprocal_of_sum(data: list[LfnData]) -> tuple[int, UniPoly]:
    """Reciprocal L-function of a direct sum of characters (additivity).

    Returns (total c-exponent, product of the h factors), all characters
    lifted to a common cyclotomic level and multiplied out in `CycloNum`.
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


def eta_direct(d: TowerDatum, n: int) -> UniPoly:
    """eta(u) by cofactor expansion straight over the group ring.

    Independent of the character route; exponential in the number of base
    vertices, so reserved for small cross-checks.
    """
    a_alpha, c, deg = level_matrices(d, n)
    m = d.p**n
    g = d.base.n_vertices
    rows = []
    for i in range(g):
        e_i = groupring_idempotent(m, d.stabilizer_order(i, n))
        row = []
        for j in range(g):
            ident = GroupRingElem.one(m) if i == j else GroupRingElem.zero(m)
            a_entry = e_i * a_alpha[i][j] * c[j]
            if i == j:
                q_entry = e_i * (d.stabilizer_order(i, n) * deg[i] - 1)
            else:
                q_entry = GroupRingElem.zero(m)
            row.append(UniPoly([ident, -a_entry, q_entry]))
        rows.append(row)
    det = det_cofactor(rows)
    return det if isinstance(det, UniPoly) else UniPoly.constant(det)


def norm_map_direct(x: UniPoly | GroupRingElem, subgroup_order: int) -> UniPoly:
    """N_{G/H} straight from the definition: cofactor determinant of the
    multiplication matrix over Q[H][u] with coset representatives 0..(G:H)-1."""
    m = _modulus_of(x)
    ph = subgroup_order
    index = m // ph
    poly = x if isinstance(x, UniPoly) else UniPoly.constant(x)

    def decompose(elem: GroupRingElem) -> list[GroupRingElem]:
        # elem = sum_i comp[i] * [i] with comp[i] in Q[H], H = <index>.
        comps = [dict() for _ in range(index)]
        for s, c in enumerate(elem.coeffs):
            if c:
                i = s % index
                t = ((s - i) // index) % ph
                comps[i][t] = comps[i].get(t, 0) + c
        return [GroupRingElem.from_dict(ph, comp) for comp in comps]

    mat = [[UniPoly() for _ in range(index)] for _ in range(index)]
    for k in range(poly.degree + 1):
        coeff = poly.coefficient(k)
        if isinstance(coeff, (int, Fraction)):
            coeff = GroupRingElem.basis(m, 0, coeff)
        if not coeff:
            continue
        for jcol in range(index):
            shifted_coeffs = [Fraction(0)] * m
            for s, c in enumerate(coeff.coeffs):
                shifted_coeffs[(s + jcol) % m] = c
            comps = decompose(GroupRingElem(m, shifted_coeffs))
            for irow in range(index):
                if comps[irow]:
                    mat[irow][jcol] = mat[irow][jcol] + UniPoly.monomial(k, 1) * UniPoly.constant(
                        comps[irow]
                    )
    for i in range(index):
        for jcol in range(index):
            if mat[i][jcol].is_zero():
                mat[i][jcol] = UniPoly.constant(GroupRingElem.zero(ph))
    det = det_cofactor(mat)
    return det if isinstance(det, UniPoly) else UniPoly.constant(det)


def galois_by_monomials(x: CycloNum, u: int) -> CycloNum:
    """sigma_u(x): zeta^i sent to zeta^(i u), the sum reduced by `CycloNum.from_monomials`."""
    return CycloNum.from_monomials(x.p, x.j, ((i * u, c) for i, c in enumerate(x.coeffs) if c))


def galois_conjugate(poly: UniPoly, u: int) -> UniPoly:
    """sigma_u (zeta -> zeta^u) applied to each coefficient; rational ones stay."""
    return poly.map_coeffs(lambda c: c.galois(u) if isinstance(c, CycloNum) else c)
