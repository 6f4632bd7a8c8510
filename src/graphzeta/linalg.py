"""Exact determinants over the coefficient rings used in this package.

Routes:
  - integer matrices: fraction-free Bareiss elimination; above a size
    threshold, CRT over word-size primes with vectorized modular
    elimination (numpy int64), certified by the Hadamard bound;
  - rational matrices: denominator clearing down to the integer route;
  - cyclotomic matrices: division elimination (the entries form a field);
  - polynomial matrices: cofactor expansion in small dimension, otherwise
    evaluation at integer points and Lagrange interpolation;
  - group-ring matrices: per-character projection to cyclotomic fields and
    idempotent reassembly, both through `groupring` (`apply_character` and
    `from_character_polys`; the group ring has zero divisors, so elimination
    is not available there); a direct cofactor route exists for cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclo import CycloNum
from .groupring import (
    GroupRingElem,
    apply_character,
    characters,
    factor_prime_power,
    from_character_polys,
)
from .poly import UniPoly

__all__ = [
    "det_bareiss_int",
    "det_cofactor",
    "det_commutative",
    "det_fraction",
    "det_int",
    "is_probable_prime",
]

_BAREISS_MAX_DIM = 28


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything this package will ever see."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free elimination; exact for integer entries."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            aik = row_i[k]
            for jj in range(k + 1, n):
                row_i[jj] = (pivot * row_i[jj] - aik * row_k[jj]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _hadamard_bound(rows) -> int:
    bound = 1
    for r in rows:
        s = sum(int(x) * int(x) for x in r)
        bound *= math.isqrt(s) + 1
    return bound


def _modular_primes(target: int):
    # Yield distinct primes just below 2^31 until their product exceeds target.
    prod = 1
    cand = (1 << 31) - 1
    while prod <= target:
        while not is_probable_prime(cand):
            cand -= 2
        yield cand
        prod *= cand
        cand -= 2


def _det_mod_p(mat: np.ndarray, p: int) -> int:
    m = mat % p
    n = m.shape[0]
    det = 1
    for i in range(n):
        col = m[i:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return 0
        k = i + int(nz[0])
        if k != i:
            m[[i, k]] = m[[k, i]]
            det = -det
        pivot = int(m[i, i])
        det = det * pivot % p
        if i + 1 < n:
            inv = pow(pivot, -1, p)
            factor = (m[i + 1 :, i] * inv) % p
            m[i + 1 :, i:] = (m[i + 1 :, i:] - factor[:, None] * m[i, i:]) % p
    return det % p


def _det_crt(rows: list[list[int]]) -> int:
    bound = _hadamard_bound(rows)
    value, modulus = 0, 1
    for p in _modular_primes(2 * bound + 1):
        mat = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
        r = _det_mod_p(mat, p)
        # CRT merge
        inv = pow(modulus % p, -1, p) if modulus > 1 else 1
        t = ((r - value) * inv) % p
        value += modulus * t
        modulus *= p
    if value > modulus // 2:
        value -= modulus
    return value


def det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n <= _BAREISS_MAX_DIM:
        return det_bareiss_int(rows)
    return _det_crt(rows)


def det_fraction(rows) -> Fraction:
    """Determinant of a rational matrix, via per-row denominator clearing."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    cleared = []
    den = 1
    for r in rows:
        fr = [Fraction(x) for x in r]
        d = 1
        for x in fr:
            d = d * x.denominator // math.gcd(d, x.denominator)
        cleared.append([int(x * d) for x in fr])
        den *= d
    return Fraction(det_int(cleared), den)


def _det_field(rows, one) -> object:
    # Division elimination; entries must form a field (used for CycloNum).
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    det = one
    sign = 1
    for i in range(n):
        k = next((r for r in range(i, n) if m[r][i] != 0), None)
        if k is None:
            return one * 0
        if k != i:
            m[i], m[k] = m[k], m[i]
            sign = -sign
        pivot = m[i][i]
        det = det * pivot
        if i + 1 < n:
            inv = pivot.inverse() if hasattr(pivot, "inverse") else 1 / pivot
            for r in range(i + 1, n):
                f = m[r][i] * inv
                if f != 0:
                    for c in range(i, n):
                        m[r][c] = m[r][c] - f * m[i][c]
    return det * sign


def det_cofactor(rows):
    """Division-free Laplace expansion with column-subset memoization.

    Valid over any commutative ring; exponential in the dimension, so only
    used for small matrices and as an independent cross-check.
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


_COFACTOR_POLY_MAX_DIM = 6


def _poly_entry(x) -> UniPoly:
    return x if isinstance(x, UniPoly) else UniPoly.constant(x)


def _det_poly(rows) -> UniPoly:
    # Matrix with UniPoly (or scalar) entries over int/Fraction scalars.
    n = len(rows)
    mat = [[_poly_entry(x) for x in r] for r in rows]
    if n <= _COFACTOR_POLY_MAX_DIM:
        return _poly_entry(det_cofactor(mat))
    degree = sum(max((e.degree for e in row), default=0) for row in mat)
    points = list(range(degree + 1))
    values = [det_fraction([[e(t) for e in row] for row in mat]) for t in points]
    return _newton_interpolate(points, values)


def _newton_interpolate(points: list[int], values: list) -> UniPoly:
    # Divided differences, then Horner over the nodes; exact in any field
    # whose elements support the arithmetic with small integers used here.
    n = len(points)
    coeffs = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * Fraction(1, points[i] - points[i - k])
    poly = UniPoly.constant(coeffs[n - 1])
    for k in range(n - 2, -1, -1):
        poly = poly * UniPoly([-points[k], 1]) + UniPoly.constant(coeffs[k])
    return poly


def _det_poly_cyclo(rows) -> UniPoly:
    n = len(rows)
    mat = [[_poly_entry(x) for x in r] for r in rows]
    if n <= _COFACTOR_POLY_MAX_DIM:
        return _poly_entry(det_cofactor(mat))
    sample = next(
        c for row in mat for e in row for c in e.coeffs if isinstance(c, CycloNum)
    )
    one = CycloNum.rational(sample.p, 1, sample.j)
    degree = sum(max((e.degree for e in row), default=0) for row in mat)
    points = list(range(degree + 1))
    values = [_det_field([[e(t * one) for e in row] for row in mat], one) for t in points]
    return _newton_interpolate(points, values)


def _det_groupring_poly(rows) -> UniPoly:
    # Entries are UniPoly over GroupRingElem (or scalars); per-character route.
    mat = [[_poly_entry(x) for x in r] for r in rows]
    modulus = next(
        c.m for row in mat for e in row for c in e.coeffs if isinstance(c, GroupRingElem)
    )
    p, n = factor_prime_power(modulus)
    per_char = []
    for psi in characters(p, n):
        proj = [
            [e.map_coeffs(lambda c: apply_character(c, psi, level=n)) for e in row] for row in mat
        ]
        per_char.append(_det_poly_cyclo(proj))
    return from_character_polys(p, n, per_char)


def det_commutative(rows):
    """Exact determinant dispatch over the declared coefficient rings."""
    n = len(rows)
    if n == 0:
        return 1
    flat = [x for row in rows for x in row]
    kinds = set()
    for x in flat:
        if isinstance(x, UniPoly):
            kinds.add("poly")
            for c in x.coeffs:
                kinds.add(_scalar_kind(c))
        else:
            kinds.add(_scalar_kind(x))
    if "other" in kinds:
        # truncated series and anything else ring-like: division-free route
        return det_cofactor(rows)
    if "poly" in kinds:
        if "groupring" in kinds:
            return _det_groupring_poly(rows)
        if "cyclo" in kinds:
            return _det_poly_cyclo(rows)
        return _det_poly(rows)
    if "groupring" in kinds:
        result = _det_groupring_poly(rows).coefficient(0)
        if isinstance(result, GroupRingElem):
            return result
        sample = next(x for x in flat if isinstance(x, GroupRingElem))
        return GroupRingElem.basis(sample.m, 0, result)
    if "cyclo" in kinds:
        sample = next(x for x in flat if isinstance(x, CycloNum))
        one = CycloNum.rational(sample.p, 1, sample.j)
        lifted = [
            [x if isinstance(x, CycloNum) else one * x for x in row] for row in rows
        ]
        return _det_field(lifted, one)
    if "fraction" in kinds:
        return det_fraction(rows)
    return det_int(rows)


def _scalar_kind(x) -> str:
    if isinstance(x, GroupRingElem):
        return "groupring"
    if isinstance(x, CycloNum):
        return "cyclo"
    if isinstance(x, Fraction):
        return "fraction"
    if isinstance(x, int):
        return "int"
    return "other"
