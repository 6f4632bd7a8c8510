"""Exact determinants over the coefficient rings used in this package.

Routes:
  - integer matrices: fraction-free Bareiss elimination; above a size
    threshold, CRT over word-size primes with vectorized modular
    elimination (numpy int64), certified by the Hadamard bound;
  - norms of cyclotomic determinants (`det_norm_cyclotomic`): the same
    multimodular kernel over primes q = 1 mod p^j, one batched elimination
    per prime across all primitive roots of unity in F_q; one prime
    generator, one batched elimination and one signed CRT serve both
    multimodular routes;
  - integer polynomial matrices (`det_poly_int`): the same multimodular
    kernel, batched over primes and evaluation points 0..D, with Newton
    interpolation mod each prime and CRT against the coefficient bound
    prod_r sum_c ||M[r][c]||_1;
  - rational matrices, scalar or polynomial: per-row denominator clearing
    down to the integer routes;
  - cyclotomic matrices: division elimination (the entries form a field);
  - polynomial matrices over cyclotomic fields: the rational route when
    every coefficient is rational, else cofactor expansion in small
    dimension, otherwise evaluation at integer points and Newton
    interpolation;
  - group-ring matrices: projection to cyclotomic fields, one determinant
    per Galois orbit of characters with the other characters' values as its
    conjugates, and idempotent reassembly, all through `groupring`
    (`character_orbits`, `apply_character` and `from_character_polys`; the
    group ring has zero divisors, so elimination is not available there); a
    direct cofactor route exists for cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclo import CycloNum
from .errors import CertificationError
from .groupring import (
    GroupRingElem,
    apply_character,
    character_orbits,
    factor_prime_power,
    from_character_polys,
    galois_conjugate,
)
from .poly import UniPoly

__all__ = [
    "det_bareiss_int",
    "det_cofactor",
    "det_commutative",
    "det_fraction",
    "det_int",
    "det_norm_cyclotomic",
    "det_poly_int",
    "is_probable_prime",
]

_BAREISS_MAX_DIM = 28


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases 2, 7 and 61 is exact below this bound (Jaeschke
# 1993), which covers every modulus below 2^31; the first twelve primes as
# bases are exact far beyond anything this package tests.
_THREE_BASE_BOUND = 4_759_123_141


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything this package will ever see."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    return _strong_probable_prime(n, (2, 7, 61) if n < _THREE_BASE_BOUND else _SMALL_PRIMES)


def _strong_probable_prime(n: int, bases) -> bool:
    # Miller-Rabin for odd n > 37 against each base (a base that n divides says nothing).
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        if a % n == 0:
            continue
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


_WORD = 1 << 31  # moduli stay below this, so products of two residues fit in int64
# int64 entries per elimination batch; an elimination holds a few such arrays at
# once, so this keeps the multimodular kernels to a few MB of working memory.
_BATCH_ENTRIES = 1 << 15


def _modular_primes(target: int, m: int = 1) -> list[int]:
    """Distinct primes q < 2^31 with q = 1 mod m, largest first, whose product exceeds target.

    For m = p^j the field F_q holds every p^j-th root of unity.  There are
    about 2^31 / (phi(m) ln 2^31) such primes, together about 3e9 / phi(m)
    bits; a larger target raises CertificationError.
    """
    step = m if m % 2 == 0 else 2 * m
    cand = (_WORD - 2) // step * step + 1
    primes, prod = [], 1
    while prod <= target:
        if cand < 3:
            raise CertificationError(
                f"too few primes below 2^31 congruent to 1 mod {m} for a {target.bit_length()}-bit bound"
            )
        if is_probable_prime(cand):
            primes.append(cand)
            prod *= cand
        cand -= step
    return primes


def _crt_signed(residues, primes: list[int]) -> int:
    """The integer x with |x| < prod(primes)/2 and x = residues[i] mod primes[i]."""
    value, modulus = 0, 1
    for r, q in zip(residues, primes):
        t = (int(r) - value) * pow(modulus, -1, q) % q
        value += modulus * t
        modulus *= q
    return value - modulus if value > modulus // 2 else value


def _det_mod_batch(mats: np.ndarray, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a (b, k, k) integer batch, element i mod the prime moduli[i] < 2^31.

    Returned as (num, den): det i = num[i] / den[i] mod moduli[i], den[i] a
    unit, so a caller inverts once per prime.  Division-free elimination: at
    column c every element takes its own first nonzero pivot (a row swap
    where needed) and replaces each lower row r by
    pivot * r - m[r][c] * (pivot row), which multiplies the determinant by
    pivot^(k-1-c).  With P_c the product of the first c + 1 pivots, the
    determinant is sign * P_(k-1) / (P_0 ... P_(k-2)).
    """
    b, k, _ = mats.shape
    q = np.asarray(moduli, dtype=np.int64)
    qm = q[:, None, None]
    m = mats % qm
    rows = np.arange(b)
    sign = np.ones(b, dtype=np.int64)
    alive = np.ones(b, dtype=bool)
    run = np.ones(b, dtype=np.int64)
    den = np.ones(b, dtype=np.int64)
    for c in range(k):
        nonzero = m[:, c:, c] != 0
        alive &= nonzero.any(axis=1)
        r = c + nonzero.argmax(axis=1)
        swap = r != c
        if swap.any():
            pivot_rows = m[rows, r].copy()
            m[rows, r] = m[:, c]
            m[:, c] = pivot_rows
            sign[swap] = -sign[swap]
        piv = np.where(alive, m[:, c, c], 1)
        if c + 1 < k:
            m[:, c + 1 :, c + 1 :] = (
                piv[:, None, None] * m[:, c + 1 :, c + 1 :]
                - m[:, c + 1 :, c, None] * m[:, c, None, c + 1 :]
            ) % qm
        if c > 0:
            den = den * run % q
        run = run * piv % q
    return np.where(alive, sign * run % q, 0), den


def _int_array(values) -> np.ndarray:
    # int64 where every entry fits, else object (Python ints) for the reduction below.
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _residue_batch(values: np.ndarray, primes: list[int]) -> np.ndarray:
    # (len(primes), *values.shape) int64: the integer array reduced mod each prime.
    q = np.array(primes, dtype=np.int64).reshape((-1,) + (1,) * values.ndim)
    return (values[None] % q).astype(np.int64)


def _det_crt(rows: list[list[int]]) -> int:
    primes = _modular_primes(2 * _hadamard_bound(rows) + 1)
    values = _int_array(rows)
    chunk = max(1, _BATCH_ENTRIES // len(rows) ** 2)
    residues = []
    for i in range(0, len(primes), chunk):
        part = primes[i : i + chunk]
        num, den = _det_mod_batch(_residue_batch(values, part), np.array(part))
        residues += [int(a) * pow(int(b), -1, q) % q for a, b, q in zip(num, den, part)]
    return _crt_signed(residues, primes)


def det_poly_int(rows) -> UniPoly:
    """Determinant of a square matrix whose entries are integer polynomials (UniPoly or int).

    Multimodular evaluation and interpolation.  The determinant has degree
    at most D = sum over rows of the largest entry degree, and every
    coefficient is at most B = prod_r sum_c ||M[r][c]||_1 (sum of absolute
    coefficients) in absolute value: it is at most the permanent of the
    1-norm matrix.  For each prime q of `_modular_primes(2B)`, M is
    evaluated mod q at t = 0..D and the D + 1 determinants come from
    `_det_mod_batch`, whose per-element pivoting covers the points where
    M(t) is singular; Newton's divided differences mod q (batched over the
    primes) give the coefficients mod q, and `_crt_signed` lifts each one.
    The (prime, point) batch is built and eliminated in chunks of about
    `_BATCH_ENTRIES` matrix entries.
    """
    n = len(rows)
    if n == 0:
        return UniPoly.constant(1)
    coeffs = [[x.coeffs if isinstance(x, UniPoly) else (x,) for x in row] for row in rows]
    bound = math.prod(sum(abs(a) for c in row for a in c) for row in coeffs)
    if bound == 0:
        return UniPoly()  # a zero row
    row_degree = [max(len(c) for c in row) - 1 for row in coeffs]
    width = max(row_degree) + 1
    dense = [[[c[k] if k < len(c) else 0 for c in row] for row in coeffs] for k in range(width)]
    values = _int_array(dense)  # (width, n, n): coefficient k of every entry
    primes = _modular_primes(2 * bound)
    points = sum(row_degree) + 1
    moduli = np.array(primes, dtype=np.int64)
    dets = np.empty(len(primes) * points, dtype=np.int64)  # prime-major: det M(t) mod q
    chunk = max(1, _BATCH_ENTRIES // (n * n))
    for start in range(0, dets.size, chunk):
        which, t = np.divmod(np.arange(start, min(start + chunk, dets.size)), points)
        residues = _residue_batch(values, primes[which[0] : which[-1] + 1])
        local = which - which[0]
        q = moduli[which]
        batch = residues[local, width - 1]
        for k in range(width - 2, -1, -1):
            batch = (batch * t[:, None, None] + residues[local, k]) % q[:, None, None]
        num, den = _det_mod_batch(batch, q)
        dets[start : start + len(t)] = [
            a * pow(b, -1, m) % m for a, b, m in zip(num.tolist(), den.tolist(), q.tolist())
        ]
    qcol = moduli[:, None]
    newton = dets.reshape(len(primes), points)
    inverses = np.array([[pow(k, -1, m) for k in range(1, points)] for m in primes], dtype=np.int64)
    for k in range(1, points):
        # divided differences on the nodes 0..D: node i minus node i - k is k
        newton[:, k:] = (newton[:, k:] - newton[:, k - 1 : -1]) % qcol * inverses[:, k - 1 : k] % qcol
    mono = np.zeros_like(newton)
    mono[:, 0] = newton[:, -1]
    for k in range(points - 2, -1, -1):
        # mono <- mono * (x - k) + newton_k
        mono[:, 1:] = (mono[:, :-1] - k * mono[:, 1:]) % qcol
        mono[:, 0] = (newton[:, k] - k * mono[:, 0]) % moduli
    return UniPoly([_crt_signed(mono[:, i], primes) for i in range(points)])


def _power_table(g: int, order: int, q: int) -> np.ndarray:
    # g^0 .. g^(order-1) mod q, by doubling: the second half is the first times g^len.
    table = np.ones(1, dtype=np.int64)
    step = g
    while table.size < order:
        table = np.concatenate([table, table * step % q])
        step = step * step % q
    return table[:order]


def _root_of_unity(q: int, p: int, j: int) -> int:
    """An element of exact order p^j in F_q^*; needs q = 1 mod p^j."""
    order = p**j
    for x in range(2, q):
        g = pow(x, (q - 1) // order, q)
        if order == 1 or pow(g, order // p, q) != 1:
            return g
    raise ValueError(f"no element of order {order} mod {q}")


def _prod_mod(x: np.ndarray, q: int) -> int:
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 1)
        x = x[0::2] * x[1::2] % q
    return int(x[0]) if x.size else 1


def det_norm_cyclotomic(k: int, terms, p: int, j: int) -> int:
    """N_{Q(zeta)/Q} det M(zeta) for zeta a primitive p^j-th root of unity.

    M is the k x k matrix with M[r][c] the sum of coeff * zeta^exp over the
    terms (r, c, exp, coeff), all integers.  The norm is the integer
    prod det M(zeta') over the phi(p^j) primitive p^j-th roots zeta'.  For
    each prime q = 1 mod p^j below 2^31, F_q holds those roots as the powers
    g^e (p not dividing e) of one g of exact order p^j: M is evaluated at all
    of them from one power table, the batch goes through one elimination,
    and the determinants are multiplied mod q (one inversion per prime).
    The residues are joined by CRT until the modulus exceeds twice the
    row-1-norm bound (prod_r sum |coeff| over row r)^phi(p^j), which bounds
    every conjugate's determinant and so the norm.
    """
    if k == 0:
        return 1
    order = p**j
    exponents = np.arange(order, dtype=np.int64)
    units = exponents[np.gcd(exponents, order) == 1]
    row_norm = [0] * k
    for r, _, _, coeff in terms:
        row_norm[r] += abs(coeff)
    bound = math.prod(row_norm) ** len(units)
    places = [(r, c, (e % order) * units % order, coeff) for r, c, e, coeff in terms]
    primes = _modular_primes(2 * bound, order)
    residues = []
    for q in primes:
        powers = _power_table(_root_of_unity(q, p, j), order, q)
        batch = np.zeros((len(units), k, k), dtype=np.int64)
        for r, c, where, coeff in places:
            batch[:, r, c] = (batch[:, r, c] + coeff % q * powers[where]) % q
        num, den = _det_mod_batch(batch, np.full(len(units), q))
        residues.append(_prod_mod(num, q) * pow(_prod_mod(den, q), -1, q) % q)
    return _crt_signed(residues, primes)


def det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n <= _BAREISS_MAX_DIM:
        return det_bareiss_int(rows)
    return _det_crt(rows)


def _clear_row_denominators(rows) -> tuple[list, int]:
    # Scale each row by the lcm of its denominators, polynomial coefficients
    # included; the determinant of the cleared rows is den times the original.
    cleared, den = [], 1
    for row in rows:
        coeffs = (c for x in row for c in (x.coeffs if isinstance(x, UniPoly) else (x,)))
        d = math.lcm(*(Fraction(c).denominator for c in coeffs))

        def scale(c, d=d):
            return int(Fraction(c) * d)

        cleared.append([x.map_coeffs(scale) if isinstance(x, UniPoly) else scale(x) for x in row])
        den *= d
    return cleared, den


def det_fraction(rows) -> Fraction:
    """Determinant of a rational matrix, via per-row denominator clearing."""
    cleared, den = _clear_row_denominators(rows)
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
    cyclo = [c for row in mat for e in row for c in e.coeffs if isinstance(c, CycloNum)]
    one = CycloNum.rational(cyclo[0].p, 1, cyclo[0].j) if cyclo else None
    if cyclo and all(c.is_rational() for c in cyclo):
        # A matrix over Q written at level j: the integer kernel, re-embedded at j.
        rational = [
            [e.map_coeffs(lambda c: c.to_rational() if isinstance(c, CycloNum) else c) for e in row]
            for row in mat
        ]
        return _det_poly_rational(rational).map_coeffs(lambda c: one * c)
    if n <= _COFACTOR_POLY_MAX_DIM:
        return _poly_entry(det_cofactor(mat))
    degree = sum(max((e.degree for e in row), default=0) for row in mat)
    points = list(range(degree + 1))
    values = [_det_field([[e(t * one) for e in row] for row in mat], one) for t in points]
    return _newton_interpolate(points, values)


def _det_poly_rational(rows) -> UniPoly:
    cleared, den = _clear_row_denominators(rows)
    return det_poly_int(cleared).map_coeffs(lambda c: Fraction(c, den))


def _det_groupring_poly(rows) -> UniPoly:
    # Entries are UniPoly over GroupRingElem (or scalars).  One determinant per
    # Galois orbit of the characters of Z/p^n Z, on its representative; the
    # other characters' determinants are its conjugates, which needs the
    # group-ring coefficients rational (sigma_u would move cyclotomic ones).
    mat = [[_poly_entry(x) for x in r] for r in rows]
    ring = [c for row in mat for e in row for c in e.coeffs if isinstance(c, GroupRingElem)]
    if any(isinstance(x, CycloNum) for c in ring for x in c.coeffs):
        raise ValueError("group-ring determinants need rational group-ring coefficients")
    p, n = factor_prime_power(ring[0].m)
    reps, orbits = character_orbits(p, n)
    per_orbit = [
        _det_poly_cyclo(
            [[e.map_coeffs(lambda c: apply_character(c, psi)) for e in row] for row in mat]
        )
        for psi in reps
    ]
    return from_character_polys(p, n, [galois_conjugate(per_orbit[j], u) for j, u in orbits])


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
        if "fraction" in kinds:
            return _det_poly_rational(rows)
        return det_poly_int(rows)
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
