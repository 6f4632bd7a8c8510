"""Exact determinants and norms over the coefficient rings used in this package.

Apart from small integer matrices, every route is multimodular: primes
q < 2^31 from one generator, searched once per modulus, elimination of chunks of about
`_BATCH_ENTRIES` entries mod q (`_det_mod_batch`, numpy int64), one
batched inversion per prime, Newton interpolation mod q, one signed CRT.

Routes:
  - integer matrices (`det_int`): Bareiss elimination; above a size
    threshold, the u-free j = 0 call of `det_norm_cyclotomic` below;
  - every polynomial matrix is given as terms (r, c, exp, d, coeff),
    M[r][c] = sum coeff * zeta^exp * u^d, zeta a primitive p^j-th root of
    unity, and evaluated at every primitive p^j-th root of unity in F_q,
    q = 1 mod p^j, and at the points 0..D (`_at_primitive_roots`); then
    either Lagrange interpolation on the roots for the power-basis
    coordinates of the determinant (`det_cyclotomic_poly`: h(u, psi),
    z(u, psi)) or the product over the roots for its norm to Q(u)
    (`det_norm_cyclotomic`: the level h of `zeta`, the product formula).
    j = 0 is the integer polynomial determinant (the cover's h that
    `verify` checks against, and det(D - A_x) behind g(T) and the orbit
    norms of the tower sweep), for any p;
  - polynomial matrices over Q[Z/p^n Z] (`det_groupring_poly`), given as
    terms (r, c, s, d, coeff) with s a group element: one
    `det_cyclotomic_poly` per Galois orbit of characters, whose n + 1
    coordinate rows `from_character_polys` reassembles by traces (the
    group ring has zero divisors, so elimination is not available there);
  - norms from Q[Z/p^n Z][u] to Q[H][u] (`norm_groupring_poly`): all p^n
    character values from one transform mod q, products over the cosets
    of H's characters, one inverse transform over H.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .cyclo import _int_array, euler_phi_prime_power
from .errors import CertificationError
from .groupring import GroupRingElem, factor_prime_power, from_character_polys, subgroup_exponent
from .poly import UniPoly

__all__ = [
    "det_bareiss_int",
    "det_cyclotomic_poly",
    "det_groupring_poly",
    "det_int",
    "det_norm_cyclotomic",
    "is_probable_prime",
    "norm_groupring_poly",
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


_WORD = 1 << 31  # moduli stay below this, so products of two residues fit in int64
# int64 entries per elimination batch; an elimination holds a few such arrays at
# once, so this keeps the multimodular kernels to a few MB of working memory.
_BATCH_ENTRIES = 1 << 15


# m -> [the primes q = 1 mod m found so far, largest first; the next candidate to test]
_PRIME_SUPPLY: dict[int, list] = {}


def _modular_primes(target: int, m: int = 1) -> list[int]:
    """Distinct primes q < 2^31 with q = 1 mod m, largest first, whose product exceeds target.

    For m = p^j the field F_q holds every p^j-th root of unity.  There are
    about 2^31 / (phi(m) ln 2^31) such primes, together about 3e9 / phi(m)
    bits; a larger target raises CertificationError.  A later call tests
    only candidates below the primes already found for m.
    """
    step = m if m % 2 == 0 else 2 * m
    supply = _PRIME_SUPPLY.setdefault(m, [[], (_WORD - 2) // step * step + 1])
    primes = supply[0]
    count, prod = 0, 1
    while prod <= target:
        if count == len(primes):
            cand = supply[1]
            if cand < 3:
                raise CertificationError(
                    f"too few primes below 2^31 congruent to 1 mod {m} for a {target.bit_length()}-bit bound"
                )
            supply[1] = cand - step
            if not is_probable_prime(cand):
                continue
            primes.append(cand)
        prod *= primes[count]
        count += 1
    return primes[:count]


def _crt_signed(residues, primes: list[int]):
    """The integer x with |x| < prod(primes)/2 and x = residues[i] mod primes[i].

    Elementwise when each residues[i] is an object array of ints (Python
    ints, so nothing wraps); an int for int residues.
    """
    value, modulus = 0, 1
    for r, q in zip(residues, primes):
        value = value + modulus * ((r - value) * pow(modulus, -1, q) % q)
        modulus *= q
    return (value + modulus // 2) % modulus - modulus // 2


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
            # the reduction is written in place: each fresh temporary this size costs page faults
            rest = piv[:, None, None] * m[:, c + 1 :, c + 1 :]
            rest -= m[:, c + 1 :, c, None] * m[:, c, None, c + 1 :]
            np.remainder(rest, qm, out=m[:, c + 1 :, c + 1 :])
        if c > 0:
            den = den * run % q
        run = run * piv % q
    return np.where(alive, sign * run % q, 0), den


def _divide_mod(num: np.ndarray, den: np.ndarray, moduli) -> np.ndarray:
    # num / den for (rows, b) int64 arrays, row i mod the prime moduli[i], den units: Montgomery's
    # batch inversion by prefix products, one pow per row
    inverses = np.empty_like(den)
    for i, q in enumerate(np.reshape(moduli, -1).tolist()):
        row = den[i].tolist()
        prefix = list(itertools.accumulate(row, lambda a, b: a * b % q, initial=1))
        inv = pow(prefix[-1], -1, q)
        for k in range(len(row) - 1, -1, -1):  # inv = 1 / (row[0] ... row[k]) on entry
            prefix[k], inv = prefix[k] * inv % q, inv * row[k] % q
        inverses[i] = prefix[:-1]
    return num * inverses % np.reshape(moduli, (-1, 1))


def _interpolate_mod(values: np.ndarray, moduli) -> np.ndarray:
    """Row i: the coefficients mod q_i of the polynomial of degree <= D
    taking the values values[i, t] at t = 0..D; moduli is one prime q for
    every row or the primes q_i row by row, each above D.

    Newton's divided differences on the nodes 0..D, then the Newton form
    expanded to the monomial basis; vectorized over the rows.
    """
    points = values.shape[1]
    qcol = np.reshape(moduli, (-1, 1))
    nodes = np.tile(np.arange(1, points, dtype=np.int64), (len(qcol), 1))
    inverses = _divide_mod(np.ones_like(nodes), nodes, qcol)  # of the node differences 1..D
    newton = values.copy()
    for k in range(1, points):
        # node i minus node i - k is k
        newton[:, k:] = (newton[:, k:] - newton[:, k - 1 : -1]) % qcol * inverses[:, k - 1 : k] % qcol
    mono = np.zeros_like(newton)
    mono[:, :1] = newton[:, -1:]
    for k in range(points - 2, -1, -1):
        # mono <- mono * (x - k) + newton_k
        mono[:, 1:] = (mono[:, :-1] - k * mono[:, 1:]) % qcol
        mono[:, :1] = (newton[:, k : k + 1] - k * mono[:, :1]) % qcol
    return mono


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


def _matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    # a @ b mod q for residues below q < 2^31: b split at bit 16, sums of 2^15 terms stay in int64
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(0, a.shape[1], 1 << 15):
        x, y = a[:, i : i + (1 << 15)], b[i : i + (1 << 15)]
        out = (out + (x @ (y >> 16)) % q * 65536 + x @ (y & 65535)) % q
    return out


def _prod_mod(x: np.ndarray, q: int) -> np.ndarray:
    # the product mod q along axis 0, by halving
    while len(x) > 1:
        if len(x) % 2:
            x = np.concatenate([x, np.ones_like(x[:1])])
        x = x[0::2] * x[1::2] % q
    return x[0]


def _row_bounds(k: int, terms) -> tuple[int, int]:
    # B = prod_r sum |coeff| and D = sum_r max d, over the terms of row r with coeff != 0
    row_norm, row_degree = [0] * k, [0] * k
    for r, _, _, d, coeff in terms:
        if coeff:
            row_norm[r] += abs(coeff)
            row_degree[r] = max(row_degree[r], d)
    return math.prod(row_norm), sum(row_degree)


def _at_primitive_roots(primes: list[int], p: int, j: int, k: int, terms, points: int):
    """For each prime q, det M(w, t) mod q at every primitive p^j-th root of unity w in F_q.

    M[r][c] is the sum of coeff * zeta^exp * u^d over the terms
    (r, c, exp, d, coeff).  F_q holds the phi(p^j) primitive roots as
    powers[e] for the exponents e in units (those prime to p), with powers
    the table of one g of exact order p^j.  M is evaluated at every root and
    every t < points by Horner's rule, and `_det_mod_batch` eliminates the
    (root, point) batch in chunks of about `_BATCH_ENTRIES` entries.  Yields
    (num, den, powers, units): det M(powers[units[i]], t) = num[i, t] / den[i, t].
    """
    order = p**j
    units = np.arange(order, dtype=np.int64)
    units = units[np.gcd(units, order) == 1]
    # zeta^exp depends on exp mod p^j only; reduce before the int64 conversion
    rows = [(t[0], t[1], t[2] % order, t[3]) for t in terms]
    r, c, e, d = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    coeffs = _int_array([t[4] for t in terms])
    where = e[:, None] * units % order
    shape, size = (d.max(initial=0) + 1, k, k, len(units)), len(units) * points
    chunk = max(1, _BATCH_ENTRIES // max(1, k * k))  # k = 0: every determinant is 1
    for q in primes:
        powers = _power_table(_root_of_unity(q, p, j), order, q)
        values = np.zeros(shape, dtype=np.int64)
        np.add.at(values, (d, r, c), (coeffs % q).astype(np.int64)[:, None] * powers[where] % q)
        values = np.mod(values, q, out=values).transpose(3, 0, 1, 2)
        num, den = np.empty((2, size), dtype=np.int64)
        for start in range(0, size, chunk):
            part = slice(start, min(start + chunk, size))
            root, t = np.divmod(np.arange(part.start, part.stop), points)
            batch = values[root, -1]
            for i in range(shape[0] - 2, -1, -1):
                batch = (batch * t[:, None, None] + values[root, i]) % q
            num[part], den[part] = _det_mod_batch(batch, np.full(len(t), q))
        yield num.reshape(-1, points), den.reshape(-1, points), powers, units


def det_norm_cyclotomic(k: int, terms, p: int, j: int) -> list[int]:
    """The coefficients of N(u) = prod_w det M(w, u), w over the primitive p^j-th roots of unity.

    M is given by terms (r, c, exp, d, coeff) as in `det_cyclotomic_poly`;
    N, its norm from Q(zeta_{p^j})(u) to Q(u), is an integer polynomial of
    degree at most phi D (`_row_bounds`); j = 0 gives the integer
    determinant and u-free terms the norm of an integer as [N].  For each
    prime q = 1 mod p^j the determinants at t = 0..phi D are multiplied
    over the roots, and `_interpolate_mod` gives N mod q.

    Bound.  Under a complex embedding an entry of M has coefficient 1-norm
    (sum of the absolute values of its u-coefficients) at most the sum of
    |coeff| over its terms.  The 1-norm is submultiplicative, so each
    conjugate det M, a sum over permutations of products of one entry per
    row, has 1-norm at most B = prod_r sum |coeff| over row r, and N, so
    each of its coefficients, at most B^phi: a modulus above 2 B^phi lifts.
    """
    phi = euler_phi_prime_power(p, j)
    bound, degree = _row_bounds(k, terms)
    points = phi * degree + 1
    primes = _modular_primes(max(2 * bound**phi, 1), p**j)  # a zero row still takes one prime
    products = [
        (_prod_mod(num, q), _prod_mod(den, q))
        for q, (num, den, _, _) in zip(primes, _at_primitive_roots(primes, p, j, k, terms, points))
    ]
    num, den = np.array(products, dtype=np.int64).transpose(1, 0, 2)
    mono = _interpolate_mod(_divide_mod(num, den, primes), primes)
    return _crt_signed(mono.astype(object), primes).tolist()


def det_cyclotomic_poly(k: int, terms, p: int, j: int) -> list[list[int]]:
    """det M for a k x k matrix M over Z[zeta][u], zeta a primitive p^j-th root of unity.

    M[r][c] is the sum of coeff * zeta^exp * u^d over the terms
    (r, c, exp, d, coeff), all integers, d >= 0.  Returns, for each
    d = 0..D, the coordinates of the u^d coefficient of det M in the power
    basis 1, zeta, ..., zeta^(phi - 1), phi = phi(p^j); D is the sum over
    rows of the largest d with a nonzero coeff.  j = 0 is the integer case.

    For each prime q = 1 mod p^j below 2^31, Z[zeta]/q is F_q^phi through
    the primitive roots w of unity in F_q.  From the determinants at w and
    t = 0..D (`_at_primitive_roots`), `_interpolate_mod` gives each u^d
    coefficient x at every w, and Lagrange interpolation on the roots of
    Phi = Phi_{p^j} then gives its coordinates x_l = sum_w x(w) V[l, w]:
    with s = p^(j-1), Phi(X) / (X - w) = sum_l b_l(w) X^l where
    b_l(w) = sum_{t : t s > l} w^(t s - l - 1), 1 / Phi'(w) = w (w^s - 1) / p^j,
    and the sum telescopes to
        V[l, w] = b_l(w) / Phi'(w) = w^(-l) (1 - w^(s (floor(l / s) + 1))) / p^j.
    For j = 0 the one root is 1 and the coordinate is the value.

    Bound.  Under each complex embedding sigma the u^d coefficient is a sum
    over permutations of products of one term per row, so
    |sigma(x)| <= B = prod_r sum |coeff| over row r.  The b_l(zeta) /
    Phi'(zeta) are the trace-dual basis of the power basis (Euler), so
    x_l = Tr(x V[l, zeta]) and, as |sigma(V[l, zeta])| <= 2 / p^j,
    |x_l| <= phi * 2 / p^j * B = 2 (p - 1) B / p <= (p - 1) B.  The residues
    are lifted by `_crt_signed` once the modulus exceeds 2 (p - 1) B + 1.
    """
    phi = euler_phi_prime_power(p, j)
    bound, degree = _row_bounds(k, terms)
    points, order = degree + 1, p**j
    primes = _modular_primes(2 * (p - 1) * bound + 1, order)
    coordinates = []
    at_roots = _at_primitive_roots(primes, p, j, k, terms, points)
    for q, (num, den, powers, units) in zip(primes, at_roots):
        dets = _divide_mod(num.reshape(1, -1), den.reshape(1, -1), q).reshape(num.shape)
        at_roots = _interpolate_mod(dets, q)
        if j:  # V[l, w] mod q
            s, l = order // p, np.arange(phi)[:, None]
            lagrange = powers[-l * units % order] * (1 - powers[(l // s + 1) * s * units % order]) % q
            lagrange = lagrange * pow(order, -1, q) % q
        else:
            lagrange = np.ones((1, 1), dtype=np.int64)
        coordinates.append(_matmul_mod(at_roots.T, lagrange.T, q))
    return _crt_signed(np.array(coordinates, dtype=object), primes).tolist()


def det_int(rows: list[list[int]]) -> int:
    """det of an integer matrix: Bareiss elimination, or above `_BAREISS_MAX_DIM`
    rows the matrix as u-free terms to `det_norm_cyclotomic` at j = 0."""
    n = len(rows)
    if n <= _BAREISS_MAX_DIM:
        return det_bareiss_int(rows)
    terms = [(r, c, 0, 0, x) for r, row in enumerate(rows) for c, x in enumerate(row) if x]
    return det_norm_cyclotomic(n, terms, 2, 0)[0]


def det_groupring_poly(k: int, terms, m: int) -> UniPoly:
    """Determinant of a k x k matrix M over Q[Z/mZ][u], m = p^n.

    M[r][c] is the sum of coeff * [s] * u^d over the terms (r, c, s, d,
    coeff): s a group element, coeff rational.  One determinant per Galois
    orbit of characters, on its representative psi_{p^(n-j)}, which sends
    [s] to zeta_{p^j}^s: each row is scaled by the lcm of its denominators
    for `det_cyclotomic_poly`, and `from_character_polys` reassembles the
    n + 1 coordinate rows, divided by the scales, by traces.  The other
    characters' determinants are their Galois conjugates only for rational
    coefficients (sigma_u would move cyclotomic ones).
    """
    if not all(isinstance(t[4], (int, Fraction)) for t in terms):
        raise ValueError("group-ring determinants need rational group-ring coefficients")
    p, n = factor_prime_power(m)
    scale = [1] * k
    for r, _, _, _, coeff in terms:
        scale[r] = math.lcm(scale[r], Fraction(coeff).denominator)
    den = math.prod(scale)
    scaled = [(r, c, s, d, int(a * scale[r])) for r, c, s, d, a in terms]
    per_orbit = [det_cyclotomic_poly(k, scaled, p, j) for j in range(n + 1)]
    return from_character_polys(p, n, [[[Fraction(a, den) for a in x] for x in det] for det in per_orbit])


def norm_groupring_poly(terms, m: int, subgroup_order: int) -> UniPoly:
    """N_{G/H}(x), the determinant of multiplication by x on Q[G][u] over Q[H][u], G = Z/mZ, m = p^n.

    x = sum coeff * [s] * u^d over the terms (s, d, coeff), coeff rational;
    H, of order p^h and index k, is Z/p^h Z through t -> t k, and the norm
    at chi_b of H is the product of psi_a(x) over a = b mod p^h.  With c the
    lcm of the denominators, each prime q = 1 mod p^n takes c x at t = 0..kD,
    all psi_a by one table of g^(a s) (g of order p^n in F_q), the coset
    products, the inverse transform over H and the interpolation in u.

    Bound.  Under each psi_a, c x has coefficient 1-norm at most
    B = sum |c coeff|, so each coset product at most B^k; a coordinate of
    N(c x) = c^k N(x), in Z[H][u], is an average of p^h of them times roots
    of unity, so at most B^k, and a modulus above 2 B^k lifts.
    """
    if not all(isinstance(t[2], (int, Fraction)) for t in terms):
        raise ValueError("group-ring norms need rational group-ring coefficients")
    p, n = factor_prime_power(m)
    ph = p ** subgroup_exponent(m, subgroup_order)
    k = m // ph
    c = math.lcm(*(Fraction(coeff).denominator for _, _, coeff in terms))
    degree = max((d for _, d, _ in terms), default=0)
    coeffs = [[0] * (degree + 1) for _ in range(m)]
    for s, d, coeff in terms:
        coeffs[s % m][d] += int(coeff * c)
    primes = _modular_primes(2 * sum(abs(v) for row in coeffs for v in row) ** k + 1, m)
    coeffs, t = _int_array(coeffs), np.arange(k * degree + 1)
    forward = np.outer(np.arange(m), np.arange(m)) % m  # psi_a([s]) = g^(a s)
    back = -k * np.outer(np.arange(ph), np.arange(ph)) % m  # chi_b([-t]) = g^(-k b t) on H
    residues = []
    for q in primes:
        powers = _power_table(_root_of_unity(q, p, n), m, q)
        values, at_q = np.zeros((m, len(t)), dtype=np.int64), (coeffs % q).astype(np.int64)
        for d in range(degree, -1, -1):  # x_s(t) by Horner's rule
            values = (values * t + at_q[:, d, None]) % q
        # psi_a(c x)(t) for a = i p^h + b, multiplied over i, then back over H
        values = _prod_mod(_matmul_mod(powers[forward], values, q).reshape(k, ph, -1), q)
        values = _matmul_mod(powers[back], values, q) * pow(ph, -1, q) % q
        residues.append(_interpolate_mod(values, q))
    coords = _crt_signed(np.array(residues, dtype=object), primes).T.tolist()
    return UniPoly([GroupRingElem(ph, [Fraction(v, c**k) for v in row]) for row in coords])
