"""Exact determinants over the coefficient rings used in this package.

Apart from small integer matrices, every route is multimodular: primes
q < 2^31 from one generator, one batched elimination per chunk of matrices
mod q (`_det_mod_batch`, vectorized over numpy int64), one Newton
interpolation step mod q for polynomial entries and one signed CRT.

Routes:
  - integer matrices (`det_int`): fraction-free Bareiss elimination; above a
    size threshold, CRT over word-size primes certified by the Hadamard bound;
  - integer polynomial matrices (`det_poly_int`, cover-size): evaluation at
    the points 0..D in chunks of the (prime, point) batch, Newton
    interpolation mod each prime, CRT against the coefficient bound
    prod_r sum_c ||M[r][c]||_1;
  - polynomial matrices over Z[zeta_{p^j}] (`det_cyclotomic_poly`, for
    h(u, psi) and z(u, psi)): evaluation at every primitive p^j-th root of
    unity in F_q (q = 1 mod p^j) and at the points 0..D, Newton
    interpolation in u, Lagrange interpolation on the roots for the
    power-basis coordinates, CRT; j = 0 is the same call over Z;
  - norms of cyclotomic determinants (`det_norm_cyclotomic`): the same
    evaluation at the primitive roots, multiplying the determinants;
  - polynomial matrices over Q[Z/p^n Z] (`det_groupring_poly`): one
    `det_cyclotomic_poly` per Galois orbit of characters, on its
    representative with the denominators of each row cleared; the other
    characters' determinants are its conjugates, and `groupring` reassembles
    them through the idempotents (the group ring has zero divisors, so
    elimination is not available there).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclo import CycloNum, euler_phi_prime_power
from .errors import CertificationError
from .groupring import character_orbits, factor_prime_power, from_character_polys, galois_conjugate
from .poly import UniPoly

__all__ = [
    "det_bareiss_int",
    "det_cyclotomic_poly",
    "det_groupring_poly",
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


def _interpolate_mod(values: np.ndarray, moduli) -> np.ndarray:
    """Row i: the coefficients mod q_i of the polynomial of degree <= D
    taking the values values[i, t] at t = 0..D; moduli is one prime q for
    every row or the primes q_i row by row, each above D.

    Newton's divided differences on the nodes 0..D, then the Newton form
    expanded to the monomial basis; vectorized over the rows.
    """
    points = values.shape[1]
    qcol = np.reshape(moduli, (-1, 1))
    inverses = np.array(
        [[pow(k, -1, int(q)) for k in range(1, points)] for q in qcol[:, 0]], dtype=np.int64
    ).reshape(len(qcol), points - 1)
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


def det_poly_int(rows) -> UniPoly:
    """Determinant of a square matrix whose entries are integer polynomials (UniPoly or int).

    Multimodular evaluation and interpolation.  The determinant has degree
    at most D = sum over rows of the largest entry degree, and every
    coefficient is at most B = prod_r sum_c ||M[r][c]||_1 (sum of absolute
    coefficients) in absolute value: it is at most the permanent of the
    1-norm matrix.  For each prime q of `_modular_primes(2B)`, M is
    evaluated mod q at t = 0..D and the D + 1 determinants come from
    `_det_mod_batch`, whose per-element pivoting covers the points where
    M(t) is singular; `_interpolate_mod` (batched over the primes) gives the
    coefficients mod q, and `_crt_signed` lifts each one.  The (prime,
    point) batch is built and eliminated in chunks of about `_BATCH_ENTRIES`
    matrix entries.
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
    mono = _interpolate_mod(dets.reshape(len(primes), points), moduli)
    return UniPoly(_crt_signed(mono.astype(object), primes).tolist())


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


def _at_primitive_roots(primes: list[int], p: int, j: int, k: int, terms):
    """For each prime q, the matrix of the terms at every primitive p^j-th root of unity in F_q.

    M[r][c] is the sum of coeff * zeta^exp * u^d over the terms
    (r, c, exp, d, coeff).  F_q holds the phi(p^j) primitive roots as
    powers[e] for the exponents e in units (those prime to p), with powers
    the table of one g of exact order p^j.  Yields (values, powers, units)
    prime by prime, values[i, d] the k x k matrix of u^d coefficients mod q
    at the root powers[units[i]], for d up to the largest d of a term.
    """
    order = p**j
    units = np.arange(order, dtype=np.int64)
    units = units[np.gcd(units, order) == 1]
    r, c, e, d = np.array([t[:4] for t in terms], dtype=np.int64).reshape(-1, 4).T
    coeffs = _int_array([t[4] for t in terms])
    where = (e % order)[:, None] * units % order
    shape = (d.max(initial=0) + 1, k, k, len(units))
    for q in primes:
        powers = _power_table(_root_of_unity(q, p, j), order, q)
        values = np.zeros(shape, dtype=np.int64)
        np.add.at(values, (d, r, c), (coeffs % q).astype(np.int64)[:, None] * powers[where] % q)
        values %= q
        yield values.transpose(3, 0, 1, 2), powers, units


def det_norm_cyclotomic(k: int, terms, p: int, j: int) -> int:
    """N_{Q(zeta)/Q} det M(zeta) for zeta a primitive p^j-th root of unity.

    M is the k x k matrix with M[r][c] the sum of coeff * zeta^exp over the
    terms (r, c, exp, coeff), all integers.  The norm is the integer
    prod det M(zeta') over the phi(p^j) primitive p^j-th roots zeta'.  For
    each prime q = 1 mod p^j below 2^31, M is evaluated at all of them in
    F_q (`_at_primitive_roots`), the batch goes through one elimination,
    and the determinants are multiplied mod q (one inversion per prime).
    The residues are joined by CRT until the modulus exceeds twice the
    row-1-norm bound (prod_r sum |coeff| over row r)^phi(p^j), which bounds
    every conjugate's determinant and so the norm.
    """
    if k == 0:
        return 1
    row_norm = [0] * k
    for r, _, _, coeff in terms:
        row_norm[r] += abs(coeff)
    bound = math.prod(row_norm) ** euler_phi_prime_power(p, j)
    constant = [(r, c, e, 0, coeff) for r, c, e, coeff in terms]
    primes = _modular_primes(2 * bound, p**j)
    residues = []
    for q, (values, _, _) in zip(primes, _at_primitive_roots(primes, p, j, k, constant)):
        num, den = _det_mod_batch(values[:, 0], np.full(len(values), q))
        residues.append(_prod_mod(num, q) * pow(_prod_mod(den, q), -1, q) % q)
    return _crt_signed(residues, primes)


def det_cyclotomic_poly(k: int, terms, p: int, j: int) -> list[list[int]]:
    """det M for a k x k matrix M over Z[zeta][u], zeta a primitive p^j-th root of unity.

    M[r][c] is the sum of coeff * zeta^exp * u^d over the terms
    (r, c, exp, d, coeff), all integers, d >= 0.  Returns, for each
    d = 0..D, the coordinates of the u^d coefficient of det M in the power
    basis 1, zeta, ..., zeta^(phi - 1), phi = phi(p^j); D is the sum over
    rows of the largest d with a nonzero coeff.  j = 0 is the integer case.

    For each prime q = 1 mod p^j below 2^31, Z[zeta]/q is F_q^phi through
    the primitive roots w of unity in F_q.  M is evaluated at every w and
    every t = 0..D (`_at_primitive_roots`), one `_det_mod_batch` call takes
    the phi (D + 1) determinants, and `_interpolate_mod` gives each u^d
    coefficient x at every root.  Lagrange interpolation on the roots of
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
    if k == 0:
        return [[1] + [0] * (phi - 1)]
    row_norm, row_degree = [0] * k, [0] * k
    for r, _, _, d, coeff in terms:
        if coeff:
            row_norm[r] += abs(coeff)
            row_degree[r] = max(row_degree[r], d)
    points, order = sum(row_degree) + 1, p**j
    t = np.arange(points, dtype=np.int64)[:, None, None]
    primes = _modular_primes(2 * (p - 1) * math.prod(row_norm) + 1, order)
    coordinates = []
    for q, (values, powers, units) in zip(primes, _at_primitive_roots(primes, p, j, k, terms)):
        batch = values[:, -1, None]
        for d in range(values.shape[1] - 2, -1, -1):
            batch = (batch * t + values[:, d, None]) % q
        num, den = _det_mod_batch(batch.reshape(-1, k, k), np.full(phi * points, q))
        dets = [a * pow(b, -1, q) % q for a, b in zip(num.tolist(), den.tolist())]
        at_roots = _interpolate_mod(np.array(dets, dtype=np.int64).reshape(phi, points), q)
        if j:  # V[l, w] mod q
            s, l = order // p, np.arange(phi)[:, None]
            lagrange = powers[-l * units % order] * (1 - powers[(l // s + 1) * s * units % order]) % q
            lagrange = lagrange * pow(order, -1, q) % q
        else:
            lagrange = np.ones((1, 1), dtype=np.int64)
        coords = np.zeros((points, phi), dtype=np.int64)
        for i in range(0, phi, 1 << 15):
            # at_roots^T V^T mod q, V split at bit 16 so the int64 sums stay exact
            a, w = at_roots[i : i + (1 << 15)].T, lagrange[:, i : i + (1 << 15)].T
            coords = (coords + (a @ (w >> 16)) % q * 65536 + a @ (w & 65535)) % q
        coordinates.append(coords)
    return _crt_signed(np.array(coordinates, dtype=object), primes).tolist()


def det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n <= _BAREISS_MAX_DIM:
        return det_bareiss_int(rows)
    return _det_crt(rows)


def det_groupring_poly(rows, m: int) -> UniPoly:
    """Determinant of a square matrix over Q[Z/mZ][u], m = p^n.

    Entries are UniPoly whose coefficients are GroupRingElem of order m with
    rational coefficients.  One determinant per Galois orbit of the
    characters of Z/p^n Z, on its representative psi of order p^j: psi
    sends the coefficient sum_s c_s [s] to sum_s c_s zeta_{p^j}^(e s), each
    row is scaled by the lcm of its denominators, and `det_cyclotomic_poly`
    takes the integer matrix.  The other characters' determinants are
    sigma_u of the representative's, which needs the group-ring
    coefficients rational (sigma_u would move cyclotomic ones), and
    `from_character_polys` reassembles them.
    """
    p, n = factor_prime_power(m)
    entries = [
        (r, c, d, x)
        for r, row in enumerate(rows)
        for c, entry in enumerate(row)
        for d, x in enumerate(entry.coeffs)
    ]
    if any(isinstance(a, CycloNum) for *_, x in entries for a in x.coeffs):
        raise ValueError("group-ring determinants need rational group-ring coefficients")
    scale = [1] * len(rows)
    for r, _, _, x in entries:
        scale[r] = math.lcm(scale[r], *(Fraction(a).denominator for a in x.coeffs))
    den = math.prod(scale)
    reps, orbits = character_orbits(p, n)
    per_orbit = []
    for psi in reps:
        j = psi.order_exponent
        e = psi.exponent_at(j)
        terms = [
            (r, c, e * s, d, int(a * scale[r]))
            for r, c, d, x in entries
            for s, a in enumerate(x.coeffs)
            if a
        ]
        det = det_cyclotomic_poly(len(rows), terms, p, j)
        per_orbit.append(UniPoly([CycloNum(p, j, tuple(Fraction(a, den) for a in x)) for x in det]))
    return from_character_polys(p, n, [galois_conjugate(per_orbit[j], u) for j, u in orbits])
