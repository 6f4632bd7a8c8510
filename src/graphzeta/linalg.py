"""Exact determinants and norms over the coefficient rings used in this package.

Integer matrices of at most `_BAREISS_MAX_DIM` rows, and every polynomial
determinant below one size switch (`_kronecker_wins`), are eliminated exactly
over Z (Bareiss; for polynomials, at one integer point by Kronecker
substitution).  Above it, a u-free matrix or one of the Bass form
S + A u + B u^2, S diagonal, is multimodular: primes q < 2^31 searched down
from 2^31, one characteristic polynomial mod q per prime (`_charpoly_mod`), one
signed CRT; any other matrix takes the Kronecker route, exact at any size.
The group-ring norm is a Graeffe chain over Z on coefficients packed at
u = 2^b (`poly.pack`), with no primes.  Only the multimodular pass imports
numpy, inside its functions, so no other route loads it.

Routes:
  - integer matrices (`det_int`): Bareiss elimination; above
    `_BAREISS_MAX_DIM` rows, the u-free j = 0 call of `det_cyclotomic_poly`;
  - lists of matrices over Z[zeta_{p^j}][u] (`det_cyclotomic_poly`): the
    power-basis coordinates of each determinant (h, z, group-ring
    determinants; at j = 0 the integer polynomial determinant, one
    coordinate per u-degree).
    A problem repeated in a list is evaluated once, and each distinct
    problem takes its own route.  Below the size switch (every base-size h,
    z and group-ring problem of the fixtures and the bench data) the
    determinant is one Bareiss elimination of M(x, u) at x = t^(D+1),
    u = t, t = 2^b, read back as balanced base-2^b digits, then folded mod
    x^(p^j) - 1 and reduced mod Phi_{p^j} (`_det_kronecker`).  A problem
    above it with D = 0 or of the Bass form (cover-size h, z and group-ring
    matrices) takes the multimodular pass (`_det_multimodular`) at the
    primitive roots of unity mod q: per prime one table of the block
    companion matrix W, det M = det S det(I - u W), and one batched
    characteristic polynomial, then one Lagrange step and one CRT; any
    other problem takes `_det_kronecker`;
  - matrices over Q[Z/p^n Z] (`det_groupring_poly`): one orbit
    representative per j, reassembled by `from_character_polys`;
  - norms from Q[Z/p^n Z][u] to Q[H][u] (`norm_groupring_poly`): n - h
    Graeffe steps on the element packed at u = 2^b.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cyclo import _graeffe_chain, _ord_int, euler_phi_prime_power
from .errors import CertificationError
from .groupring import GroupRingElem, factor_prime_power, from_character_polys, subgroup_exponent
from .poly import UniPoly, digit_width, pack, unpack

__all__ = [
    "det_bareiss_int",
    "det_cyclotomic_poly",
    "det_groupring_poly",
    "det_int",
    "is_probable_prime",
    "norm_groupring_poly",
]

_BAREISS_MAX_DIM = 28
_KRONECKER_SWITCH = 1 << 21  # `_kronecker_wins`


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases 2, 7 and 61 is exact below this bound (Jaeschke
# 1993), which covers every modulus below 2^31.
_THREE_BASE_BOUND = 4_759_123_141


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, exact for n < psi_12 = 318665857834031151167461 (> 2^64).

    The first twelve primes as bases are exact below psi_12, the least strong
    pseudoprime to all of them (Sorenson and Webster 2017); psi_12 itself
    passes, so `TowerDatum` takes only primes below 2^64.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    return _strong_probable_prime(n, (2, 7, 61) if n < _THREE_BASE_BOUND else _SMALL_PRIMES)


def _strong_probable_prime(n: int, bases) -> bool:
    # Miller-Rabin for odd n > 37 against each base (a base that n divides says nothing).
    s = _ord_int(n - 1, 2)
    d = (n - 1) >> s
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


def _modular_primes(target: int, m: int = 1, avoid: int = 1) -> list[int]:
    """Distinct primes q < 2^31 with q = 1 mod m that do not divide avoid, largest first, whose
    product exceeds target.

    For m = p^j the field F_q holds every p^j-th root of unity.  There are
    about 2^31 / (phi(m) ln 2^31) such primes, together about 3e9 / phi(m)
    bits; a larger target raises CertificationError.
    """
    step = m if m % 2 == 0 else 2 * m
    candidates = iter(range((_WORD - 2) // step * step + 1, 2, -step))
    primes, prod = [], 1
    while prod <= target:
        q = next(candidates, None)
        if q is None:
            raise CertificationError(
                f"too few primes below 2^31 congruent to 1 mod {m} for a {target.bit_length()}-bit bound"
            )
        if avoid % q and is_probable_prime(q):
            primes.append(q)
            prod *= q
    return primes


def _crt_signed(residues, primes: list[int]) -> np.ndarray:
    """The integers x with |x| < M/2 and x = residues[s] mod primes[s], elementwise, M the product
    of the primes: int64 for one prime, Python ints past it."""
    value, m = residues[0], primes[0]
    for r, q in zip(residues[1:], primes[1:]):
        value = value.astype(object) + m * ((r - value) * pow(m, -1, q) % q)  # exact past int64
        m *= q
    return (value + m // 2) % m - m // 2


def _charpoly_mod(batch: np.ndarray, q: int) -> np.ndarray:
    """The characteristic polynomials det(x I - H) mod the prime q < 2^31 of a (b, n, n) integer
    batch: row i the n + 1 coefficients of matrix i, constant first.

    A Hessenberg reduction by similarities (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.4): at column c every element takes its own first nonzero entry below the
    diagonal as pivot (a row and column swap where needed), each row i > c + 1 gets row c + 1
    times -h_ic / pivot and column c + 1 gets column i times h_ic / pivot.  Then Cohen's recurrence
    on the leading blocks (1-based), p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ...
    h_(m,m-1) p_(i-1), whose sum starts after the last zero subdiagonal entry of the batch.
    """
    import numpy as np
    h = batch % q
    b, n, _ = h.shape
    for c in range(n - 2):
        pivots = h[:, c + 1, c].tolist()
        if not all(pivots):
            shift = (h[:, c + 1 :, c] != 0).argmax(axis=1)  # to the first nonzero; 0 if there is none
            rows = shift.nonzero()[0]
            if len(rows):
                r = c + 1 + shift[rows]
                h[rows, r], h[rows, c + 1] = h[rows, c + 1], h[rows, r]
                h[rows, :, r], h[rows, :, c + 1] = h[rows, :, c + 1], h[rows, :, r]
                pivots = h[:, c + 1, c].tolist()
        inverse = np.array([pow(x, -1, q) if x else 0 for x in pivots], dtype=np.int64)
        f = h[:, c + 2 :, c] * inverse[:, None] % q
        if f.any():  # rows c + 1 on are zero left of column c
            h[:, c + 2 :, c:] += (q - f)[:, :, None] * h[:, c + 1, None, c:]
            h[:, c + 2 :, c:] %= q
            h[:, :, c + 1] += _matmul_mod(h[:, :, c + 2 :], f[:, :, None], q)[:, :, 0]
            h[:, :, c + 1] %= q
    poly = np.zeros((b, n + 1, n + 1), dtype=np.int64)  # row m: p_m
    poly[:, 0, 0] = 1
    run, last, start = np.zeros((b, n), dtype=np.int64), np.zeros(b, dtype=np.int64), 0
    for m in range(1, n + 1):  # 0-based: p_m = (x - h_(m-1,m-1)) p_(m-1) - sum_(i<m-1) a_i p_i,
        if m > 1:  # a_i = h_(i,m-1) run_i, run_i = h_(i+1,i) ... h_(m-1,m-2)
            sub = h[:, m - 1, m - 2]
            if not sub.all():
                last[sub == 0] = m - 1
                start = last.min()
            run[:, m - 2] = 1
            run[:, start : m - 1] *= sub[:, None]
            run[:, start : m - 1] %= q
        poly[:, m, 1 : m + 1] = poly[:, m - 1, :m]
        poly[:, m, :m] += (q - h[:, m - 1, m - 1])[:, None] * poly[:, m - 1, :m]
        if start < m - 1:
            a = h[:, start : m - 1, m - 1] * run[:, start : m - 1] % q
            terms = _matmul_mod(poly[:, start : m - 1, :m].transpose(0, 2, 1), a[:, :, None], q)
            poly[:, m, :m] += q - terms[:, :, 0]
        poly[:, m, :m] %= q
    return poly[:, n]


def _root_powers(q: int, p: int, j: int) -> np.ndarray:
    """g^0 .. g^(p^j - 1) mod q for an element g of exact order p^j in F_q^*; needs q = 1 mod p^j."""
    import numpy as np
    order = p**j
    for x in range(2, q):
        g = pow(x, (q - 1) // order, q)
        if order == 1 or pow(g, order // p, q) != 1:
            return np.array(list(itertools.accumulate(range(order - 1), lambda y, _: y * g % q, initial=1)))
    raise ValueError(f"no element of order {order} mod {q}")


def _matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    # a @ b mod q for residues below q < 2^31, stacked or not, over fewer than 2^15 terms (more would
    # mean operands of 8 GiB): b split at bit 16 keeps the sums in int64
    return (a @ (b >> 16) % q * 65536 + a @ (b & 65535)) % q


def _row_bounds(k: int, terms) -> tuple[int, int]:
    """(B, D) for the k x k matrix M of the terms (r, c, exp, d, coeff).

    D, the sum over rows of the largest d with a nonzero coeff, bounds deg det M.
    B = ceil(prod_r sqrt(sum_c a_rc^2)), a_rc the sum of |coeff| over the terms of entry (r, c),
    bounds every u-coefficient of every conjugate of det M: under an embedding sigma and at
    |u| = 1, |sigma M_rc(u)| <= a_rc, so by Hadamard |sigma det M(u)| <= B, and by Cauchy's
    estimate on |u| = 1 each u-coefficient of sigma det M is at most B.  B never exceeds the
    product of the row 1-norms.
    """
    entries, row_degree, squares = {}, [0] * k, [0] * k
    for r, c, _, d, coeff in terms:
        if coeff:
            entries[r, c] = entries.get((r, c), 0) + abs(coeff)
            row_degree[r] = max(row_degree[r], d)
    for (r, _), a in entries.items():
        squares[r] += a * a
    square = math.prod(squares)
    return (math.isqrt(square - 1) + 1 if square else 0), sum(row_degree)


def _det_kronecker(k: int, terms, j: int, p: int, bound: int, degree: int) -> list[int]:
    """The coordinates of det M, M the k x k matrix over Z[zeta][u], zeta = zeta_{p^j}, of the terms
    (r, c, exp, d, coeff) as in `det_cyclotomic_poly`, by Kronecker substitution: entry d phi + l,
    d = 0..D, l < phi = phi(p^j), is the coordinate of zeta^l in the u^d coefficient ((B, D) =
    (bound, degree) from `_row_bounds`).  At j = 0 these are the D + 1 u-coefficients of the
    integer determinant.

    With m = p^j and s = p^(j-1), each entry is the integer polynomial sum coeff x^(exp mod m) u^d
    in x and u, and M(x, u) is taken at x = t^(D+1), u = t, t = 2^b: b = 8 w, w the `digit_width`
    of B's bits, so 2^(b-1) > B, each entry packed from its coefficients (`pack`), and one
    `det_bareiss_int` gives det M(t).  Its balanced digits (`unpack`) are the coefficients of the
    monomials x^a u^e, a <= k (m - 1), e <= D, at position a (D + 1) + e; folding x^a -> x^(a mod m)
    (x^m = 1 at x = zeta) and reducing mod Phi_{p^j}, x^a = -sum_(i < p - 1) x^(a - (p - 1) s + i s)
    for a = phi..m - 1, gives the coordinates.

    Exactness: on the torus |x| = |u| = 1, every |M_rc(x, u)| <= a_rc, so |det M(x, u)| <= B by
    Hadamard, and by Cauchy's estimate in two variables every coefficient of det M(x, u) is at
    most B < 2^(b-1): they are the balanced digits of det M(t).  det M has u-degree at most D, so
    x = t^(D+1) sends distinct monomials to distinct powers of t.  The packing is sound too: B = 0
    only when a row has no nonzero term, and then det M = 0; otherwise every row's 2-norm is at
    least 1, so B >= each row's 2-norm >= every coefficient of its entries.  Folding and the
    reduction are exact integer steps after the unpacking.
    """
    m, phi, stride = p**j, euler_phi_prime_power(p, j), degree + 1
    if not bound:
        return [0] * (stride * phi)
    width = digit_width(bound.bit_length())
    entries: dict = {}
    for r, c, exp, d, coeff in terms:
        if coeff:
            entry, at = entries.setdefault((r, c), []), exp % m * stride + d
            entry += [0] * (at + 1 - len(entry))
            entry[at] += coeff
    rows = [[0] * k for _ in range(k)]
    for (r, c), entry in entries.items():
        rows[r][c] = pack(entry, width)
    block = m * stride  # x^a u^e and x^(a + m) u^e fold to one coordinate
    digits = unpack(det_bareiss_int(rows), width, (k * (m - 1) // m + 1) * block)  # whole blocks
    if not j:
        return digits
    folded = [sum(x) for x in zip(*(digits[i : i + block] for i in range(0, len(digits), block)))]
    # x^(phi + r), r < s, is -(x^r + x^(r + s) + ... + x^(r + (p - 2) s)): x^l, l < phi, takes minus
    # the coefficient of x^(phi + l mod s)
    top = folded[phi * stride :] * (p - 1)
    coords = [x - y for x, y in zip(folded, top)]
    return [x for e in range(stride) for x in coords[e::stride]]


def _kronecker_wins(k: int, j: int, p: int, bound: int, degree: int) -> bool:
    """The size switch of `det_cyclotomic_poly`: whether the problem (k, terms, j), (B, D) =
    (bound, degree) from `_row_bounds`, takes `_det_kronecker` rather than `_det_multimodular`.

    At j = 0, up to `_BAREISS_MAX_DIM` rows.  At j >= 1, while bits^2 <= `_KRONECKER_SWITCH` *
    phi (D + 1), bits = (k (p^j - 1) + 1) (D + 1) 8 w those of det M(t) in `_det_kronecker`:
    Bareiss on such integers pays CPython's quadratic long division.  The threshold is the
    crossover measured in CHANGES.md; it stays where it was measured.
    """
    if not j:
        return k <= _BAREISS_MAX_DIM
    bits = (k * (p**j - 1) + 1) * (degree + 1) * 8 * digit_width(bound.bit_length())
    return bits * bits <= _KRONECKER_SWITCH * euler_phi_prime_power(p, j) * (degree + 1)


def _pass_diagonal(k: int, terms, m: int, degree: int):
    """S = M(0) as [(c_r, e_r)], S = diag(c_r zeta^(e_r)), for a problem the multimodular pass
    takes, else None: D = 0 (then S = -I stands in), or the Bass form S + A u + B u^2, no
    nonzero term of u-degree above 2 and M(0) diagonal with one nonzero monomial per row."""
    if not degree:
        return [(-1, 0)] * k
    at_zero: dict = {}
    for r, c, e, d, coeff in terms:
        if coeff and d > 2:
            return None
        if not d:
            at_zero[r, c, e % m] = at_zero.get((r, c, e % m), 0) + coeff
    cells = sorted((r, c, e, a) for (r, c, e), a in at_zero.items() if a)
    if [x[:2] for x in cells] != [(r, r) for r in range(k)]:
        return None
    return [(a, e) for _, _, e, a in cells]


def _det_multimodular(k: int, terms, j: int, p: int, bound: int, degree: int) -> np.ndarray:
    """The coordinates of det M for the problem (k, terms, j) by the multimodular pass: an array of
    shape (D + 1, phi), row d the coordinates of the u^d coefficient ((B, D) = (bound, degree) from
    `_row_bounds`; the proof is in `det_cyclotomic_poly`).  The problem has D = 0 or the Bass form
    of `_pass_diagonal`.

    The primes q = 1 mod p^j have a product above 2 (p - 1) B + 1 and divide no c_r.  Per prime,
    powers of one g of order p^j give the primitive roots g^u, u a unit mod p^j, and one table holds
    W at each root: the block companion matrix [[-S^-1 A, -S^-1 B], [I, 0]] of n = 2k rows (n = k
    and W = -S^-1 A without u^2 terms), or W = M(0) at D = 0.  One `_charpoly_mod` call gives each
    root's coefficients c_i of det(x I - W): the u^d coefficient of det M is det S c_(n-d), and at
    D = 0, det M(0) = (-1)^k c_0.  The Lagrange step on the roots is one product per prime, and one
    signed CRT lifts the coordinates.
    """
    import numpy as np
    m, phi = p**j, euler_phi_prime_power(p, j)
    diagonal = _pass_diagonal(k, terms, m, degree)
    det_s, shift = math.prod(c for c, _ in diagonal), sum(e for _, e in diagonal)
    primes = _modular_primes(2 * (p - 1) * bound + 1, m, det_s)
    terms = [t for t in terms if t[4] and (t[3] or not degree)]  # W's terms: S leaves at D > 0
    lag, n = min(degree, 1), k * max(1, max((t[3] for t in terms), default=0))
    # r, column (d - 1) k + c of W (c at D = 0), exp - e_r mod p^j: reduced before they meet int64
    cells = [(r, (d - lag) * k + c, (e - diagonal[r][1]) % m) for r, c, e, d, _ in terms]
    cells = np.array(cells, dtype=np.int64).reshape(-1, 3).T
    try:  # int64 where every coefficient fits, else object (Python ints)
        coeffs = np.array([t[4] for t in terms], dtype=np.int64)
    except OverflowError:
        coeffs = np.array([t[4] for t in terms], dtype=object)
    units = np.array([u for u in range(m) if u % p or m == 1])  # the root g^u of row u
    power = cells[2] * units[:, None] % m  # per (root, term)
    where = (np.repeat(np.arange(phi), len(terms)), *np.tile(cells[:2], phi))  # (root, r, column)
    tail, first = np.arange(n - k), 0 if degree else n  # c_(n-d) of det(x I - W), d = 0..D, or c_0
    powers = [_root_powers(q, p, j) for q in primes]
    found = np.empty((len(primes), degree + 1, phi), dtype=np.int64)
    for i, (q, g) in enumerate(zip(primes, powers)):
        scale = np.array([pow(-c, -1, q) for c, _ in diagonal], dtype=np.int64)  # -1 / c_r
        w = np.zeros((phi, n, n), dtype=np.int64)
        values = np.remainder(coeffs, q).astype(np.int64, copy=False) * scale[cells[0]] % q * g[power] % q
        np.add.at(w, where, values.ravel())
        w[:, k + tail, tail] = 1
        at_roots = det_s % q * g[shift * units % m] % q  # det S at each root
        found[i] = (_charpoly_mod(w, q)[:, ::-1][:, first : first + degree + 1] * at_roots[:, None] % q).T
    if j:  # Lagrange interpolation on the roots: V[w, l] mod q = (w^-l - w^(s (l // s + 1) - l)) / p^j
        s, l = p ** (j - 1), np.arange(phi)
        e0, e1 = (e * units[:, None] % m for e in (-l, (l // s + 1) * s - l))
        found = np.array(
            [_matmul_mod(x, (g[e0] - g[e1]) * pow(m, -1, q) % q, q) for x, q, g in zip(found, primes, powers)]
        )
    return _crt_signed(found.reshape(len(primes), -1), primes).reshape(degree + 1, phi)


def det_cyclotomic_poly(problems, p: int) -> list[list[list[int]]]:
    """For each problem (k, terms, j), det M of the k x k matrix M over Z[zeta][u], zeta = zeta_{p^j}.

    M[r][c] is the sum of coeff * zeta^exp * u^d over the terms
    (r, c, exp, d, coeff), all integers, d >= 0.  Returns, for d = 0..D
    (`_row_bounds`), the coordinates of the u^d coefficient of det M in the
    power basis 1, zeta, ..., zeta^(phi - 1), phi = phi(p^j).

    Equal problems, the same object or a copy, are evaluated once, and a fresh
    copy of their result is returned at every position that repeats them.
    A problem at p^j = 2 is an integer problem, as zeta_2 = -1: each term
    becomes (r, c, 0, d, (-1)^exp coeff), at j = 0, before anything else.
    Each distinct problem takes its bound (B, D) once (`_row_bounds`).  Below
    the size switch (`_kronecker_wins`) it is one exact Bareiss elimination
    of M(x, u) at x = t^(D+1), u = t, t = 2^b, its digits folded mod
    x^(p^j) - 1 and reduced mod Phi_{p^j} (`_det_kronecker`).  Above it, a
    problem with D = 0, or of the Bass form M = S + A u + B u^2 (no term of
    u-degree above 2, S = M(0) diagonal with one nonzero monomial
    c_r zeta^(e_r) per row: `_pass_diagonal`), takes the multimodular pass
    (`_det_multimodular`); any other takes `_det_kronecker`, exact at any
    size.  The pass: Z[zeta]/q is F_q^phi through the primitive roots w of
    unity in F_q, and at each w, with X = S^-1 A and Y = S^-1 B,
        det(S + A u + B u^2) = det S det(I_2k - u W), W = [[-X, -Y], [I, 0]],
    for I_2k - u W = [[I + X u, Y u], [-u I, I]], whose Schur complement of
    the lower right I is I + X u + Y u^2 (Kotani and Sunada, "Zeta functions
    of finite graphs", 2000).  So the u^d coefficient of det M at w is
    det S c_(2k-d), the c_i those of det(x I - W), and at D = 0,
    det M(0) = (-1)^k c_0 of M(0)'s own.  S is invertible at w for every
    prime dividing no c_r, and the pass takes only those.  Lagrange
    interpolation on the roots of Phi = Phi_{p^j} gives the coordinates of
    each u^d coefficient x from its values, x_l = sum_w x(w) V[l, w]:
    with s = p^(j-1), Phi(X) / (X - w) = sum_l b_l(w) X^l, b_l(w) =
    sum_{t : t s > l} w^(t s - l - 1), and 1 / Phi'(w) = w (w^s - 1) / p^j,
        V[l, w] = b_l(w) / Phi'(w) = w^(-l) (1 - w^(s (floor(l / s) + 1))) / p^j.
    For j = 0 the one root is 1.  Bound: |sigma(x)| <= B for every embedding
    sigma; the b_l(zeta) / Phi'(zeta) are the trace-dual basis of the power
    basis (Euler), so x_l = Tr(x V[l, zeta]) and, as |sigma(V[l, zeta])| <=
    2 / p^j, |x_l| <= (p - 1) B: the primes' product exceeds 2 (p - 1) B + 1.
    The bound is on the integers recovered, the coordinates of det M, so it
    does not depend on how their residues mod q are found.
    """
    index: dict = {}
    position = [index.setdefault((k, tuple(terms), j), len(index)) for k, terms, j in problems]
    out = []
    for k, terms, j in index:
        if p**j == 2:  # zeta_2 = -1: an integer problem, routed by the j = 0 rule
            terms, j = [(r, c, 0, d, -a if e % 2 else a) for r, c, e, d, a in terms], 0
        bounds = _row_bounds(k, terms)
        if _kronecker_wins(k, j, p, *bounds) or _pass_diagonal(k, terms, p**j, bounds[1]) is None:
            coords, phi = _det_kronecker(k, terms, j, p, *bounds), euler_phi_prime_power(p, j)
            out.append([coords[x : x + phi] for x in range(0, len(coords), phi)])
        else:
            out.append(_det_multimodular(k, terms, j, p, *bounds).tolist())
    return [[row[:] for row in out[i]] for i in position]


def det_int(rows: list[list[int]]) -> int:
    """det of an integer matrix: Bareiss (the D = 0 case of `_det_kronecker`), or above
    `_BAREISS_MAX_DIM` rows the multimodular `det_cyclotomic_poly` at j = 0."""
    n = len(rows)
    if n <= _BAREISS_MAX_DIM:
        return det_bareiss_int(rows)
    terms = [(r, c, 0, 0, x) for r, row in enumerate(rows) for c, x in enumerate(row) if x]
    return det_cyclotomic_poly([(n, terms, 0)], 2)[0][0][0]


def det_groupring_poly(k: int, terms, m: int) -> UniPoly:
    """Determinant of a k x k matrix M over Q[Z/mZ][u], m = p^n.

    M[r][c] is the sum of coeff * [s] * u^d over the terms (r, c, s, d,
    coeff): s a group element, coeff rational.  One `det_cyclotomic_poly`
    call takes the n + 1 Galois-orbit representatives psi_{p^(n-j)},
    [s] -> zeta_{p^j}^s, each row scaled by the lcm of its denominators, and
    `from_character_polys` reassembles their coordinate rows by traces.  The
    other characters' determinants are the Galois conjugates only for
    rational coefficients (sigma_u would move cyclotomic ones).
    """
    if not all(isinstance(t[4], (int, Fraction)) for t in terms):
        raise ValueError("group-ring determinants need rational group-ring coefficients")
    p, n = factor_prime_power(m)
    scale = [1] * k
    for r, _, _, _, coeff in terms:
        scale[r] = math.lcm(scale[r], Fraction(coeff).denominator)
    den = math.prod(scale)
    scaled = [(r, c, s, d, int(a * scale[r])) for r, c, s, d, a in terms]
    per_orbit = det_cyclotomic_poly([(k, scaled, j) for j in range(n + 1)], p)
    return from_character_polys(p, n, [[[Fraction(a, den) for a in x] for x in det] for det in per_orbit])


def norm_groupring_poly(terms, m: int, subgroup_order: int) -> UniPoly:
    """N_{G/H}(x), the determinant of multiplication by x on Q[G][u] over Q[H][u], G = Z/mZ, m = p^n.

    x = sum coeff * [s] * u^d over the terms (s, d, coeff), coeff rational; H, of order p^h and
    index k, is Z/p^h Z through t -> t k.  With c the lcm of the denominators, c x is X(y) =
    sum_s X_s y^s, X_s = sum_d c coeff u^d, taken at u = 2^(8 w) (`pack`); n - h Graeffe steps
    give G_(n-h) mod y^(p^h) - 1 (`cyclo._graeffe_chain`), whose y^t coefficient, unpacked, is the
    coordinate of [t k] in N(c x) = c^k N(x).

    Proof.  At the character chi_b of H, chi_b([t k]) = zeta_{p^h}^(b t), the norm is the product
    of psi_a(x) = X(zeta_{p^n}^a) over a = b mod p^h.  The fibres of y -> y^k are cosets of the
    k-th roots of unity, so with y = zeta_{p^n}^b that product is G_(n-h)(y^k) =
    G_(n-h)(zeta_{p^h}^b), and an element of Q[H] is determined by its values at the chi_b.
    Bound: under each psi_a, c x has coefficient 1-norm at most B = sum |c coeff|, so each coset
    product at most B^k; a coordinate of N(c x) in Z[H][u] is an average of p^h of them times
    roots of unity, so each of its u-coefficients is at most B^k < 2^(8 w - 1) (`unpack`).
    """
    if not all(isinstance(t[2], (int, Fraction)) for t in terms):
        raise ValueError("group-ring norms need rational group-ring coefficients")
    p, n = factor_prime_power(m)
    h = subgroup_exponent(p, n, subgroup_order)
    k = p ** (n - h)
    c = math.lcm(*(Fraction(coeff).denominator for _, _, coeff in terms))
    degree = max((d for _, d, _ in terms), default=0)
    coeffs = [[0] * (degree + 1) for _ in range(m)]
    for s, d, coeff in terms:
        coeffs[s % m][d] += int(coeff * c)
    width = digit_width(k * sum(abs(v) for row in coeffs for v in row).bit_length())
    g = next(itertools.islice(_graeffe_chain([pack(row, width) for row in coeffs], p, n), n - h, None))
    coords = [unpack(x, width, k * degree + 1) for x in g]
    return UniPoly([GroupRingElem(p**h, [Fraction(v, c**k) for v in row]) for row in zip(*coords)])
