"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^j}).

An element is a row of phi(p^j) coordinates in the power basis 1, zeta,
..., zeta^(phi-1) of zeta = zeta_{p^j}, modulo the cyclotomic polynomial
Phi_{p^j}(X) = sum_{t<p} X^{t*p^(j-1)}; at level j = 0 the row has one
entry (the field is then just Q).  The kernels of `linalg` return integer
rows, and the character table conjugates and sums them.

`cyclotomic_norms` takes the norms of G(zeta_{p^j}) for an integer
polynomial G at every j <= n at once, by Graeffe root-powering over Z:
the orbit norms of the tower sweep use it, and `coordinate_norm`, the
norm to Q(u) of coordinate rows over Q(zeta_{p^j})(u), packed at u = 2^b.

The Galois action sigma_u: zeta -> zeta^u is one gather per unit from a
table of coordinate differences taken once per row (the reduction mod
Phi_{p^j}): `galois_conjugates` applies it to integer rows for many u.
The p-adic valuation of a rational number is `ordp_fraction`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, sub

from .poly import digit_width, pack, unpack

__all__ = [
    "Valuation",
    "coordinate_norm",
    "cyclotomic_norms",
    "euler_phi_prime_power",
    "galois_conjugates",
    "ordp_fraction",
]


def euler_phi_prime_power(p: int, j: int) -> int:
    """phi(p^j); equals 1 when j = 0."""
    if j == 0:
        return 1
    return p ** (j - 1) * (p - 1)


def galois_conjugates(p: int, j: int, rows, units):
    """sigma_u: zeta -> zeta^u of integer coordinate rows (length phi = phi(p^j)), for each u in
    units: an iterator of one list of conjugate rows per unit, each made when read.

    With L a row padded with zeros to length p^j, v = u^-1 and s = p^(j-1), coordinate t of
    sigma_u(x) is L[t v] - L[(phi + t mod s) v] (indices mod p^j), by zeta^(phi + r) =
    -sum_{k < p-1} zeta^(k s + r), r < s; the second index is t v + s m, m = (p - 1 - t // s) v
    mod p in 1..p-1.  So each row's differences L[i] - L[i + s m] are taken once, those of m from
    (m - 1) p^j of its table on, and a conjugate is one `itemgetter` gather (at p = 2: L, then
    -L).  ValueError for a u divisible by p, when j >= 1.
    """
    phi, order = euler_phi_prime_power(p, j), p**j
    units = [int(u) for u in units]
    if j and any(u % p == 0 for u in units):
        raise ValueError("galois exponent must be a unit")
    if phi == 1:  # Q, or Q(zeta_2) = Q: the identity
        return ([list(row) for row in rows] for _ in units)
    s = order // p
    lifts = [list(row) + [0] * s for row in rows]
    tables = [[x for m in range(s, order, s) for x in map(sub, lift, lift[m:] + lift[:m])] for lift in lifts]
    begins = {r: [((p - 1 - t // s) * r % p - 1) * order for t in range(phi)] for r in range(1, p)}

    def conjugate(u: int) -> list[list[int]]:
        v = pow(u, -1, order)
        index = [t * v % order for t in range(phi)]
        gather = itemgetter(*(map(add, begins[v % p], index) if p > 2 else index))
        return [list(gather(table)) for table in tables]

    return map(conjugate, units)


# -- norms by Graeffe root-powering --------------------------------------


def _graeffe_chain(coeffs, p: int, n: int):
    """G_0, ..., G_n, each made when asked: G_0 = G mod y^(p^n) - 1 for G = sum coeffs[m] x^m, and
    G_(i+1)(x^p) = prod over w^p = 1 of G_i(w x) (`_graeffe_step`), reduced mod y^(p^(n-i-1)) - 1.

    The coefficients are any integers, u-packed polynomials among them.  By induction,
    G_i(x^(p^i)) = prod over w^(p^i) = 1 of G(w x) wherever x^(p^n) = 1.  The reductions keep
    this: G_i is only evaluated where y^(p^(n-i)) - 1 vanishes, and if G_i = G'_i mod x^M - 1
    with p | M, then G_i(w x) = G'_i(w x) mod x^M - 1, as w^M = 1.
    """
    period = p**n
    g = [sum(coeffs[m::period]) for m in range(min(len(coeffs), period))]
    yield g
    while period > 1:
        g, period = _graeffe_step(g, p), period // p
        g = [sum(g[m::period]) for m in range(min(len(g), period))]
        yield g


def cyclotomic_norms(coeffs, p: int, n: int) -> list[int]:
    """[N_0(G), ..., N_n(G)], N_j(G) = N_{Q(zeta_{p^j})/Q} G(zeta_{p^j}), G = sum coeffs[m] x^m.

    G has integer coefficients; N_0(G) = G(1), and for j >= 1, N_j(G) is the norm from Q(zeta_p)
    of G_(j-1)(zeta_p) (`_graeffe_chain`), taken by `_norm_from_slots`.

    Proof.  For j >= 2 the conjugates of zeta_{p^j} over Q(zeta_{p^(j-1)}) are zeta_{p^j} w,
    w^p = 1, so the relative norm of G_i(zeta_{p^j}) is prod_w G_i(w zeta_{p^j}) =
    G_(i+1)(zeta_{p^(j-1)}), and by transitivity of norms N_j(G_i) = N_(j-1)(G_(i+1)); down to
    j = 1 this is the formula.
    """
    norms = [sum(coeffs)]
    for g in itertools.islice(_graeffe_chain(coeffs, p, n), n):  # G_0 .. G_(n-1)
        norms.append(_norm_from_slots([sum(g[a::p]) for a in range(p)], p))
    return norms


def coordinate_norm(rows, p: int, j: int) -> list[int]:
    """The phi D + 1 coefficients of N(u), the norm from Q(zeta)(u) to Q(u) of x = sum_d sum_e
    rows[d][e] zeta^e u^d, zeta = zeta_{p^j}, phi = phi(p^j), for D + 1 integer coordinate rows
    (as `linalg.det_cyclotomic_poly` returns them; no rows is x = 0).

    At u = X = 2^(8 w), x is G(zeta) for G(y) = sum_e (sum_d rows[d][e] X^d) y^e (`pack`), and
    the norm commutes with evaluating u at an integer: N(X) = N_j(G), the last norm of
    `cyclotomic_norms`, taken alone.
    Exactness: with S = sum |rows[d][e]|, each conjugate of x is a polynomial in u of coefficient
    1-norm at most S, so every coefficient of N, their product, is at most S^phi < 2^(8 w - 1)
    in absolute value, and is a balanced digit of N(X) (`unpack`).
    """
    if not j:  # Q(zeta) = Q: x is its own norm
        return [row[0] for row in rows] or [0]
    phi = euler_phi_prime_power(p, j)
    width = digit_width(phi * sum(abs(a) for row in rows for a in row).bit_length())
    chain = _graeffe_chain([pack(column, width) for column in zip(*rows)], p, j)
    g = next(itertools.islice(chain, j - 1, None))  # G_(j-1), at most p coefficients
    return unpack(_norm_from_slots(g, p), width, phi * max(len(rows) - 1, 0) + 1)


def _graeffe_step(coeffs: list[int], p: int) -> list[int]:
    """H with H(x^p) = prod over w^p = 1 of G(w x), G = sum coeffs[m] x^m; len(H) = len(G).

    With E_r the terms of G of degree r mod p, G(w x) = sum_r w^r E_r(x): the product is G times
    the norm from Q(zeta_p) of sum_r zeta_p^r E_r, taken on the integers E_r(X), X = 2^(8 size)
    (`pack`: one big-integer product per polynomial product).  ||H||_1 <= ||G||_1^p <
    2^(p (8 size - 2)), so H's coefficients are the balanced digits of H(X^p) (`unpack`).
    """
    size = digit_width(sum(map(abs, coeffs)).bit_length() + 1)  # bytes per digit of G
    sections = [pack(coeffs[r::p], p * size) << (8 * size * r) for r in range(p)]  # E_r(X)
    return unpack(sum(sections) * _norm_from_slots(sections, p), p * size, len(coeffs))


def _norm_from_slots(slots, p: int):
    """N_{Q(zeta_p)/Q}(sum_a slots[a] zeta_p^a), a < p, for slots in a commutative ring.

    The product of the conjugates sigma_k (slot a to a k mod p), k < p, in
    coordinates on 1, zeta, ..., zeta^(p-2); of the last product, which is
    rational, only the coordinate of 1 is formed.
    """

    def conjugate(k):
        moved = [0] * p
        for a, s in enumerate(slots):
            moved[a * k % p] = s
        return [s - moved[-1] for s in moved[:-1]]  # zeta^(p-1) = -1 - ... - zeta^(p-2)

    acc = conjugate(1)
    for k in range(2, p):
        factor, product = conjugate(k), [0] * p
        for a, x in enumerate(acc):
            for b, y in enumerate(factor):
                if x and y and (k < p - 1 or (a + b + 1) % p < 2):
                    product[(a + b) % p] += x * y
        acc = [s - product[-1] for s in product[:-1]]
    return acc[0]


# -- p-adic valuations -------------------------------------------------


@dataclass(frozen=True)
class Valuation:
    """Exact p-adic valuation: a rational number, or +infinity for 0."""

    value: Fraction | None = None  # None encodes +infinity

    @staticmethod
    def of(x) -> "Valuation":
        return Valuation(Fraction(x))

    @staticmethod
    def infinite() -> "Valuation":
        return Valuation(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "Valuation") -> "Valuation":
        if self.is_infinite or other.is_infinite:
            return Valuation(None)
        return Valuation(self.value + other.value)

    def __repr__(self):
        return "Valuation(+inf)" if self.is_infinite else f"Valuation({self.value})"


def ordp_fraction(x, p: int) -> Valuation:
    """Valuation of a rational number."""
    x = Fraction(x)
    if x == 0:
        return Valuation.infinite()
    return Valuation.of(_ord_int(x.numerator, p) - _ord_int(x.denominator, p))


def _ord_int(n: int, p: int) -> int:
    """ord_p of a nonzero integer, in O(log v) big-integer divisions.

    Divides by p, p^2, p^4, ... while each divides, which leaves a
    valuation below the first power that failed, then by the same powers
    downward, each at most once: the binary digits of what is left.
    For p = 2 it is the index of the lowest set bit of n.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    v, step, q, powers = 0, 1, p, []
    while n % q == 0:
        n //= q
        v += step
        powers.append(q)
        q *= q
        step *= 2
    while powers:
        q = powers.pop()
        step //= 2
        if n % q == 0:
            n //= q
            v += step
    return v
