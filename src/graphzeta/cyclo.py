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

The Galois action sigma_u: zeta -> zeta^u is one index pair on the
coordinates: `galois_conjugates` applies it to integer coordinate rows
for many u at once.  The p-adic valuation of a rational number is
`ordp_fraction`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _galois_index_pair(p: int, j: int, units) -> tuple[np.ndarray, np.ndarray]:
    """sigma_u: zeta -> zeta^u on power-basis coordinates, for each u in units.

    With c the coordinates followed by one zero (index phi = phi(p^j)),
    sigma_u(x) has coordinates c[a[t]] - c[b[t]], t < phi, for the rows
    a, b of shape (len(units), phi) returned here.  sigma_u moves the
    coefficient of zeta^i to zeta^(i u), so the exponent t reads
    c[t u^-1 mod p^j]; reducing by Phi_{p^j}, zeta^(phi + r) =
    -sum_{k < p-1} zeta^(k s + r) with s = p^(j-1), r < s, so every
    t = k s + r also loses c[(phi + t mod s) u^-1 mod p^j].  An index
    >= phi reads the zero.  ValueError for a u divisible by p, when j >= 1.
    """
    phi, order = euler_phi_prime_power(p, j), p**j
    units = [int(u) for u in units]
    if j == 0:  # Q: the identity
        return np.zeros((len(units), 1), np.int64), np.ones((len(units), 1), np.int64)
    if any(u % p == 0 for u in units):
        raise ValueError("galois exponent must be a unit")
    inverse = np.array([pow(u, -1, order) for u in units], dtype=np.int64).reshape(-1, 1)
    t = np.arange(phi, dtype=np.int64)
    a = t * inverse % order
    b = (phi + t % (order // p)) * inverse % order
    return np.minimum(a, phi), np.minimum(b, phi)


def _int_array(values) -> np.ndarray:
    # int64 where every entry fits, else object (Python ints)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def galois_conjugates(p: int, j: int, rows, units) -> np.ndarray:
    """sigma_u of integer coordinate rows, for each u in units.

    rows is a list of coordinate vectors of length phi(p^j); the result
    has shape (len(units), len(rows), phi).  It is int64 when every entry
    is below 2^62 in absolute value, so that each difference fits, and
    object (Python ints) otherwise.
    """
    a, b = _galois_index_pair(p, j, units)
    c = _int_array([list(row) + [0] for row in rows]).reshape(len(rows), a.shape[1] + 1)
    if c.dtype != object and not np.all((c > -(2**62)) & (c < 2**62)):
        c = c.astype(object)
    return (c[:, a] - c[:, b]).transpose(1, 0, 2)


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
