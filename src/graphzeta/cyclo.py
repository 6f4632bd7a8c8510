"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^j}).

An element is a row of phi(p^j) coordinates in the power basis 1, zeta,
..., zeta^(phi-1) of zeta = zeta_{p^j}, modulo the cyclotomic polynomial
Phi_{p^j}(X) = sum_{t<p} X^{t*p^(j-1)}; at level j = 0 the row has one
entry (the field is then just Q).  The kernels of `linalg` return integer
rows, and the character table conjugates and sums them.

`cyclotomic_norms` takes the norms of G(zeta_{p^j}) for an integer
polynomial G at every j <= n at once, by Graeffe root-powering over Z:
the orbit norms of the tower sweep use it.

The Galois action sigma_u: zeta -> zeta^u is one index pair on the
coordinates: `galois_conjugates` applies it to integer coordinate rows
for many u at once.  The p-adic valuation of a rational number is
`ordp_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Valuation",
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


# -- norms of G(zeta_{p^j}) for every j, by Graeffe root-powering --------


def cyclotomic_norms(coeffs, p: int, n: int) -> list[int]:
    """[N_0(G), ..., N_n(G)], N_j(G) = N_{Q(zeta_{p^j})/Q} G(zeta_{p^j}), G = sum coeffs[m] x^m.

    G has integer coefficients; N_0(G) = G(1).  With G_0 = G mod y^(p^n) - 1
    and G_(i+1)(x^p) = prod over w^p = 1 of G_i(w x) (`_graeffe_step`),
    reduced mod y^(p^(n-i-1)) - 1, N_j(G) = N_{Q(zeta_p)/Q} G_(j-1)(zeta_p)
    for j >= 1, the last norm taken by `_norm_from_slots`.

    Proof.  For j >= 2 the conjugates of zeta_{p^j} over Q(zeta_{p^(j-1)})
    are zeta_{p^j} w, w^p = 1, so the relative norm of G_i(zeta_{p^j}) is
    prod_w G_i(w zeta_{p^j}) = G_(i+1)(zeta_{p^(j-1)}), and by transitivity
    of norms N_j(G_i) = N_(j-1)(G_(i+1)); down to j = 1 this is the formula.
    The reductions are allowed: G_i is only evaluated at roots of unity of
    order dividing p^(n-i), where y^(p^(n-i)) - 1 vanishes, and if
    G_i = G'_i mod x^M - 1 with p | M, then G_i(w x) = G'_i(w x) mod
    x^M - 1, as w^M = 1.
    """
    period = p**n
    g = [sum(coeffs[m::period]) for m in range(min(len(coeffs), period))]  # G_0
    norms = [sum(g)]
    for i in range(n):
        norms.append(_norm_from_slots([sum(g[a::p]) for a in range(p)], p))
        if i + 1 < n:
            g, period = _graeffe_step(g, p), period // p
            g = [sum(g[m::period]) for m in range(min(len(g), period))]  # G_(i+1)
    return norms


def _graeffe_step(coeffs: list[int], p: int) -> list[int]:
    """H with H(x^p) = prod over w^p = 1 of G(w x), G = sum coeffs[m] x^m; len(H) = len(G).

    With E_r the terms of G of degree r mod p, G(w x) = sum_r w^r E_r(x):
    the product is G times the norm from Q(zeta_p) of sum_r zeta_p^r E_r,
    taken on the integers E_r(X), X = 2^b (Kronecker substitution, one
    big-integer product per polynomial product).  ||H||_1 <= ||G||_1^p <
    2^(p (b - 2)), so the coefficients of G and of H(X^p) are balanced digits.
    """
    size = (sum(map(abs, coeffs)).bit_length() + 9) // 8  # bytes per digit of G
    half = 1 << (8 * size - 1)
    digits, bias = [(c + half).to_bytes(size, "little") for c in coeffs], half.to_bytes(size, "little")
    offset = int.from_bytes(bias * len(coeffs), "little")
    sections = [
        int.from_bytes(b"".join(x if m % p == r else bias for m, x in enumerate(digits)), "little") - offset
        for r in range(p)
    ]
    product = sum(sections) * _norm_from_slots(sections, p)  # H(X^p), digits of p size bytes
    wide, half = p * size, 1 << (8 * p * size - 1)
    offset = int.from_bytes(half.to_bytes(wide, "little") * len(coeffs), "little")
    raw = (product + offset).to_bytes(wide * len(coeffs), "little")
    return [int.from_bytes(raw[i : i + wide], "little") - half for i in range(0, len(raw), wide)]


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
    """
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
