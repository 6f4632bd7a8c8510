"""The group ring Q[Z/mZ] and its character theory for m = p^n.

Elements are rational coefficient vectors indexed by the group elements
0..m-1; multiplication is convolution mod m.

Q[Z/p^n Z] splits into the fields Q(zeta_{p^j}), j = 0..n, one per Galois
orbit of characters, so `from_character_values` takes one value per orbit,
as its coordinates in the power basis of Q(zeta_{p^j}), as `linalg` gives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import _ord_int
from .poly import UniPoly, _RingOps

__all__ = [
    "CharacterLabel",
    "GroupRingElem",
    "character_orbits",
    "characters",
    "factor_prime_power",
    "from_character_polys",
    "from_character_values",
    "groupring_idempotent",
    "norm_element",
    "orbit_representatives",
    "subgroup_elements",
    "subgroup_exponent",
]


def factor_prime_power(m: int) -> tuple[int, int]:
    """Write m = p^n with p prime, or raise ValueError."""
    if m < 2:
        if m == 1:
            return (2, 0)
        raise ValueError("modulus must be positive")
    p = 2
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        p = m
    n = _ord_int(m, p)
    if p**n != m:
        raise ValueError(f"{m} is not a prime power")
    return (p, n)


class GroupRingElem(_RingOps):
    """Element of Q[Z/mZ] as a length-m coefficient vector."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != m:
            raise ValueError(f"need exactly {m} coefficients")
        self.m = m
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(m: int) -> "GroupRingElem":
        return GroupRingElem(m, [Fraction(0)] * m)

    @staticmethod
    def one(m: int) -> "GroupRingElem":
        return GroupRingElem.basis(m, 0)

    def _one(self) -> "GroupRingElem":
        return GroupRingElem.one(self.m)

    @staticmethod
    def basis(m: int, k: int, c=1) -> "GroupRingElem":
        coeffs = [Fraction(0)] * m
        coeffs[k % m] = Fraction(c)
        return GroupRingElem(m, coeffs)

    @staticmethod
    def from_dict(m: int, d: dict) -> "GroupRingElem":
        coeffs = [Fraction(0)] * m
        for k, c in d.items():
            coeffs[k % m] += Fraction(c)
        return GroupRingElem(m, coeffs)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GroupRingElem):
            if other.m != self.m:
                raise ValueError(f"group order mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return GroupRingElem.basis(self.m, 0, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GroupRingElem(self.m, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return GroupRingElem(self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return GroupRingElem.zero(self.m)
            return GroupRingElem(self.m, [c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * self.m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(o.coeffs):
                if b != 0:
                    idx = (i + k) % self.m
                    out[idx] = out[idx] + a * b
        return GroupRingElem(self.m, out)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return f"GroupRingElem({self.m}; {self.as_text()})"

    def as_text(self) -> str:
        """Render as "c0*[0] + c1*[1] + ..." keeping only nonzero terms."""
        terms = [f"{c}*[{k}]" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"

    # -- structure maps -------------------------------------------------

    def augmentation(self):
        """Sum of coefficients (the trivial character)."""
        total = self.coeffs[0]
        for c in self.coeffs[1:]:
            total = total + c
        return total

    def project_to_quotient(self, m2: int) -> "GroupRingElem":
        """Push forward along Z/mZ -> Z/m2Z (m2 must divide m)."""
        if self.m % m2:
            raise ValueError("quotient order must divide the group order")
        out = [Fraction(0)] * m2
        for k, c in enumerate(self.coeffs):
            out[k % m2] = out[k % m2] + c
        return GroupRingElem(m2, out)

    def restrict_to_subgroup(self, d: int) -> "GroupRingElem":
        """Coefficients on the order-d subgroup, reindexed by Z/dZ."""
        if self.m % d:
            raise ValueError("subgroup order must divide the group order")
        step = self.m // d
        return GroupRingElem(d, [self.coeffs[t * step] for t in range(d)])


def subgroup_exponent(p: int, n: int, d: int) -> int:
    """h with p^h = d, for the order-d subgroup of Z/p^n Z; ValueError if there is none."""
    h = _ord_int(d, p) if d > 0 else n + 1
    if h > n or p**h != d:
        raise ValueError(f"no subgroup of order {d} in Z/{p**n}Z")
    return h


def subgroup_elements(m: int, d: int) -> list[int]:
    """Elements of the unique order-d subgroup of Z/mZ."""
    if d <= 0 or m % d:
        raise ValueError(f"no subgroup of order {d} in Z/{m}Z")
    step = m // d
    return [t * step for t in range(d)]


def norm_element(m: int, d: int) -> GroupRingElem:
    """N_H: the sum of the elements of the order-d subgroup H."""
    return GroupRingElem.from_dict(m, {k: 1 for k in subgroup_elements(m, d)})


def groupring_idempotent(m: int, d: int) -> GroupRingElem:
    """e_H = N_H / |H| for the unique subgroup H of order d."""
    return norm_element(m, d) * Fraction(1, d)


# -- characters of Z/p^n Z -------------------------------------------------


@dataclass(frozen=True)
class CharacterLabel:
    """Character psi_a of Z/p^n Z, x -> zeta_{p^n}^(a x)."""

    p: int
    n: int
    a: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % (self.p**self.n))

    @property
    def order_exponent(self) -> int:
        """j with ord(psi) = p^j."""
        return self.n - _ord_int(self.a, self.p) if self.a else 0

    @property
    def order(self) -> int:
        return self.p**self.order_exponent

    @property
    def is_trivial(self) -> bool:
        return self.a == 0

    def exponent_at(self, level: int) -> int:
        """e with psi(x) = zeta_{p^level}^(e x); level must be >= order_exponent."""
        if level < self.order_exponent:
            raise ValueError("requested level below the character's order level")
        return self.a * self.p**level // self.p**self.n


def characters(p: int, n: int) -> list[CharacterLabel]:
    """All p^n characters of Z/p^n Z, by exponent."""
    return [CharacterLabel(p, n, a) for a in range(p**n)]


def orbit_representatives(p: int, n: int) -> list[CharacterLabel]:
    """The representatives psi_{p^(n-j)} of the Galois orbits of characters of Z/p^n Z, j = 0..n.

    The characters of order p^j form one orbit under Gal(Q(zeta_{p^j})/Q):
    psi_a = sigma_u o psi_{p^(n-j)} with u = a / p^(n-j), where sigma_u sends
    zeta_{p^j} to zeta_{p^j}^u.  The representative of order p^j sends x to
    zeta_{p^j}^x (exponent 1 at its level), the trivial one (j = 0) x to 1.
    """
    return [CharacterLabel(p, n, p ** (n - j)) for j in range(n + 1)]


def character_orbits(p: int, n: int) -> tuple[list[CharacterLabel], list[tuple[int, int]]]:
    """Galois orbits of the characters of Z/p^n Z: the `orbit_representatives` and, for each
    exponent a = 0..p^n - 1, the pair (j, u) with psi_a = sigma_u o psi_{p^(n-j)}; the
    trivial character is (0, 1)."""
    reps = orbit_representatives(p, n)
    orbits = []
    for psi in characters(p, n):
        j = psi.order_exponent
        orbits.append((j, psi.exponent_at(j) if j else 1))
    return reps, orbits


def from_character_values(p: int, n: int, values) -> GroupRingElem:
    """Inverse discrete Fourier transform, from one value per Galois orbit.

    values[j], j = 0..n, holds the phi(p^j) rational coordinates, in the power
    basis 1, zeta_{p^j}, ..., of psi_{p^(n-j)}(x), the value at the
    representative of the characters of order p^j (`orbit_representatives`); a
    wrong number of orbits or of coordinates raises ValueError.  The orbit's
    other characters take its conjugates, so
    [t] = p^(-n) sum_j Tr(zeta_{p^j}^(-t) values[j]), the trace of zeta_{p^j}^k
    being p^j [p^j | k] - p^(j-1) [p^(j-1) | k], j >= 1.
    """
    m = p**n
    values = list(values)
    if len(values) != n + 1:
        raise ValueError(f"need {n + 1} character values, one per Galois orbit")
    periodic = []  # (p^j, w): the orbit's trace at [t] is w[t mod p^j]
    for j, c in enumerate(values):
        q, r = p**j, p**j // p  # r = 0 at j = 0, where the trace is the identity
        c = list(c)
        if len(c) != q - r:  # phi(p^j)
            raise ValueError(f"value {j} needs {q - r} coordinates in Q(zeta_{q}), not {len(c)}")
        c += [0] * r
        sums = [sum(c[i::r]) for i in range(r)]
        periodic.append((q, [q * a - r * sums[k % r] if r else a for k, a in enumerate(c)]))
    return GroupRingElem(m, [Fraction(sum(w[t % q] for q, w in periodic), m) for t in range(m)])


def from_character_polys(p: int, n: int, polys) -> UniPoly:
    """Coefficientwise from_character_values: polys[j] holds the coordinate rows of the
    representative psi_{p^(n-j)}'s polynomial, row k its u^k coefficient (zero past the last)."""
    length = max((k + 1 for rows in polys for k, row in enumerate(rows) if any(row)), default=0)
    padded = [r[:length] + [[0] * (p**j - p**j // p)] * (length - len(r)) for j, r in enumerate(polys)]
    return UniPoly([from_character_values(p, n, column) for column in zip(*padded)])
