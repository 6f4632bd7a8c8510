"""Dense univariate polynomials.

Coefficients may be ints, Fractions or GroupRingElem; the only
requirements are ring arithmetic and comparability with the integer 0.
Power-series identities (the Euler product of the zeta function) are
checked as polynomial identities, in `graphs.path_counts_from_zeta`.

`pack` and `unpack` are Kronecker substitution for integer polynomials:
one big integer per polynomial, its coefficients as balanced digits of the
byte width `digit_width` gives.  `UniPoly` and `groupring.GroupRingElem`
share the operators `_RingOps` derives from their own `+`, unary `-` and `*`.
"""

from __future__ import annotations

__all__ = ["UniPoly", "digit_width", "pack", "unpack"]


class _RingOps:
    """The operators of a commutative ring element derived from its `_coerce` (the operand as an
    element, or None for a foreign one), `__add__`, `__neg__`, `__mul__` and `_one`."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a ring element")
        result, base = self._one(), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


class UniPoly(_RingOps):
    """Polynomial in u, stored densely with a nonzero trailing coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def monomial(k: int, c=1) -> "UniPoly":
        return UniPoly([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other)

    def _one(self) -> "UniPoly":
        return UniPoly.constant(1)

    def __add__(self, other):
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly([self.coefficient(i) + o.coefficient(i) for i in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(o.coeffs):
                if b != 0:
                    out[i + k] = out[i + k] + a * b
        return UniPoly(out)

    def __eq__(self, other):
        o = self._coerce(other)
        if len(self.coeffs) != len(o.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, point):
        """Evaluate by Horner's rule."""
        if not self.coeffs:
            return 0 * point
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def map_coeffs(self, f) -> "UniPoly":
        return UniPoly([f(c) for c in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by u^k."""
        if self.is_zero():
            return self
        return UniPoly([0] * k + list(self.coeffs))

    def divide_by_u(self, k: int = 1) -> "UniPoly":
        """Exact division by u^k; the low coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("polynomial not divisible by u^k")
        return UniPoly(self.coeffs[k:])

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"({c})*u^{i}" if i else f"({c})")
        return "UniPoly(" + " + ".join(terms) + ")"


def digit_width(bits: int) -> int:
    """The least byte width w with 8 w - 1 >= bits: every integer below 2^bits in absolute value
    is a balanced digit of width w (`unpack`)."""
    return bits // 8 + 1


def pack(coeffs, width: int) -> int:
    """sum_i coeffs[i] X^i at X = 2^(8 width), every coeffs[i] in [-2^(8 width - 1), 2^(8 width - 1)) (`unpack`)."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - int.from_bytes((bytes(width - 1) + b"\x80") * len(coeffs), "little")


def unpack(value: int, width: int, count: int) -> list[int]:
    """The balanced digits c_0, ..., c_(count-1) of value = sum_i c_i X^i, X = 2^(8 width).

    Exact when every |c_i| < 2^(8 width - 1): adding the bias sum_i 2^(8 width - 1) X^i makes
    each digit c_i + 2^(8 width - 1) lie in [1, X - 1], so no digit borrows from the next and
    the sum is a nonnegative integer below X^count whose width-byte digits are read off one
    `to_bytes`.  Evaluation at X is a ring homomorphism Z[x] -> Z, so sums and products of
    `pack`ed polynomials unpack to the sums and products of the polynomials whenever their
    coefficients obey the same bound.
    """
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = memoryview((value + bias).to_bytes(width * count, "little"))
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * count, width)]
