"""Dense univariate polynomials and truncated power series.

Coefficients may be ints, Fractions, CycloNum, or GroupRingElem; the only
requirements are ring arithmetic and comparability with the integer 0.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["TruncSeries", "UniPoly"]


def _is_zero(c) -> bool:
    return c == 0


class UniPoly:
    """Polynomial in u, stored densely with a nonzero trailing coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
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
        if isinstance(other, TruncSeries):
            return None
        return UniPoly.constant(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly([self.coefficient(i) + o.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for k, b in enumerate(o.coeffs):
                if not _is_zero(b):
                    out[i + k] = out[i + k] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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
        if any(not _is_zero(c) for c in self.coeffs[:k]):
            raise ValueError("polynomial not divisible by u^k")
        return UniPoly(self.coeffs[k:])

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            terms.append(f"({c})*u^{i}" if i else f"({c})")
        return "UniPoly(" + " + ".join(terms) + ")"


class TruncSeries:
    """Power series truncated at a stated precision (coefficients of u^0..u^(N-1))."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec: int):
        coeffs = list(coeffs)[:prec]
        coeffs += [0] * (prec - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.prec = prec

    @staticmethod
    def from_poly(poly: UniPoly, prec: int) -> "TruncSeries":
        return TruncSeries(poly.coeffs, prec)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.prec != self.prec:
                prec = min(self.prec, other.prec)
                return TruncSeries(self.coeffs, prec), TruncSeries(other.coeffs, prec)
            return self, other
        if isinstance(other, UniPoly):
            return self, TruncSeries(other.coeffs, self.prec)
        return self, TruncSeries([other], self.prec)

    def __add__(self, other):
        a, b = self._coerce(other)
        return TruncSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], a.prec)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-x for x in self.coeffs], self.prec)

    def __sub__(self, other):
        a, b = self._coerce(other)
        return a + (-b)

    def __mul__(self, other):
        a, b = self._coerce(other)
        out = [0] * a.prec
        for i, x in enumerate(a.coeffs):
            if _is_zero(x):
                continue
            for k in range(a.prec - i):
                y = b.coeffs[k]
                if not _is_zero(y):
                    out[i + k] = out[i + k] + x * y
        return TruncSeries(out, a.prec)

    __rmul__ = __mul__

    def __eq__(self, other):
        a, b = self._coerce(other)
        return all(x == y for x, y in zip(a.coeffs, b.coeffs))

    def inverse(self) -> "TruncSeries":
        c0 = self.coeffs[0]
        if _is_zero(c0):
            raise ZeroDivisionError("series with zero constant term is not a unit")
        inv0 = Fraction(1, c0) if isinstance(c0, int) else 1 / c0
        out = [inv0]
        for k in range(1, self.prec):
            acc = 0
            for i in range(1, k + 1):
                if not _is_zero(self.coeffs[i]):
                    acc = acc + self.coeffs[i] * out[k - i]
            out.append(-inv0 * acc)
        return TruncSeries(out, self.prec)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = TruncSeries([1], self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term, via E' = S'E."""
        if not _is_zero(self.coeffs[0]):
            raise ValueError("exp requires zero constant term")
        out = [Fraction(1)]
        for k in range(1, self.prec):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if not _is_zero(self.coeffs[i]):
                    acc += Fraction(i) * Fraction(self.coeffs[i]) * out[k - i]
            out.append(acc / k)
        return TruncSeries(out, self.prec)

    def __repr__(self):
        terms = [f"({c})*u^{i}" for i, c in enumerate(self.coeffs) if not _is_zero(c)]
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries({body} + O(u^{self.prec}))"
