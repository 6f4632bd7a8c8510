import math
from fractions import Fraction

import pytest

from graphzeta.poly import UniPoly


def test_trailing_zeros_stripped():
    assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly([0, 0]).is_zero()
    assert UniPoly().degree == -1


def test_arithmetic():
    f = UniPoly([1, 2, 3])
    g = UniPoly([0, 1])
    assert f + g == UniPoly([1, 3, 3])
    assert f - f == UniPoly()
    assert f * g == UniPoly([0, 1, 2, 3])
    assert g**3 == UniPoly([0, 0, 0, 1])
    assert f + 1 == UniPoly([2, 2, 3])
    assert 2 * f == UniPoly([2, 4, 6])


def test_eval_and_derivative():
    # derivative of the degree-12 level-two polynomial at 1, by two routes
    h = UniPoly([1, 0, 2, 0, -9, 0, -20, 0, -1, 0, 18, 0, 9])
    term_by_term = sum(i * c for i, c in enumerate(h.coeffs))
    assert term_by_term == 128
    assert h.derivative()(1) == 128
    h0 = UniPoly([1, 0, -4, 0, 3])
    assert h0.derivative()(1) == -8 + 12 == 4
    assert UniPoly([7]).derivative() == UniPoly()


def test_divide_by_u():
    f = UniPoly([0, 4, 2])
    assert f.divide_by_u() == UniPoly([4, 2])
    with pytest.raises(ValueError):
        UniPoly([1, 1]).divide_by_u()


def test_series_inverse_and_exp():
    # power series are checked as polynomial identities: the truncation
    # 1 + u^2 + u^4 + u^6 of 1/(1 - u^2), times 1 - u^2, is 1 - u^8
    one_minus = UniPoly([1, 0, -1])
    assert one_minus * UniPoly([1, 0, 1, 0, 1, 0, 1]) == UniPoly([1] + [0] * 7 + [-1])
    # E = sum u^k / k! through u^5 has E' = E through u^4, which with E(0) = 1
    # makes it exp(u) through u^5: a logarithmic derivative decides the series
    e = UniPoly([Fraction(1, math.factorial(k)) for k in range(6)])
    assert e.derivative() - e == UniPoly.monomial(5, Fraction(-1, 120))


def test_series_negative_power():
    # (1-u^2)^-2 = sum (k+1) u^(2k): (1 - u^2)^2 times its truncation is 1 + O(u^6)
    s = UniPoly([1, 0, 2, 0, 3])
    assert UniPoly([1, 0, -1]) ** 2 * s == UniPoly([1, 0, 0, 0, 0, 0, -4, 0, 3])
