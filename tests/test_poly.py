from fractions import Fraction

import pytest

from graphzeta.poly import TruncSeries, UniPoly


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
    one_minus = TruncSeries([1, 0, -1], 8)
    inv = one_minus.inverse()
    assert inv == TruncSeries([1, 0, 1, 0, 1, 0, 1, 0], 8)
    assert one_minus * inv == TruncSeries([1], 8)
    # exp(log-like data): exp(u) coefficients are 1/k!
    s = TruncSeries([0, 1], 6).exp()
    assert s.coeffs == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
        Fraction(1, 120),
    )


def test_series_negative_power():
    s = TruncSeries([1, 0, -1], 6) ** (-2)
    # (1-u^2)^-2 = sum (k+1) u^(2k)
    assert s.coeffs == (1, 0, 2, 0, 3, 0)
