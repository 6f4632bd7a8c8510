import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphzeta.groupring import GroupRingElem
from graphzeta.poly import UniPoly, digit_width, pack, unpack


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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_pack_unpack_round_trip(data):
    # balanced width-byte digits: the widest ones, +-(2^(8w - 1) - 1), zero digits (trailing ones
    # among them), and sums of packed values whose digit sums stay in range
    width = data.draw(st.integers(1, 9))
    top = 2 ** (8 * width - 1) - 1
    digit = st.one_of(st.sampled_from([0, top, -top, 1, -1]), st.integers(-top, top))
    a = data.draw(st.lists(digit, max_size=24))
    packed = pack(a, width)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(a))
    assert unpack(packed, width, len(a)) == a
    assert unpack(packed, width, len(a) + 3) == a + [0, 0, 0]
    half = st.one_of(st.sampled_from([0, top // 2, -(top // 2)]), st.integers(-(top // 2), top // 2))
    b, c = (data.draw(st.lists(half, min_size=len(a), max_size=len(a))) for _ in range(2))
    assert unpack(pack(b, width) + pack(c, width), width, len(a)) == [x + y for x, y in zip(b, c)]
    assert unpack(pack(b, width) - pack(c, width), width, len(a)) == [x - y for x, y in zip(b, c)]


def test_pack_takes_the_lowest_digit():
    # pack also takes the digit -2^(8w - 1), which unpack does not read back; no digits pack to 0
    for width in (1, 2, 5):
        low = -(2 ** (8 * width - 1))
        assert pack([low, 3], width) == low + (3 << (8 * width))
        assert pack([], width) == 0 and unpack(0, width, 0) == []
        assert unpack(pack([0, 0], width), width, 2) == [0, 0]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(st.integers(0, 300), st.integers(1, 30).map(lambda w: 8 * w - 1)), st.data())
def test_digit_width_round_trips_every_integer_of_its_bits(bits, data):
    # the least w with 8 w - 1 >= bits, at which +-(2^bits - 1) and everything between are digits
    width = digit_width(bits)
    assert 8 * width - 1 >= bits > 8 * (width - 1) - 1
    top = 2**bits - 1
    digits = [top, -top, 0] + data.draw(st.lists(st.integers(-top, top), max_size=8))
    digits = data.draw(st.permutations(digits))
    assert unpack(pack(digits, width), width, len(digits)) == digits


@st.composite
def _ring_pair(draw):
    # two elements of one ring: integer polynomials in u, or rational elements of Q[Z/mZ]
    if draw(st.booleans()):
        poly = st.lists(st.integers(-6, 6), max_size=5).map(UniPoly)
        return draw(poly), draw(poly)
    m = draw(st.sampled_from([1, 2, 3, 4, 9]))
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=m, max_size=m)
    return tuple(GroupRingElem(m, draw(coeffs)) for _ in range(2))


def _scaled(x, q):
    if isinstance(x, UniPoly):
        return UniPoly([q * c for c in x.coeffs])
    return GroupRingElem(x.m, [q * c for c in x.coeffs])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_ring_pair(), st.integers(-5, 5), st.fractions(-4, 4, max_denominator=6), st.integers(0, 5))
def test_shared_ring_operators(pair, k, q, e):
    # the reflected operators, subtraction and powers UniPoly and GroupRingElem take from one base
    x, y = pair
    assert (x - y) + y == x and x - y == x + (-y)
    assert (y - x) + x == y and y - x == -(x - y)
    assert (k - x) + x == k and k + x == x + k
    assert q * x == x * q == _scaled(x, q)
    product = 0 * x + 1
    assert x**0 == product == 1
    for _ in range(e):
        product = product * x
    assert x**e == product
    with pytest.raises(ValueError):
        x ** -1
    for operation in (lambda: x - "u", lambda: "u" - x, lambda: x + "u", lambda: "u" + x):
        with pytest.raises(TypeError):
            operation()
    if x:  # the zero polynomial times anything is zero
        with pytest.raises(TypeError):
            x * "u"
        with pytest.raises(TypeError):
            "u" * x
