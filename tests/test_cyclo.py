import random
from fractions import Fraction

import pytest

from graphzeta.cyclo import (
    CycloNum,
    Valuation,
    _ord_int,
    euler_phi_prime_power,
    ordp_cyclo,
    ordp_fraction,
    zeta,
)


def test_phi():
    assert euler_phi_prime_power(2, 0) == 1
    assert euler_phi_prime_power(2, 3) == 4
    assert euler_phi_prime_power(3, 2) == 6


def test_zeta_has_right_order():
    z = zeta(2, 2)
    assert z**4 == 1
    assert z**2 == -1
    assert z != 1
    z3 = zeta(3, 1)
    assert z3**3 == 1
    assert z3**2 + z3 + 1 == 0


def test_norm_of_one_is_one():
    for p, j in [(2, 0), (2, 2), (3, 1), (5, 1)]:
        assert CycloNum.rational(p, 1, j).norm() == 1


def test_norm_zeta4_minus_one():
    # (zeta - 1)(zeta^3 - 1) with zeta^2 = -1: expand by hand to 2
    z = zeta(2, 2)
    direct = (z - 1) * (z**3 - 1)
    assert direct == 2
    assert (z - 1).norm() == 2


def test_norm_zeta3_minus_one():
    z = zeta(3, 1)
    # (z - 1)(z^2 - 1) = z^3 - z^2 - z + 1 = 1 - z^2 - z + 1 = 2 - (z^2 + z) = 3
    assert (z - 1) * (z**2 - 1) == 3
    assert (z - 1).norm() == 3


def test_ordp_rational():
    assert ordp_fraction(8, 2) == Valuation.of(3)
    assert ordp_fraction(Fraction(3, 4), 2) == Valuation.of(-2)
    assert ordp_fraction(0, 5).is_infinite


def _ord_int_by_single_divisions(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_ordp_by_squared_powers_matches_single_divisions():
    for p in (2, 3):
        for v in (0, 1, 2, 3, 7, 8, 63, 64, 65, 1000, 5000):
            for u in (1, -1, p + 1, -(p * p + 1), 7**40):
                n = p**v * u
                assert _ord_int(n, p) == _ord_int_by_single_divisions(n, p) == v
        assert ordp_fraction(Fraction(p**5000 * 5, p**3 * 7), p) == Valuation.of(4997)
        assert ordp_fraction(0, p).is_infinite


def test_ordp_cyclo_values():
    assert ordp_cyclo(CycloNum.rational(2, 2, 2), 2) == Valuation.of(1)
    assert ordp_cyclo(zeta(2, 2) - 1, 2) == Valuation.of(Fraction(1, 2))
    assert ordp_cyclo(zeta(3, 1) - 1, 3) == Valuation.of(Fraction(1, 2))
    assert ordp_cyclo(CycloNum.rational(2, 8, 1), 2) == Valuation.of(3)
    assert ordp_cyclo(CycloNum.rational(2, 0, 2), 2).is_infinite


def test_level_mixing_is_an_error():
    with pytest.raises(ValueError):
        zeta(2, 2) + zeta(2, 1)
    assert zeta(2, 1).lift(2) + zeta(2, 2) == zeta(2, 2) + zeta(2, 2) ** 2


def test_lift_consistency():
    z8 = zeta(2, 3)
    assert zeta(2, 2).lift(3) == z8**2
    x = 3 * zeta(3, 1) - Fraction(1, 2)
    assert x.lift(2) == 3 * zeta(3, 2) ** 3 - Fraction(1, 2)


def test_inverse():
    rng = random.Random(11)
    for p, j in [(2, 2), (2, 3), (3, 1), (3, 2)]:
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi_prime_power(p, j))]
            x = CycloNum(p, j, tuple(coeffs))
            if not x:
                continue
            assert x * x.inverse() == 1


def test_inverse_at_level_zero_is_exact():
    # int coordinates are accepted; the inverse must not go through a float
    for value in (3, -7, Fraction(2, 3), 10**30 + 1):
        inv = CycloNum(2, 0, (value,)).inverse()
        assert inv.coeffs == (1 / Fraction(value),)
        assert isinstance(inv.coeffs[0], Fraction)
    with pytest.raises(ZeroDivisionError):
        CycloNum(3, 0, (0,)).inverse()


def test_valuation_additivity_random():
    rng = random.Random(23)
    for p, jmax in [(2, 3), (3, 3)]:
        for j in range(1, jmax + 1):
            for _ in range(200 // jmax):
                d = euler_phi_prime_power(p, j)
                x = CycloNum(p, j, tuple(Fraction(rng.randint(-6, 6)) for _ in range(d)))
                y = CycloNum(p, j, tuple(Fraction(rng.randint(-6, 6)) for _ in range(d)))
                if not x or not y:
                    continue
                assert ordp_cyclo(x * y, p) == ordp_cyclo(x, p) + ordp_cyclo(y, p)


def test_galois_permutes_conjugates():
    z = zeta(2, 3)
    x = z + 2 * z**3
    conj = x.galois(3)
    assert conj == z**3 + 2 * z**9
    with pytest.raises(ValueError):
        x.galois(2)
