import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CycloNum, galois_by_monomials, ordp_cyclo, zeta

from graphzeta.cyclo import (
    Valuation,
    _graeffe_step,
    _ord_int,
    coordinate_norm,
    cyclotomic_norms,
    euler_phi_prime_power,
    galois_conjugates,
    ordp_fraction,
)
from graphzeta.poly import UniPoly


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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.one_of(
        st.integers(-(2**300), 2**300).filter(bool),
        st.integers(0, 400).map(lambda v: 2**v),
        st.tuples(st.integers(-(10**30), 10**30), st.integers(0, 10**6)).map(lambda x: (2 * x[0] + 1) << x[1]),
    ),
    st.booleans(),
)
def test_ord_int_at_two_is_the_lowest_set_bit(n, negate):
    # the p = 2 fast path on signed ints, powers of 2 and odd multiples of 2^v up to v = 10^6: 2^v
    # divides n and 2^(v + 1) does not; up to v = 2000 also against single divisions
    n = -n if negate else n
    v = _ord_int(n, 2)
    assert n % 2**v == 0 and n % 2 ** (v + 1) != 0
    if v <= 2000:
        assert v == _ord_int_by_single_divisions(n, 2)


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
    for p, j in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (7, 1)]:
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


def _units(p: int, j: int) -> list[int]:
    return [u for u in range(1, p**j) if u % p] if j else [1]


def _sparse_vector(rng: random.Random, phi: int, draw) -> list:
    # up to 40 nonzero coordinates, so that the oracle stays cheap at phi(7^4) = 2058
    out = [0] * phi
    for i in rng.sample(range(phi), min(phi, rng.randint(0, 40))):
        out[i] = draw()
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("j", range(5))
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(st.sampled_from([5, 2**62 - 1, 2**62, 2**63, 2**80]), st.integers(0, 2**32))
def test_galois_conjugates_match_monomial_oracle(p, j, bound, seed):
    """sigma_u on integer rows, with entries past 2^62 too, and on Fraction coordinates.

    Every unit u is checked against the oracle up to phi = 294 (7^3); at
    5^4 and 7^4 (500 and 2058 units) a sample of 40 units is, and the
    composition law sigma_u o sigma_v = sigma_(uv) covers every unit.
    p^j = 2 (the identity on one coordinate) is p = 2, j = 1.
    """
    rng = random.Random(seed)
    phi, order, units = euler_phi_prime_power(p, j), p**j, _units(p, j)

    def big():
        return rng.choice([-bound, bound, rng.randint(-bound, bound)])

    def fraction():
        return Fraction(big(), rng.randint(1, 9))

    rows = [_sparse_vector(rng, phi, big) for _ in range(2)]
    as_cyclo = [CycloNum(p, j, tuple(map(Fraction, row))) for row in rows]
    x = CycloNum(p, j, tuple(map(Fraction, _sparse_vector(rng, phi, fraction))))
    checked = set(units if phi < 500 else rng.sample(units, 40))
    v, w = rng.choice(units), rng.choice(units)
    for start in range(0, len(units), 64):  # chunks keep 7^4 small in memory
        part = units[start : start + 64]
        conjugates = list(galois_conjugates(p, j, rows, part))
        assert [len(conjugate) for conjugate in conjugates] == [2] * len(part)
        assert all(type(c) is int for conjugate in conjugates for row in conjugate for c in row)
        for u, conjugate in zip(part, conjugates):
            if u not in checked:
                continue
            for row, got in zip(as_cyclo, conjugate):
                assert list(galois_by_monomials(row, u).coeffs) == got
            y = x.galois(u)
            assert y == galois_by_monomials(x, u)
            assert all(type(c) is Fraction for c in y.coeffs)
        twice = list(galois_conjugates(p, j, next(galois_conjugates(p, j, rows, [v])), part))
        assert twice == list(galois_conjugates(p, j, rows, [u * v % order for u in part]))
    assert x.galois(v).galois(w) == x.galois(v * w % order)
    if j:
        for u in (0, p, rng.randrange(order) * p, -p):
            with pytest.raises(ValueError):
                x.galois(u)
            with pytest.raises(ValueError):
                galois_conjugates(p, j, rows, [1, u])


def _norm_by_conjugates(coeffs, p, j):
    # the product of the phi(p^j) Galois conjugates of G(zeta_{p^j}), multiplied out in CycloNum
    x = CycloNum.from_monomials(p, j, enumerate(coeffs))
    if j == 0:
        return x.coeffs[0]
    product = CycloNum.rational(p, 1, j)
    for u in range(1, p**j):
        if u % p:
            product = product * x.galois(u)
    return product.to_rational()


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data())
def test_cyclotomic_norms_match_products_of_conjugates(data):
    # Graeffe root-powering against the CycloNum product of conjugates at every level
    # j <= n, on polynomials up to 3 p^n long (so that G_0 folds) with entries past int64
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(0, {2: 5, 3: 3, 5: 2, 7: 2}[p]))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    coeffs = data.draw(st.lists(entries, max_size=3 * p**n + 2))
    norms = cyclotomic_norms(coeffs, p, n)
    assert norms == [_norm_by_conjugates(coeffs, p, j) for j in range(n + 1)]
    assert all(type(v) is int for v in norms)
    if n:  # CycloNum.norm: the product of conjugates of the integer numerator, over 6^phi
        x = CycloNum.from_monomials(p, n, [(e, Fraction(c, 6)) for e, c in enumerate(coeffs)])
        assert x.norm() == Fraction(norms[n], 6 ** euler_phi_prime_power(p, n))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_coordinate_norm_matches_cyclonum_norm(data):
    # N(u) has degree <= phi D, so its values at u = 0..phi D decide it: at each, the norm of x(t)
    # is the product of its Galois conjugates (CycloNum.norm); zero rows and x = 0 included
    p, j = data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(0, 3))
    phi = euler_phi_prime_power(p, j)
    entries = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))
    row = st.one_of(st.just([0] * phi), st.lists(entries, min_size=phi, max_size=phi))
    rows = data.draw(st.lists(row, max_size=max(1, 12 // phi)))
    norm = coordinate_norm(rows, p, j)
    assert len(norm) == phi * max(len(rows) - 1, 0) + 1 and all(type(a) is int for a in norm)
    for t in range(len(norm)):
        x = CycloNum(p, j, tuple(Fraction(sum(r[e] * t**d for d, r in enumerate(rows))) for e in range(phi)))
        assert UniPoly(norm)(t) == x.norm()


def test_coordinate_norm_examples():
    # 1 + zeta u over Q(i): (1 + i u)(1 - i u) = 1 + u^2; zeta_3 u - 1 at p = 3: 1 + u + u^2
    assert coordinate_norm([[1, 0], [0, 1]], 2, 2) == [1, 0, 1]
    assert coordinate_norm([[-1, 0], [0, 1]], 3, 1) == [1, 1, 1]
    assert coordinate_norm([], 5, 2) == [0] and coordinate_norm([[0] * 4] * 3, 5, 1) == [0] * 9
    assert coordinate_norm([[7], [0], [-2]], 2, 0) == [7, 0, -2]


def test_graeffe_step_is_the_product_over_pth_roots():
    # G(x) G(-x) = H(x^2) and G(x) G(w x) G(w^2 x) = H(x^3), multiplied out over Z[w]
    assert _graeffe_step([1, 2, 3], 2) == [1, 2, 9]  # (1 + 3y)^2 - 4y
    assert _graeffe_step([], 3) == []
    g = [5, -1, 4, 0, 7]
    product = UniPoly.constant(1)
    for k in range(3):
        product = product * UniPoly([CycloNum.from_monomials(3, 1, [(k * m, c)]) for m, c in enumerate(g)])
    h = [(c + CycloNum.rational(3, 0, 1)).to_rational() for c in product.coeffs]  # some are int 0
    assert h[1::3] == h[2::3] == [0] * len(h[1::3])
    assert _graeffe_step(g, 3) == h[::3]
