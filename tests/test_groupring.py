import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphzeta.cyclo import galois_conjugates
from graphzeta.groupring import (
    GroupRingElem,
    character_orbits,
    characters,
    factor_prime_power,
    from_character_values,
    groupring_idempotent,
    norm_element,
    subgroup_exponent,
)
from graphzeta.lfunctions import CharacterLabel
from oracles import (
    CycloNum,
    character_idempotent,
    character_value_by_powers,
    from_character_values_by_characters,
)


def _value(x: GroupRingElem, psi: CharacterLabel, level: int | None = None) -> CycloNum:
    # psi(x) by the power oracle, at the character's own level unless a higher one is asked,
    # raised to the level of any cyclotomic coefficient of x
    levels = [psi.order_exponent if level is None else level] + [c.j for c in x.coeffs if isinstance(c, CycloNum)]
    return character_value_by_powers(x, psi.p, psi.n, psi.a, max(levels))


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(1) == (2, 0)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def _divisions(n: int, p: int) -> int:
    # ord_p of n != 0, one division at a time
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from([2, 3, 5, 2**61 - 1]), st.integers(0, 7), st.integers(0, 9), st.integers(-10**30, 10**30))
def test_order_exponent_matches_a_division_loop(p, n, k, unit):
    for a in (unit, p**k * unit, p**k):
        psi = CharacterLabel(p, n, a)
        assert psi.order_exponent == (n - _divisions(psi.a, p) if psi.a else 0)
        assert psi.order == p**psi.order_exponent


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from([2, 3, 5, 2**61 - 1]), st.integers(0, 9), st.integers(1, 60))
def test_factor_prime_power_matches_a_division_loop(p, k, c):
    # m = p^k c; the search for the prime is trial division, so 2^61 - 1 meets a factor c >= 2
    drawn = p**k * (c if p < 2**61 - 1 else c + 1)
    for m in (drawn, 12, 2 * 3**5, 3 * (2**61 - 1), (2**61 - 1) ** 2 * 2):
        q = next(q for q in range(2, m + 1) if m % q == 0) if m > 1 else 2
        v = _divisions(m, q) if m > 1 else 0
        if q**v == m:
            assert factor_prime_power(m) == (q, v)
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                factor_prime_power(m)


def test_convolution():
    a = GroupRingElem.basis(4, 1)
    b = GroupRingElem.basis(4, 3)
    assert a * b == GroupRingElem.one(4)
    assert a**4 == 1
    n = norm_element(4, 2)
    assert n * n == 2 * n


def test_idempotents():
    e1 = groupring_idempotent(4, 1)
    assert e1 == GroupRingElem.one(4)
    e2 = groupring_idempotent(4, 2)
    assert e2.coeffs == (Fraction(1, 2), 0, Fraction(1, 2), 0)
    assert e2 * e2 == e2
    e4 = groupring_idempotent(4, 4)
    assert e4.coeffs == (Fraction(1, 4),) * 4
    assert e4 * e4 == e4


def test_apply_character_is_augmentation_for_trivial():
    x = GroupRingElem(4, (Fraction(1), Fraction(-2), Fraction(3), Fraction(5)))
    val = _value(x, CharacterLabel(2, 2, 0))
    assert val.to_rational() == 7


def test_apply_character_on_eta_coefficient():
    # the u^2 coefficient of the running example's eta
    x = GroupRingElem(
        4, (Fraction(1, 2), Fraction(-2), Fraction(-1, 2), Fraction(-2))
    )
    order2 = _value(x, CharacterLabel(2, 2, 2))
    assert order2.to_rational() == 4
    order4 = _value(x, CharacterLabel(2, 2, 1))
    assert order4.to_rational() == 1


def test_modulus_mismatch():
    x = GroupRingElem.one(4)
    with pytest.raises(ValueError):
        x * GroupRingElem.one(8)
    with pytest.raises(ValueError):  # the three orbits of Z/4Z for a transform over Z/8Z
        from_character_values(2, 3, [_value(x, psi).coeffs for psi in character_orbits(2, 2)[0]])


def test_character_ring_morphism():
    rng = random.Random(5)
    for m, p, n in [(4, 2, 2), (8, 2, 3), (9, 3, 2)]:
        for a in range(m):
            psi = CharacterLabel(p, n, a)
            x = GroupRingElem(m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)))
            y = GroupRingElem(m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)))
            lvl = psi.order_exponent
            assert _value(x * y, psi) == _value(x, psi) * _value(y, psi)
            assert _value(x + y, psi) == _value(x, psi) + _value(y, psi)
    assert _value(GroupRingElem.one(8), CharacterLabel(2, 3, 5)) == 1


def test_orthogonality():
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]:
        m = p**n
        if m > 16:
            continue
        for a in range(m):
            e_phi = character_idempotent(p, n, a)
            for b in range(m):
                value = _value(e_phi, CharacterLabel(p, n, b))
                expected = 1 if a == b else 0
                assert value == CycloNum.rational(p, expected, value.j)


def test_decomposition_reconstructs():
    rng = random.Random(9)
    for p, n in [(2, 2), (2, 3), (3, 1)]:
        m = p**n
        x = GroupRingElem(m, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)))
        values = [_value(x, psi).coeffs for psi in character_orbits(p, n)[0]]
        assert from_character_values(p, n, values) == x


def _orbit_coordinates(p: int, j: int, value: CycloNum) -> tuple:
    # a value of Q(zeta_{p^j}) held at level L >= j sits on the exponents divisible by p^(L-j)
    return value.coeffs[:: p ** (value.j - j)]


@st.composite
def _element_and_orbit_levels(draw):
    # x in Q[Z/p^n Z], p^n <= 27, and a level L_j >= j for each Galois orbit j
    p, n = draw(st.sampled_from([(p, n) for p in (2, 3, 5) for n in range(5) if p**n <= 27]))
    coeffs = draw(
        st.lists(st.fractions(-5, 5, max_denominator=4), min_size=p**n, max_size=p**n)
    )
    levels = [draw(st.integers(j, n + 1)) for j in range(n + 1)]
    return p, n, GroupRingElem(p**n, coeffs), levels


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_element_and_orbit_levels())
def test_orbit_transform_inverts_apply_character_and_matches_per_character_oracle(case):
    p, n, x, levels = case
    reps = character_orbits(p, n)[0]
    values = [_value(x, psi, level=level) for psi, level in zip(reps, levels)]
    assert [v.j for v in values] == levels
    assert from_character_values(p, n, [_orbit_coordinates(p, j, v) for j, v in enumerate(values)]) == x
    every = [_value(x, psi, level=levels[psi.order_exponent]) for psi in characters(p, n)]
    assert from_character_values_by_characters(p, n, every) == x


def test_from_character_values_rejects_values_outside_their_field():
    # [1] takes zeta_{p^j} at the representative of order p^j
    assert from_character_values(3, 2, [[1], [0, 1], [0, 1, 0, 0, 0, 0]]) == GroupRingElem.basis(9, 1)
    assert from_character_values(2, 0, [[Fraction(1, 2)]]) == GroupRingElem.basis(1, 0, Fraction(1, 2))
    for p, n, values in (
        (3, 1, [[0, 1], [1, 0]]),  # zeta_3 as the trivial character's value
        (2, 1, [[1], [0, 1]]),  # i as the value of order 2
        (3, 2, [[1], [1, 0], [0, 1]]),  # Q(zeta_3) coordinates for the orbit of order 9
        (3, 2, [[1], [0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),  # zeta_9 is not in Q(zeta_3)
        (3, 1, [[1], [0, 1], [1, 0]]),  # one value per character of Z/3Z, not per orbit
        (3, 2, [[1], [0, 1]]),  # an orbit missing
        (2, 0, []),
    ):
        with pytest.raises(ValueError):
            from_character_values(p, n, values)


def _random_cyclo(rng: random.Random, p: int, j: int) -> CycloNum:
    return CycloNum.from_monomials(
        p, j, [(e, Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for e in range(p**j)]
    )


def _by_monomials(x: GroupRingElem, psi: CharacterLabel, level: int) -> CycloNum:
    # psi(x) as one sum of monomials in zeta_{p^level}, reduced by CycloNum.from_monomials
    p, step = psi.p, psi.exponent_at(level)

    def monomials(c):
        if not isinstance(c, CycloNum):
            return [(0, c)]
        scale = p ** (level - c.j) if c.j else 0
        return [(i * scale, v) for i, v in enumerate(c.coeffs) if v]

    pairs = [(step * s + e, v) for s, c in enumerate(x.coeffs) if c for e, v in monomials(c)]
    return CycloNum.from_monomials(p, level, pairs)


def test_apply_character_matches_power_oracle():
    # the power oracle against reduced monomials, rational and cyclotomic coefficients, at
    # every level from the character's own; and against the library's coordinate route:
    # an orbit's values are `galois_conjugates` of its representative's
    rng = random.Random(17)
    for p, n in [(2, 2), (2, 3), (3, 1), (3, 2)]:
        m = p**n
        reps, orbits = character_orbits(p, n)
        for _ in range(3):
            rational = GroupRingElem(
                m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            )
            c_level = rng.randint(0, n + 1)
            cyclo = GroupRingElem(
                m, [_random_cyclo(rng, p, c_level) if rng.random() < 0.6 else 0 for _ in range(m)]
            )
            for psi, (j, u) in zip(characters(p, n), orbits):
                for level in (j, j + 1, n + 1):
                    got = character_value_by_powers(rational, p, n, psi.a, level)
                    assert got == _by_monomials(rational, psi, level)
                    top = max(level, c_level)
                    assert character_value_by_powers(cyclo, p, n, psi.a, top) == _by_monomials(cyclo, psi, top)
                assert _value(rational, psi).j == j and _value(cyclo, psi).j == max(j, c_level)
                scale = 6  # clears the denominators 1..3
                row = [int(c * scale) for c in _value(rational, reps[j]).coeffs]
                assert galois_conjugates(p, j, [row], [u])[0][0].tolist() == [
                    c * scale for c in _value(rational, psi).coeffs
                ]
                if j:
                    with pytest.raises(ValueError):
                        psi.exponent_at(j - 1)


def test_from_character_values_accepts_values_above_level_n():
    rng = random.Random(23)
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        m = p**n
        x = GroupRingElem(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)])
        reps = character_orbits(p, n)[0]
        for extra in (1, 2):
            values = [_value(x, psi, level=n + extra) for psi in reps]
            assert all(v.j == n + extra for v in values)
            # read on the orbit's own power basis, not as coordinates at level n + extra
            assert from_character_values(p, n, [_orbit_coordinates(p, j, v) for j, v in enumerate(values)]) == x
            with pytest.raises(ValueError):
                from_character_values(p, n, [v.coeffs for v in values])
        # the coordinates of an orbit may come from any iterable
        assert from_character_values(p, n, [iter(_value(x, psi).coeffs) for psi in reps]) == x


def test_subgroup_exponent():
    for m, d, h in [(8, 1, 0), (8, 2, 1), (8, 8, 3), (27, 9, 2), (1, 1, 0)]:
        assert subgroup_exponent(m, d) == h
    for m, d in [(8, 0), (8, -2), (8, 16), (9, 2), (8, 3)]:
        with pytest.raises(ValueError):
            subgroup_exponent(m, d)


def test_quotient_and_restriction():
    x = GroupRingElem(4, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    q = x.project_to_quotient(2)
    assert q == GroupRingElem(2, (Fraction(4), Fraction(6)))
    r = x.restrict_to_subgroup(2)
    assert r == GroupRingElem(2, (Fraction(1), Fraction(3)))


def test_as_text():
    e2 = groupring_idempotent(4, 2)
    assert e2.as_text() == "1/2*[0] + 1/2*[2]"
    assert GroupRingElem.zero(3).as_text() == "0"


def test_character_orbits_are_galois_orbits():
    for p, n in [(2, 0), (2, 3), (3, 2), (5, 1)]:
        reps, orbits = character_orbits(p, n)
        assert [psi.order_exponent for psi in reps] == list(range(n + 1))
        assert len(orbits) == len(set(orbits)) == p**n
        for psi, (j, u) in zip(characters(p, n), orbits):
            assert psi.order_exponent == j
            for x in range(p**n):
                element = GroupRingElem.basis(p**n, x)
                assert _value(element, psi) == _value(element, reps[j]).galois(u)
