import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graphzeta.cyclo import CycloNum, zeta
from graphzeta.errors import CertificationError
from graphzeta import linalg
from graphzeta.groupring import GroupRingElem, character_idempotent, groupring_idempotent
from graphzeta.linalg import (
    _det_crt,
    _det_mod_batch,
    _modular_primes,
    det_bareiss_int,
    det_cofactor,
    det_commutative,
    det_fraction,
    det_int,
    det_norm_cyclotomic,
    det_poly_int,
    is_probable_prime,
)
from graphzeta.poly import UniPoly


def test_primality():
    primes = [2, 3, 5, 7, 97, 2147483647]
    for p in primes:
        assert is_probable_prime(p)
    for c in [0, 1, 4, 91, 561, 2147483647 - 1]:
        assert not is_probable_prime(c)


def test_small_dets_agree_across_routes():
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(20):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            a = det_bareiss_int(m)
            assert a == det_cofactor(m)
            assert a == _det_crt(m)


def test_large_det_crt_matches_bareiss():
    rng = random.Random(4)
    for n in (30, 35):
        m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert det_bareiss_int(m) == _det_crt(m)


def test_identity_and_empty():
    assert det_commutative([]) == 1
    assert det_commutative([[1, 0], [0, 1]]) == 1
    assert det_commutative([[2, 1], [1, 2]]) == 3


def test_det_fraction():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_fraction(m) == Fraction(1, 14) - Fraction(1, 15)
    # random rational matrices, through the row clearing shared with the polynomial route
    rng = random.Random(47)

    def entry():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 12))

    for n in range(1, 7):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        m[0][0] = rng.randint(-3, 3)  # a bare int among the fractions
        assert det_fraction(m) == det_cofactor(m) == det_commutative(m)
        m[rng.randrange(n)] = [Fraction(0)] * n
        assert det_fraction(m) == 0
    assert det_fraction([]) == 1


def test_det_multiplicative_spot_check():
    rng = random.Random(8)
    for _ in range(10):
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert det_int(ab) == det_int(a) * det_int(b)


def test_det_cyclo_matrix():
    z = zeta(2, 2)
    m = [[z, 1], [1, z]]
    assert det_commutative(m) == z * z - 1


def test_det_poly_interpolation_matches_cofactor():
    rng = random.Random(13)
    # integer polynomial entries take the multimodular route; compare with direct cofactor
    n = 7
    mat = [
        [UniPoly([rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(n)]
        for _ in range(n)
    ]
    by_interp = det_commutative(mat)
    by_cof = det_cofactor(mat)
    assert by_interp == by_cof


def test_det_groupring_reassembly_vs_cofactor():
    rng = random.Random(17)
    for m_ord, dim in [(4, 2), (4, 3), (8, 2)]:
        mat = [
            [
                GroupRingElem(m_ord, tuple(Fraction(rng.randint(-2, 2)) for _ in range(m_ord)))
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
        assert det_commutative(mat) == det_cofactor(mat)


def test_det_groupring_poly_example():
    # I - A u + Q u^2 for the two-vertex running example over Q[Z/4][u]:
    # A = [[0, N_G], [N_G/2, 0]], Q = diag(1, 3 e2)
    m = 4
    e2 = groupring_idempotent(m, 2)
    full_norm = GroupRingElem.from_dict(m, {0: 1, 1: 1, 2: 1, 3: 1})
    one = GroupRingElem.one(m)
    zero = GroupRingElem.zero(m)
    rows = [
        [UniPoly([one, zero, one]), UniPoly([zero, -full_norm, zero])],
        [UniPoly([zero, -(Fraction(1, 2) * full_norm), zero]), UniPoly([one, zero, 3 * e2])],
    ]
    det = det_commutative(rows)
    expected_u2 = GroupRingElem(
        m, (Fraction(1, 2), Fraction(-2), Fraction(-1, 2), Fraction(-2))
    )
    expected_u4 = GroupRingElem(m, (Fraction(3, 2), 0, Fraction(3, 2), 0))
    assert det.coefficient(0) == one
    assert det.coefficient(2) == expected_u2
    assert det.coefficient(4) == expected_u4


def test_det_truncseries_entries():
    from graphzeta.poly import TruncSeries

    one = TruncSeries([1], 5)
    u = TruncSeries([0, 1], 5)
    d = det_commutative([[one, u], [u, one]])
    assert d == TruncSeries([1, 0, -1], 5)


def test_det_multiplicative_cyclo():
    import random

    rng = random.Random(21)
    z = zeta(3, 1)
    for _ in range(5):
        a = [[rng.randint(-2, 2) + rng.randint(-2, 2) * z for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(-2, 2) + rng.randint(-2, 2) * z for _ in range(2)] for _ in range(2)]
        ab = [
            [a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)
        ]
        assert det_commutative(ab) == det_commutative(a) * det_commutative(b)


def test_batched_modular_det_matches_bareiss():
    rng = random.Random(29)
    primes = [2147483647, 2147483629, 65537, 7]
    for k in range(1, 6):
        mats = [
            [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(k)] for _ in range(k)]
            for _ in range(40)
        ]
        mats.append([[0] * k for _ in range(k)])
        mats.append([[1] * k for _ in range(k)])
        moduli = [primes[i % len(primes)] for i in range(len(mats))]
        num, den = _det_mod_batch(np.array(mats, dtype=np.int64), np.array(moduli))
        dets = [int(a) * pow(int(b), -1, q) % q for a, b, q in zip(num, den, moduli)]
        assert dets == [det_bareiss_int(m) % q for m, q in zip(mats, moduli)]


def test_modular_primes_are_one_mod_m():
    for m in (1, 2, 3, 8, 81, 4096):
        primes = _modular_primes(2**200, m)
        assert math.prod(primes) > 2**200
        assert all(q < 2**31 and (q - 1) % m == 0 and is_probable_prime(q) for q in primes)
        assert primes == sorted(set(primes), reverse=True)
    assert _modular_primes(2**62) == [2147483647, 2147483629, 2147483587]
    with pytest.raises(CertificationError, match="too few primes"):
        _modular_primes(2 ** (2**17), 2**17)


def test_det_norm_cyclotomic_matches_cyclonum_norm():
    rng = random.Random(37)
    for p, j in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        z = zeta(p, j)
        for k in (1, 2, 3):
            for _ in range(4):
                terms = [
                    (rng.randrange(k), rng.randrange(k), rng.randint(-5, 20), rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 3 * k))
                ]
                m = [[CycloNum.rational(p, 0, j) for _ in range(k)] for _ in range(k)]
                for r, c, e, coeff in terms:
                    m[r][c] = m[r][c] + coeff * z ** (e % p**j)
                assert det_norm_cyclotomic(k, terms, p, j) == det_commutative(m).norm()
    assert det_norm_cyclotomic(0, [], 2, 3) == 1


def _random_poly_matrix(rng, n, scale, coeff=int):
    # entries: zero (an int or the zero UniPoly), a bare constant, or a UniPoly of degree <= 3
    def entry():
        kind = rng.random()
        if kind < 0.25:
            return rng.choice([0, UniPoly()])
        if kind < 0.35:
            return coeff(rng.randint(-scale, scale))
        return UniPoly([coeff(rng.randint(-scale, scale)) for _ in range(rng.randint(1, 4))])

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_poly_int_matches_cofactor():
    rng = random.Random(41)
    for n in range(1, 9):
        for scale in (3, 10**12, 10**25):
            if scale == 10**25 and n > 3:
                continue  # coefficients past int64 take the object-dtype reduction
            m = _random_poly_matrix(rng, n, scale)
            expected = det_cofactor(m)
            det = det_poly_int(m)
            assert det == expected and all(type(c) is int for c in det.coeffs)
            # a row times (u - s) makes the determinant vanish at the node s
            s, r = rng.randint(0, 3), rng.randrange(n)
            m[r] = [UniPoly([-s, 1]) * x for x in m[r]]
            det = det_poly_int(m)
            assert det == det_cofactor(m) and det(s) == 0
        m[rng.randrange(n)] = [0] * n
        assert det_poly_int(m) == UniPoly()
    assert det_poly_int([]) == UniPoly.constant(1)


def test_det_poly_int_singular_at_some_nodes():
    # f = u (u - 2) (u - 5) times a unimodular matrix: det f^2 vanishes at three of the nodes 0..6
    f = UniPoly([0, 10, -7, 1])
    m = [[f, f * 3], [f * 2, f * 7]]
    assert det_poly_int(m) == f * f


def test_det_commutative_rational_polys_match_cofactor():
    rng = random.Random(43)
    for n in range(1, 7):
        m = _random_poly_matrix(rng, n, 10**6, coeff=lambda c: Fraction(c, rng.randint(1, 12)))
        m[0][0] = UniPoly([Fraction(1, 3), 2])  # at least one polynomial entry
        det = det_commutative(m)
        assert det == det_cofactor(m)
        assert all(isinstance(c, Fraction) for c in det.coeffs)


def _twelve_base_is_prime(n):
    # The Miller-Rabin test with the first twelve primes as bases, kept as the oracle.
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_three_base_primality_matches_twelve_bases():
    for n in range(-2, 30_000):
        assert is_probable_prime(n) == _twelve_base_is_prime(n), n
    # every candidate _modular_primes tries for m = 2^j, in the top 300 steps below 2^31
    for j in range(1, 21):
        step = 2**j
        top = (2**31 - 2) // step * step + 1
        for q in range(top, top - 300 * step, -step):
            assert is_probable_prime(q) == _twelve_base_is_prime(q), q
    assert is_probable_prime(61) and is_probable_prime(2**31 - 1)
    assert not is_probable_prime(61 * 61)


def test_strong_pseudoprimes_near_the_three_base_bound():
    # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5, 7; base 61 rejects it.
    assert not is_probable_prime(3215031751)
    # 4759123141 = 48781 * 97561 passes 2, 7 and 61, so it needs the twelve bases.
    assert 4759123141 == linalg._THREE_BASE_BOUND == 48781 * 97561
    assert linalg._strong_probable_prime(4759123141, (2, 7, 61))
    assert not is_probable_prime(4759123141)
    assert is_probable_prime(4759123141 + 2) == _twelve_base_is_prime(4759123141 + 2)


def _rational_cyclo_matrix(rng, n, p, j):
    def embed(c):
        return CycloNum.rational(p, Fraction(c, rng.randint(1, 5)), j)

    m = _random_poly_matrix(rng, n, 9, coeff=embed)
    m[0][0] = UniPoly([embed(1), embed(rng.randint(-9, 9))])  # at least one CycloNum
    return m


def test_rational_cyclo_matrix_takes_the_integer_kernel(monkeypatch):
    calls = []
    original = linalg._det_poly_rational

    def recorder(rows):
        calls.append(len(rows))
        return original(rows)

    def cofactor(m):
        # det_cofactor over the same matrix written with Fraction coefficients
        # (cofactor expansion in CycloNum arithmetic is slow at dimension 8)
        def rational(c):
            return c.to_rational() if isinstance(c, CycloNum) else c

        return det_cofactor(
            [[x.map_coeffs(rational) if isinstance(x, UniPoly) else rational(x) for x in row] for row in m]
        )

    monkeypatch.setattr(linalg, "_det_poly_rational", recorder)
    rng = random.Random(47)
    for p, j in [(2, 1), (3, 0)]:
        for n in range(1, 9):
            m = _rational_cyclo_matrix(rng, n, p, j)
            det = linalg._det_poly_cyclo(m)
            assert det == cofactor(m)
            if n <= 4:
                assert det == det_cofactor(m)
            assert all(isinstance(c, CycloNum) and (c.p, c.j) == (p, j) for c in det.coeffs)
            # a row times (u - s) makes the determinant vanish at the node s
            s, r = rng.randint(0, 3), rng.randrange(n)
            m[r] = [UniPoly([-s, 1]) * x for x in m[r]]
            det = linalg._det_poly_cyclo(m)
            assert det == cofactor(m) and det(s) == 0
            if n > 1:
                m[r] = [0] * n
                assert linalg._det_poly_cyclo(m) == UniPoly()
    assert len(calls) == 2 * 8 * 2 + 2 * 7
    # a genuinely cyclotomic matrix keeps the cyclotomic route
    calls.clear()
    z = zeta(3, 1)
    m = [[UniPoly([1, z]), UniPoly([0, 2])], [UniPoly([z * z, 1]), UniPoly([1, 0, z])]]
    assert linalg._det_poly_cyclo(m) == det_cofactor(m)
    assert calls == []


def test_det_groupring_orbits_over_z9_and_cyclotomic_refusal():
    rng = random.Random(53)
    for m_ord, dim in [(9, 2), (9, 3), (27, 2)]:
        mat = [
            [
                GroupRingElem(m_ord, tuple(Fraction(rng.randint(-2, 2)) for _ in range(m_ord)))
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
        assert det_commutative(mat) == det_cofactor(mat)
    # sigma_u would move cyclotomic group-ring coefficients, so they are refused
    e_psi = character_idempotent(2, 2, 1)
    with pytest.raises(ValueError, match="rational group-ring coefficients"):
        det_commutative([[UniPoly([GroupRingElem.one(4), e_psi])]])
