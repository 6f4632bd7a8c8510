import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphzeta.cyclo import CycloNum, zeta
from graphzeta.errors import CertificationError
from graphzeta import linalg
from graphzeta.groupring import GroupRingElem, character_idempotent, groupring_idempotent
from graphzeta.linalg import (
    _det_crt,
    _det_mod_batch,
    _modular_primes,
    det_bareiss_int,
    det_cyclotomic_poly,
    det_groupring_poly,
    det_int,
    det_norm_cyclotomic,
    det_poly_int,
    is_probable_prime,
)
from graphzeta.poly import UniPoly
from oracles import det_cofactor


def _cyclo_terms(m):
    # the terms (r, c, exp, d, coeff) of a matrix of ints, CycloNum with integer
    # coordinates, or UniPoly over them
    return [
        (r, c, e, d, int(v))
        for r, row in enumerate(m)
        for c, x in enumerate(row)
        for d, a in enumerate(x.coeffs if isinstance(x, UniPoly) else (x,))
        for e, v in enumerate(a.coeffs if isinstance(a, CycloNum) else (a,))
        if v
    ]


def _det_cyclo(m, p, j):
    det = det_cyclotomic_poly(len(m), _cyclo_terms(m), p, j)
    return UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det])


def _det_rational(m):
    # a rational matrix as a matrix over Q[Z/1Z] = Q, the group ring of the trivial group
    def entry(x):
        coeffs = x.coeffs if isinstance(x, UniPoly) else (x,)
        return UniPoly(GroupRingElem(1, (Fraction(c),)) for c in coeffs)

    det = det_groupring_poly([[entry(x) for x in row] for row in m], 1)
    return UniPoly(c.coeffs[0] for c in det.coeffs)


def _det_groupring(m, m_ord):
    det = det_groupring_poly([[UniPoly.constant(x) for x in row] for row in m], m_ord)
    return det.coefficient(0)


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
    assert det_int([]) == 1
    assert det_int([[1, 0], [0, 1]]) == 1
    assert det_int([[2, 1], [1, 2]]) == 3
    assert det_poly_int([]) == UniPoly.constant(1)
    assert det_cyclotomic_poly(0, [], 3, 2) == [[1, 0, 0, 0, 0, 0]]
    assert det_cyclotomic_poly(2, [(0, 0, 0, 0, 1), (1, 1, 0, 0, 1)], 2, 0) == [[1]]
    assert det_groupring_poly([], 4) == UniPoly.constant(GroupRingElem.one(4))


def test_det_fraction():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert _det_rational(m) == Fraction(1, 14) - Fraction(1, 15)
    # random rational matrices, through the row clearing shared with the polynomial route
    rng = random.Random(47)

    def entry():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 12))

    for n in range(1, 7):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        m[0][0] = rng.randint(-3, 3)  # a bare int among the fractions
        assert _det_rational(m) == det_cofactor(m)
        m[rng.randrange(n)] = [Fraction(0)] * n
        assert _det_rational(m) == 0
    assert _det_rational([]) == 1


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
    assert _det_cyclo(m, 2, 2) == z * z - 1


def test_det_poly_interpolation_matches_cofactor():
    rng = random.Random(13)
    # integer polynomial entries take the multimodular route; compare with direct cofactor
    n = 7
    mat = [
        [UniPoly([rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(n)]
        for _ in range(n)
    ]
    by_interp = det_poly_int(mat)
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
        assert _det_groupring(mat, m_ord) == det_cofactor(mat)


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
    det = det_groupring_poly(rows, m)
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
    d = det_cofactor([[one, u], [u, one]])
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
        assert _det_cyclo(ab, 3, 1) == _det_cyclo(a, 3, 1) * _det_cyclo(b, 3, 1)


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
                det = CycloNum.rational(p, 0, j) + det_cofactor(m)  # a CycloNum even when 0
                assert det_norm_cyclotomic(k, terms, p, j) == det.norm()
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
    # rational polynomial matrices: row clearing in det_groupring_poly over Q[Z/1Z]
    rng = random.Random(43)
    for n in range(1, 7):
        m = _random_poly_matrix(rng, n, 10**6, coeff=lambda c: Fraction(c, rng.randint(1, 12)))
        m[0][0] = UniPoly([Fraction(1, 3), 2])  # at least one polynomial entry
        det = _det_rational(m)
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


def test_rational_cyclo_matrix_takes_the_integer_kernel(monkeypatch):
    # A matrix over Z written at level j: det_cyclotomic_poly gives det_poly_int's
    # coefficients as first coordinates, zero elsewhere, from one batch of phi (D + 1)
    # matrices per prime; at j = 0 that is det_poly_int's own batch of D + 1 points.
    batches = []
    original = linalg._det_mod_batch

    def recorder(mats, moduli):
        batches.append(len(mats))
        return original(mats, moduli)

    rng = random.Random(47)
    for p, j in [(2, 1), (3, 0), (3, 2)]:
        phi = (p - 1) * p ** (j - 1) if j else 1
        for n in range(1, 9):
            m = _random_poly_matrix(rng, n, 9)
            m[0][0] = UniPoly([1, rng.randint(-9, 9)])  # at least one polynomial entry
            # a row times (u - s) makes the determinant vanish at the node s
            s, r = rng.randint(0, 3), rng.randrange(n)
            m[r] = [UniPoly([-s, 1]) * x for x in m[r]]
            want, terms = det_poly_int(m), _cyclo_terms(m)
            monkeypatch.setattr(linalg, "_det_mod_batch", recorder)
            batches.clear()
            det = det_cyclotomic_poly(n, terms, p, j)
            monkeypatch.undo()
            degree = sum(max((t[3] for t in terms if t[0] == row), default=0) for row in range(n))
            assert batches and batches == [phi * (degree + 1)] * len(batches)
            assert all(not any(x[1:]) for x in det) and UniPoly(x[0] for x in det) == want
            assert want(s) == 0 and want == det_cofactor(m)
            if n > 1:
                m[r] = [0] * n
                assert _det_cyclo(m, p, j) == UniPoly()


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
        assert _det_groupring(mat, m_ord) == det_cofactor(mat)
    # sigma_u would move cyclotomic group-ring coefficients, so they are refused
    e_psi = character_idempotent(2, 2, 1)
    with pytest.raises(ValueError, match="rational group-ring coefficients"):
        det_groupring_poly([[UniPoly([GroupRingElem.one(4), e_psi])]], 4)


@st.composite
def _cyclotomic_poly_matrix(draw):
    # (p, j, k, terms): every row holds terms with exponents in [-p^j, 2 p^j), u-degree
    # <= 2 and coefficients up to 10^12 (B past 2^31, so several CRT primes); then
    # optionally one row is zeroed and one row is multiplied by (u - s), which makes the
    # matrix singular at the interpolation node s
    p, j, k = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    if k == 0:
        return p, j, k, []
    scale = draw(st.sampled_from([10**12, 10**3, 1]))
    index = st.integers(0, k - 1)
    entry = st.tuples(
        index, st.integers(-(p**j), 2 * p**j - 1), st.integers(0, 2), st.integers(-scale, scale)
    )
    rows = [draw(st.lists(entry, min_size=1, max_size=3 * k)) for _ in range(k)]
    terms = [(r, c, e, d, a) for r, row in enumerate(rows) for c, e, d, a in row]
    if draw(st.booleans()):
        r = draw(index)
        terms = [t for t in terms if t[0] != r]
    if draw(st.booleans()):
        r, s = draw(index), draw(st.integers(0, 3))
        times_u = [(r, c, e, d + 1, a) for r_, c, e, d, a in terms if r_ == r]
        minus_s = [(r, c, e, d, -s * a) for r_, c, e, d, a in terms if r_ == r]
        terms = [t for t in terms if t[0] != r] + times_u + minus_s
    return p, j, k, terms


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
# a 3 x 3 matrix over Z[zeta_25] with coefficients near 10^12: B near 2^124, five CRT primes
@example((5, 2, 3, [(r, c, r + 2 * c, (r + c) % 3, 10**12 - r) for r in range(3) for c in range(3)]))
@given(_cyclotomic_poly_matrix())
def test_det_cyclotomic_poly_matches_cofactor_in_cyclonum(case):
    p, j, k, terms = case
    m = [[UniPoly() for _ in range(k)] for _ in range(k)]
    for r, c, e, d, coeff in terms:
        m[r][c] = m[r][c] + UniPoly.monomial(d, CycloNum.from_monomials(p, j, [(e, coeff)]))
    det = det_cyclotomic_poly(k, terms, p, j)
    phi = (p - 1) * p ** (j - 1) if j else 1
    assert all(len(x) == phi and all(type(a) is int for a in x) for x in det)
    assert UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det]) == det_cofactor(m)
