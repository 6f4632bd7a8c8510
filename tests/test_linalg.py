import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphzeta.errors import CertificationError
from graphzeta import linalg
from graphzeta.graphs import SerreGraph, ihara_zeta_reciprocal
from graphzeta.groupring import GroupRingElem, groupring_idempotent
from graphzeta.linalg import (
    _charpoly_mod,
    _crt_signed,
    _modular_primes,
    det_bareiss_int,
    det_cyclotomic_poly,
    det_groupring_poly,
    det_int,
    is_probable_prime,
)
from graphzeta.cyclo import coordinate_norm, euler_phi_prime_power
from graphzeta.poly import UniPoly
from oracles import CycloNum, character_idempotent, det_cofactor, galois_conjugate, zeta


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


def _det_norms(problems, p):
    # for each problem (k, terms, j), the norm to Q(u) of its determinant: the kernel's
    # coordinates, then one Graeffe chain (at j = 0 the integer determinant itself)
    return [coordinate_norm(rows, p, j) for rows, (_, _, j) in zip(det_cyclotomic_poly(problems, p), problems)]


def _det_cyclo(m, p, j):
    det = det_cyclotomic_poly([(len(m), _cyclo_terms(m), j)], p)[0]
    return UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det])


def _det_poly_int(m):
    # a matrix of ints and integer UniPoly through the integer kernel: the j = 0 norm
    # is the integer determinant; p plays no role there, so pass 2
    return UniPoly(_det_norms([(len(m), _cyclo_terms(m), 0)], 2)[0])


def _groupring_terms(m):
    # the terms (r, c, s, d, coeff) of a matrix of GroupRingElem or UniPoly over them
    return [
        (r, c, s, d, a)
        for r, row in enumerate(m)
        for c, x in enumerate(row)
        for d, y in enumerate(x.coeffs if isinstance(x, UniPoly) else (x,))
        for s, a in enumerate(y.coeffs)
        if a != 0
    ]


def _det_groupring_poly(m, m_ord):
    return det_groupring_poly(len(m), _groupring_terms(m), m_ord)


def _det_rational(m):
    # a rational matrix as a matrix over Q[Z/1Z] = Q, the group ring of the trivial group
    def entry(x):
        coeffs = x.coeffs if isinstance(x, UniPoly) else (x,)
        return UniPoly(GroupRingElem(1, (Fraction(c),)) for c in coeffs)

    det = _det_groupring_poly([[entry(x) for x in row] for row in m], 1)
    return UniPoly(c.coeffs[0] for c in det.coeffs)


def _det_groupring(m, m_ord):
    return _det_groupring_poly(m, m_ord).coefficient(0)


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
            assert a == det_int(m)


def test_large_det_crt_matches_bareiss():
    rng = random.Random(4)
    for n in (30, 35):
        m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert det_bareiss_int(m) == det_int(m)
        # singular, and with a zero row: the multimodular route above the Bareiss size
        assert det_int(m[:-1] + [m[0]]) == 0
        assert det_int(m[:-1] + [[0] * n]) == 0


def test_identity_and_empty():
    assert det_int([]) == 1
    assert det_int([[1, 0], [0, 1]]) == 1
    assert det_int([[2, 1], [1, 2]]) == 3
    assert _det_poly_int([]) == UniPoly.constant(1)
    assert det_cyclotomic_poly([(0, [], 2)], 3) == [[[1, 0, 0, 0, 0, 0]]]
    assert det_cyclotomic_poly([(2, [(0, 0, 0, 0, 1), (1, 1, 0, 0, 1)], 0)], 2) == [[[1]]]
    assert _det_groupring_poly([], 4) == UniPoly.constant(GroupRingElem.one(4))


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
    # a 7 x 7 integer polynomial matrix, below the size switch: the Kronecker route against the cofactor
    n = 7
    mat = [
        [UniPoly([rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(n)]
        for _ in range(n)
    ]
    by_interp = _det_poly_int(mat)
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
    det = _det_groupring_poly(rows, m)
    expected_u2 = GroupRingElem(
        m, (Fraction(1, 2), Fraction(-2), Fraction(-1, 2), Fraction(-2))
    )
    expected_u4 = GroupRingElem(m, (Fraction(3, 2), 0, Fraction(3, 2), 0))
    assert det.coefficient(0) == one
    assert det.coefficient(2) == expected_u2
    assert det.coefficient(4) == expected_u4


def test_det_unipoly_entries():
    one = UniPoly.constant(1)
    u = UniPoly.monomial(1)
    d = det_cofactor([[one, u], [u, one]])
    assert d == UniPoly([1, 0, -1])


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


def _charpoly_by_cofactor(a, q):
    # det(x I - A) mod q by cofactor expansion over Z[x], constant coefficient first
    k = len(a)
    rows = [[UniPoly([-a[r][c], int(r == c)]) for c in range(k)] for r in range(k)]
    det = UniPoly.constant(1) * det_cofactor(rows)
    return [det.coefficient(i) % q for i in range(k + 1)]


def test_batched_charpoly_matches_cofactor():
    rng = random.Random(29)
    primes = [2147483647, 2147483629, 65537, 7]
    for k in range(1, 7):
        mats = [
            [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(k)] for _ in range(k)]
            for _ in range(40)
        ]
        mats.append([[0] * k for _ in range(k)])
        mats.append([[1] * k for _ in range(k)])
        for q in primes:
            want = [_charpoly_by_cofactor(a, q) for a in mats]
            assert _charpoly_mod(np.array(mats, dtype=np.int64), q).tolist() == want
    # one batch: a pivot in place, a row swap (a zero below the diagonal, a nonzero under it), a
    # zero subdiagonal entry in the Hessenberg form (two diagonal blocks), the zero matrix, all ones
    in_place = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 1, 2, 3], [4, 5, 6, 7]]
    swap = [[1, 2, 3, 4], [0, 6, 7, 8], [9, 1, 2, 3], [4, 5, 6, 7]]
    blocks = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, -8]]
    batch = [in_place, swap, blocks, [[0] * 4] * 4, [[1] * 4] * 4, swap, in_place]
    for q in primes:
        want = [_charpoly_by_cofactor(a, q) for a in batch]
        assert _charpoly_mod(np.array(batch, dtype=np.int64), q).tolist() == want


def test_modular_primes_are_one_mod_m():
    for m in (1, 2, 3, 8, 81, 4096):
        primes = _modular_primes(2**200, m)
        assert math.prod(primes) > 2**200
        assert all(q < 2**31 and (q - 1) % m == 0 and is_probable_prime(q) for q in primes)
        assert primes == sorted(set(primes), reverse=True)
    assert _modular_primes(2**62) == [2147483647, 2147483629, 2147483587]
    with pytest.raises(CertificationError, match="too few primes"):
        _modular_primes(2 ** (2**17), 2**17)


def test_modular_primes_match_a_fresh_search():
    # the same primes as a fresh search from the top, whatever the calls before
    m, step = 3**4, 2 * 3**4
    candidates = range((2**31 - 2) // step * step + 1, 0, -step)
    fresh = list(itertools.islice((q for q in candidates if is_probable_prime(q)), 40))
    first = _modular_primes(2**300, m)
    assert _modular_primes(2**300, m) == first == fresh[: len(first)]
    assert _modular_primes(2**40, m) == fresh[:2]
    assert _modular_primes(math.prod(fresh[:39]), m) == fresh[:40]
    # running out leaves later searches unchanged
    with pytest.raises(CertificationError, match="too few primes"):
        _modular_primes(2 ** (2**17), 2**17)
    assert _modular_primes(2**62, 2**17) == _modular_primes(2**62, 2**17)
    with pytest.raises(CertificationError, match="too few primes"):
        _modular_primes(2 ** (2**17), 2**17)


def _plain_crt(residues, primes):
    # the balanced integer of the residues by the textbook sum over the primes
    m = math.prod(primes)
    x = sum(r * (m // q) * pow(m // q, -1, q) for r, q in zip(residues, primes)) % m
    return x - m if x > m // 2 else x


def test_crt_signed_lifts_every_entry_under_the_product_of_the_primes():
    q = _modular_primes(1)[0]
    assert _crt_signed(np.array([[0, 1, q // 2, q // 2 + 1, q - 1]]), [q]).tolist() == [0, 1, q // 2, -(q // 2), -1]
    for primes in (_modular_primes(2**40), _modular_primes(2**150)):
        assert len(primes) in (2, 5)
        half = (math.prod(primes) - 1) // 2
        values = [0, 1, -1, half, -half, half - 7, 7 - half] + ([2**63 + 1, -(2**64)] if half > 2**64 else [])
        lifted = _crt_signed(np.array([[x % q for x in values] for q in primes], dtype=np.int64), primes)
        assert lifted.tolist() == values and all(type(x) is int for x in lifted)
    rng = random.Random(29)
    for size in range(1, 6):
        primes = _modular_primes(2 ** (31 * size - 31), rng.choice([1, 8, 81]))
        assert len(primes) == size
        residues = [[rng.randrange(q) for _ in range(20)] for q in primes]
        lifted = _crt_signed(np.array(residues, dtype=np.int64), primes).tolist()
        assert lifted == [_plain_crt(column, primes) for column in zip(*residues)]


def test_det_norm_cyclotomic_matches_cyclonum_norm():
    rng = random.Random(37)
    for p, j in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        z = zeta(p, j)
        for k in (1, 2, 3):
            for _ in range(4):
                terms = [
                    (rng.randrange(k), rng.randrange(k), rng.randint(-5, 20), 0, rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 3 * k))
                ]
                m = [[CycloNum.rational(p, 0, j) for _ in range(k)] for _ in range(k)]
                for r, c, e, _, coeff in terms:
                    m[r][c] = m[r][c] + coeff * z ** (e % p**j)
                det = CycloNum.rational(p, 0, j) + det_cofactor(m)  # a CycloNum even when 0
                assert _det_norms([(k, terms, j)], p) == [[det.norm()]]
    assert _det_norms([(0, [], 3)], 2) == [[1]]


def _norm_by_conjugates(p, j, k, terms) -> UniPoly:
    # prod over the units u mod p^j of sigma_u(det M), multiplied out in CycloNum
    m = [[UniPoly() for _ in range(k)] for _ in range(k)]
    for r, c, e, d, coeff in terms:
        m[r][c] = m[r][c] + UniPoly.monomial(d, CycloNum.from_monomials(p, j, [(e, coeff)]))
    det = UniPoly.constant(CycloNum.rational(p, 1, j)) * det_cofactor(m)
    norm = UniPoly.constant(CycloNum.rational(p, 1, j))
    for u in range(1, p**j + 1):
        if u % p or j == 0:
            norm = norm * galois_conjugate(det, u)
            if j == 0:
                break
    # a coefficient whose products were all zero stays the integer 0
    assert all(c.is_rational() for c in norm.coeffs if isinstance(c, CycloNum))
    return norm.map_coeffs(lambda c: c.to_rational() if isinstance(c, CycloNum) else c)


@pytest.mark.parametrize(
    "p, j",
    [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2)],
)
def test_det_norm_cyclotomic_matches_product_of_conjugates(p, j):
    # u-degree <= 2; k = 0, a zero row and u-free terms included; coefficients up to 10^6
    # need several CRT primes for the coordinates and wide packed digits for the norm
    rng = random.Random(100 * p + j)
    order, phi = p**j, (p - 1) * p ** (j - 1) if j else 1
    cases = [(0, [])]
    for k in (1, 2, 3) if phi <= 6 else (1, 2):
        for scale in (1, 9, 10**6):
            terms = [
                (rng.randrange(k), rng.randrange(k), rng.randint(-order, 2 * order))
                + (rng.randint(0, 2), rng.randint(-scale, scale))
                for _ in range(rng.randint(1, 3 * k))
            ]
            cases += [(k, terms), (k, [(r, c, e, 0, a) for r, c, e, _, a in terms])]
        cases.append((k, [t for t in terms if t[0] != k - 1]))  # row k - 1 is zero
    for k, terms in cases:
        norm = _det_norms([(k, terms, j)], p)[0]
        assert all(type(a) is int for a in norm)
        assert UniPoly(norm) == _norm_by_conjugates(p, j, k, terms)


def test_det_norm_cyclotomic_at_phi_100():
    # p = 5, j = 3: a u-free 1 x 1 matrix against CycloNum.norm, the product of its 100 conjugates
    terms = [(0, 0, 0, 0, 3), (0, 0, 7, 0, -2), (0, 0, 40, 0, 5), (0, 0, 126, 0, 10**6)]
    x = CycloNum.from_monomials(5, 3, [(e, a) for _, _, e, _, a in terms])
    assert _det_norms([(1, terms, 3)], 5) == [[x.norm()]]


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
            det = _det_poly_int(m)
            assert det == expected and all(type(c) is int for c in det.coeffs)
            # a row times (u - s) makes the determinant vanish at the node s
            s, r = rng.randint(0, 3), rng.randrange(n)
            m[r] = [UniPoly([-s, 1]) * x for x in m[r]]
            det = _det_poly_int(m)
            assert det == det_cofactor(m) and det(s) == 0
        m[rng.randrange(n)] = [0] * n
        assert _det_poly_int(m) == UniPoly()
    assert _det_poly_int([]) == UniPoly.constant(1)


def test_det_poly_int_singular_at_some_nodes():
    # f = u (u - 2) (u - 5) times a unimodular matrix: det f^2 vanishes at three of the nodes 0..6
    f = UniPoly([0, 10, -7, 1])
    m = [[f, f * 3], [f * 2, f * 7]]
    assert _det_poly_int(m) == f * f


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
    # A matrix over Z written at level j: det_cyclotomic_poly gives the coefficients of
    # its integer determinant (the j = 0 norm) as first coordinates, zero elsewhere.  Below
    # the size switch (`_kronecker_wins`) that is one Bareiss elimination of the
    # Kronecker-substituted matrix, with no characteristic polynomial; above it, a general
    # polynomial matrix takes that elimination too, and a three-term matrix S + A u + B u^2,
    # S diagonal, one batch of phi characteristic polynomials per prime and no elimination.
    # All three routes occur at j >= 1.  At p^j = 2 the problem is an integer one (zeta_2 = -1)
    # and takes the j = 0 rule.
    batches, eliminations, routes = [], [], set()
    original, bareiss = linalg._charpoly_mod, linalg.det_bareiss_int

    def recorder(mats, q):
        batches.append(len(mats))
        return original(mats, q)

    def bareiss_recorder(rows):
        eliminations.append(len(rows))
        return bareiss(rows)

    def three_term(n):
        # S + A u + B u^2 with S a diagonal of nonzero integers
        def entry(diagonal):
            return UniPoly([rng.choice([-2, -1, 1, 3]) if diagonal else 0, rng.randint(-9, 9), rng.randint(-9, 9)])

        return [[entry(r == c) for c in range(n)] for r in range(n)]

    rng = random.Random(47)
    for p, j in [(2, 1), (3, 0), (3, 2)]:
        phi = (p - 1) * p ** (j - 1) if j else 1
        for n in range(1, 9):
            m = _random_poly_matrix(rng, n, 9)
            m[0][0] = UniPoly([1, rng.randint(-9, 9)])  # at least one polynomial entry
            # a row times (u - s) makes the determinant vanish at u = s
            s, r = rng.randint(0, 3), rng.randrange(n)
            m[r] = [UniPoly([-s, 1]) * x for x in m[r]]
            for matrix, bass in ((m, False), (three_term(n), True)):
                want, terms = _det_poly_int(matrix), _cyclo_terms(matrix)
                monkeypatch.setattr(linalg, "_charpoly_mod", recorder)
                monkeypatch.setattr(linalg, "det_bareiss_int", bareiss_recorder)
                batches.clear()
                eliminations.clear()
                det = det_cyclotomic_poly([(n, terms, j)], p)[0]
                monkeypatch.undo()
                folded = 0 if p**j == 2 else j
                kronecker = linalg._kronecker_wins(n, folded, p, *linalg._row_bounds(n, terms))
                if kronecker or not bass:
                    assert batches == [] and eliminations == [n]
                else:
                    assert batches and batches == [phi] * len(batches) and eliminations == []
                routes.add((folded > 0, kronecker, bool(batches)))
                assert all(not any(x[1:]) for x in det) and UniPoly(x[0] for x in det) == want
                assert want == det_cofactor(matrix)
            assert _det_poly_int(m)(s) == 0
            if n > 1:
                m[r] = [0] * n
                assert _det_cyclo(m, p, j) == UniPoly()
    assert routes == {(False, True, False), (True, True, False), (True, False, False), (True, False, True)}


_FOLD_EXPONENTS = st.integers(-8, 8) | st.integers(2**63 - 3, 2**63 + 3) | st.integers(-(2**64) - 3, -(2**64) + 3)


@st.composite
def _order_two_problem(draw):
    # (k, terms) at p^j = 2, exponents of both signs and parities, some past 2^63: up to 8 rows of
    # any shape, or 29-30 rows of the Bass form with few u-terms, which the j = 0 rule sends to
    # the multimodular pass
    def term(r, c, d):
        return (r, c, draw(_FOLD_EXPONENTS), d, draw(st.integers(-9, 9)))

    if draw(st.booleans()):
        k = draw(st.integers(0, 8))
        cells = st.tuples(st.integers(0, max(k - 1, 0)), st.integers(0, max(k - 1, 0)), st.integers(0, 2))
        return k, [term(*cell) for cell in draw(st.lists(cells, max_size=3 * k))] if k else []
    k = draw(st.integers(29, 30))
    diagonal = [(r, r, draw(_FOLD_EXPONENTS), 0, draw(st.sampled_from([-3, -1, 1, 2]))) for r in range(k)]
    cells = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, 2))
    return k, diagonal + [term(*cell) for cell in draw(st.lists(cells, min_size=1, max_size=6))]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_order_two_problem())
def test_order_two_problems_fold_to_integer_problems(problem):
    # zeta_2 = -1: det_cyclotomic_poly takes a p^j = 2 problem as the integer problem of the
    # terms (r, c, 0, d, (-1)^exp coeff), routed by the j = 0 rule, and equals the Kronecker route
    # on the unfolded terms at j = 1
    k, terms = problem
    passes = []
    multimodular = linalg._det_multimodular

    def recorder(k, terms, j, p, *bounds):
        passes.append(j)
        return multimodular(k, terms, j, p, *bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_det_multimodular", recorder)
        got = det_cyclotomic_poly([(k, terms, 1)], 2)[0]
    want = linalg._det_kronecker(k, terms, 1, 2, *linalg._row_bounds(k, terms))
    assert got == [[x] for x in want]
    assert passes == ([0] if k > 28 else [])


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
        _det_groupring_poly([[UniPoly([GroupRingElem.one(4), e_psi])]], 4)


@st.composite
def _cyclotomic_poly_matrix(draw):
    # (p, j, k, terms): every row holds terms with exponents in [-p^j, 2 p^j), u-degree
    # <= 2 and coefficients up to 10^12 (B past 2^31, so several CRT primes); then
    # optionally one row is zeroed and one row is multiplied by (u - s), which makes the
    # matrix singular at u = s
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
    det = det_cyclotomic_poly([(k, terms, j)], p)[0]
    phi = (p - 1) * p ** (j - 1) if j else 1
    assert all(len(x) == phi and all(type(a) is int for a in x) for x in det)
    assert UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det]) == det_cofactor(m)


def _cyclo_det_oracle(p, j, k, terms) -> UniPoly:
    # det M over Q(zeta_{p^j})[u] by cofactor expansion in CycloNum
    m = [[UniPoly() for _ in range(k)] for _ in range(k)]
    for r, c, e, d, coeff in terms:
        m[r][c] = m[r][c] + UniPoly.monomial(d, CycloNum.from_monomials(p, j, [(e, coeff)]))
    return UniPoly.constant(CycloNum.rational(p, 1, j)) * det_cofactor(m)


@st.composite
def _problem_lists(draw):
    # (p, problems): one to four matrices at j <= 3 (p = 2) or j <= 2 (p = 3), k = 0..4, entries
    # of u-degree <= 3 and coefficients up to a bound of 1 to 10^12 per problem, so that the bounds
    # of one call differ and every problem must be exact under the call's primes; sometimes a zero row
    p = draw(st.sampled_from([2, 3]))
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        j, k = draw(st.integers(0, 3 if p == 2 else 2)), draw(st.integers(0, 4))
        if k:
            bound = draw(st.integers(1, 10**12))
            entry = st.tuples(
                st.integers(0, k - 1),
                st.integers(0, k - 1),
                st.integers(-(p**j), 2 * p**j),
                st.integers(0, 3),
                st.integers(-bound, bound),
            )
            terms = draw(st.lists(entry, max_size=3 * k))
            if draw(st.booleans()):
                zero = draw(st.integers(0, k - 1))
                terms = [t for t in terms if t[0] != zero]
        else:
            terms = []
        problems.append((k, terms, j))
    # repeats of earlier problems, as the same object or as an equal copy
    for i in draw(st.lists(st.integers(0, len(problems) - 1), max_size=3)):
        k, terms, j = problems[i]
        problems.append(problems[i] if draw(st.booleans()) else (k, list(terms), j))
    return p, problems


@settings(max_examples=40)
@example((2, [(2, [(0, 0, 1, 3, 5), (1, 1, 0, 0, 1), (0, 1, 2, 1, -7)], 3)]))  # a single problem
@example((3, [(0, [], 2), (3, [(0, 0, 0, 0, 1), (1, 1, 0, 0, 1), (2, 2, 0, 2, 1)], 0), (1, [], 1)]))
@example((2, [(1, [(0, 0, 1, 1, 3)], 2), (2, [(0, 0, 0, 1, 1), (1, 1, 1, 0, 2)], 1)] * 2))  # repeats
@example((2, [(1, [(0, 0, 0, 0, 3)], 0), (1, [(0, 0, 0, 0, 10**12)], 0)]))  # j = 0: the Kronecker route
# the problem with the most roots has the smallest bound: alone, 2, 1 and 1 primes
@example((2, [
    (1, [(0, 0, 1, 0, 10**12)], 1),
    (1, [(0, 0, 1, 0, 3)], 2),
    (2, [(0, 0, 0, 0, 1), (1, 1, 3, 1, 5), (0, 1, 1, 2, -7)], 2),
]))
@given(_problem_lists())
def test_batched_kernels_match_the_oracles_problem_by_problem(case):
    # every position, a repeated problem's among them, equals its one-problem call and the oracle
    p, problems = case
    dets = det_cyclotomic_poly(problems, p)
    norms = _det_norms(problems, p)
    assert len(dets) == len(norms) == len(problems)
    for problem, det, norm in zip(problems, dets, norms):
        k, terms, j = problem
        want = _cyclo_det_oracle(p, j, k, terms)
        assert UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in det]) == want
        assert all(type(a) is int for x in det for a in x) and all(type(a) is int for a in norm)
        assert UniPoly(norm) == _norm_by_conjugates(p, j, k, terms)
        assert det == det_cyclotomic_poly([problem], p)[0] and norm == _det_norms([problem], p)[0]
    assert len({id(x) for x in dets + norms}) == 2 * len(problems)  # no result shared between positions


def test_repeated_problems_are_evaluated_once(monkeypatch):
    # the characteristic polynomial batches for a list with repeats, as the same object and as
    # copies, are those of the list without them
    batches = []
    original = linalg._charpoly_mod

    def recorder(mats, q):
        batches.append((mats.tolist(), q))
        return original(mats, q)

    monkeypatch.setattr(linalg, "_charpoly_mod", recorder)
    a = (2, [(0, 0, 1, 1, 3), (0, 1, 0, 0, -2), (1, 0, 2, 2, 5), (1, 1, 0, 0, 1)], 2)
    b = (1, [(0, 0, 1, 1, 7), (0, 0, 0, 0, 1)], 1)
    copy = (a[0], list(a[1]), a[2])
    for kernel in (det_cyclotomic_poly, _det_norms):
        batches.clear()
        once = kernel([a, b], 3)
        evaluated = list(batches)
        batches.clear()
        assert kernel([a, b, a, copy, b], 3) == [once[0], once[1], once[0], once[0], once[1]]
        assert batches == evaluated


def test_row_bound_dominates_the_determinant_and_its_norm():
    # B bounds every u-coefficient of every conjugate of det M, so of an integer determinant, and
    # B^phi every coefficient of the norm; it never exceeds the product of the row 1-norms
    rng = random.Random(83)
    for _ in range(200):
        p, j, k = rng.choice([2, 3]), rng.randint(0, 2), rng.randint(1, 4)
        scale = rng.choice([1, 9, 10**6])
        terms = [
            (rng.randrange(k), rng.randrange(k), rng.randint(0, p**j), rng.randint(0, 3), rng.randint(-scale, scale))
            for _ in range(rng.randint(k, 4 * k))
        ]
        bound, degree = linalg._row_bounds(k, terms)
        row_norms = [sum(abs(t[4]) for t in terms if t[0] == r) for r in range(k)]
        assert bound <= math.prod(row_norms)
        norm = _det_norms([(k, terms, j)], p)[0]
        assert len(norm) == (p - 1) * p ** (j - 1) * degree + 1 if j else degree + 1
        assert max(map(abs, norm)) <= bound ** ((p - 1) * p ** (j - 1) if j else 1)
        integer = [(r, c, 0, d, a) for r, c, _, d, a in terms]
        assert max(map(abs, _det_poly_int_terms(k, integer))) <= linalg._row_bounds(k, integer)[0]
    # Hadamard's inequality is attained by a Hadamard matrix: det = 2^2 * ... = 16 for order 4
    h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    terms = [(r, c, 0, 0, x) for r, row in enumerate(h4) for c, x in enumerate(row)]
    assert linalg._row_bounds(4, terms) == (16, 0) and det_int(h4) == 16


def _det_poly_int_terms(k, terms) -> list[int]:
    return _det_norms([(k, terms, 0)], 2)[0]


def _kronecker(k, terms, j=0, p=2) -> list[int]:
    return linalg._det_kronecker(k, terms, j, p, *linalg._row_bounds(k, terms))


def _multimodular(k, terms, j, p) -> list[list[int]]:
    return linalg._det_multimodular(k, terms, j, p, *linalg._row_bounds(k, terms)).tolist()


def _integer_det_oracle(k, terms) -> list[int]:
    # det M by cofactor expansion over Z[u], padded to the D + 1 coefficients the kernel returns
    m = [[UniPoly() for _ in range(k)] for _ in range(k)]
    for r, c, _, d, coeff in terms:
        m[r][c] = m[r][c] + UniPoly.monomial(d, coeff)
    det = UniPoly.constant(1) * det_cofactor(m)
    degree = linalg._row_bounds(k, terms)[1]
    return [det.coefficient(i) for i in range(degree + 1)]


@st.composite
def _integer_poly_problems(draw):
    # (k, terms) at j = 0: k = 0..4, coefficients of either sign from 1 up to past 2^64, u-degrees
    # up to 40 with gaps, exponents that j = 0 ignores, sometimes a zero row or cancelling terms
    k = draw(st.integers(0, 4))
    if k == 0:
        return 0, []
    scale = draw(st.sampled_from([1, 9, 2**64 + 3]))
    entry = st.tuples(
        st.integers(0, k - 1),
        st.integers(0, k - 1),
        st.integers(-5, 5),
        st.sampled_from([0, 1, 2, 7, 40]),
        st.integers(-scale, scale),
    )
    terms = draw(st.lists(entry, max_size=4 * k))
    if draw(st.booleans()):
        zero = draw(st.integers(0, k - 1))
        terms = [t for t in terms if t[0] != zero]
    if terms and draw(st.booleans()):  # a term and its negative: an entry digit that cancels
        r, c, e, d, a = terms[0]
        terms.append((r, c, e, d, -a))
    return k, terms


@settings(max_examples=80)
@example((0, []))
@example((2, [(0, 0, 0, 3, 5), (0, 1, 0, 0, -1), (1, 0, 0, 40, 7)]))  # gaps between the digits
@given(_integer_poly_problems())
def test_kronecker_determinant_matches_cofactor(case):
    k, terms = case
    want = _integer_det_oracle(k, terms)
    assert _kronecker(k, terms) == want
    norm, coordinates = _det_norms([(k, terms, 0)], 3)[0], det_cyclotomic_poly([(k, terms, 0)], 3)[0]
    assert norm == want and coordinates == [[x] for x in want]
    assert all(type(x) is int for x in norm)


def test_kronecker_digit_at_the_bound():
    # a diagonal matrix attains B: its one coefficient is +-B, the widest balanced digit the width
    # allows when B = 2^(8w - 1) - 1, at a u-degree above zero digits
    for factors in ([127], [-127], [7, -31, 151], [128], [-255], [3, 5, 17, 257, 65537], [-(2**63 - 1)], [2**64]):
        for shift in (0, 1, 5):
            k = len(factors)
            terms = [(r, r, 0, shift if r == 0 else 0, a) for r, a in enumerate(factors)]
            bound = math.prod(map(abs, factors))
            assert linalg._row_bounds(k, terms) == (bound, shift)
            assert _kronecker(k, terms) == [0] * shift + [math.prod(factors)]
    # Hadamard's bound attained off the diagonal: [[a, a u^2], [a u, -a u^3]] has det -2 a^2 u^3 = -B u^3
    # between zero digits (D = 5)
    for a in (1, 8, 2**31, -(3**40)):
        terms = [(0, 0, 0, 0, a), (0, 1, 0, 2, a), (1, 0, 0, 1, a), (1, 1, 0, 3, -a)]
        assert linalg._row_bounds(2, terms) == (2 * a * a, 5)
        assert _kronecker(2, terms) == [0, 0, 0, -2 * a * a, 0, 0]


def test_kronecker_borrow_chains():
    # (u - 1)^k and (1 - u)^k: alternating signs borrow from every next digit
    for k in range(1, 21):
        for sign in (1, -1):
            terms = [(r, r, 0, 0, -sign) for r in range(k)] + [(r, r, 0, 1, sign) for r in range(k)]
            want = [sign**k * (-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
            assert _kronecker(k, terms) == want
    # u on the diagonal, 1 above it and in the corner: det = u^6 - 1, a borrow through five zero digits
    k = 6
    terms = [(r, r, 0, 1, 1) for r in range(k)] + [(r, r + 1, 0, 0, 1) for r in range(k - 1)] + [(k - 1, 0, 0, 0, 1)]
    assert _kronecker(k, terms) == _integer_det_oracle(k, terms) == [-1, 0, 0, 0, 0, 0, 1]


def _tridiagonal(k):
    # a k x k integer polynomial matrix of the form S + A u + B u^2, S = 2 I: 2 - u on the
    # diagonal, u^2 - u above and 3 u below it
    terms = [(r, r, 0, 0, 2) for r in range(k)] + [(r, r, 0, 1, -1) for r in range(k)]
    terms += [(r, r + 1, 0, 2, 1) for r in range(k - 1)] + [(r, r + 1, 0, 1, -1) for r in range(k - 1)]
    return terms + [(r + 1, r, 0, 1, 3) for r in range(k - 1)]


def test_kronecker_route_ends_at_the_bareiss_size(monkeypatch):
    # k = 28 takes no characteristic polynomial, k = 29 the multimodular pass; each equals the other route
    batches = []
    original = linalg._charpoly_mod
    monkeypatch.setattr(linalg, "_charpoly_mod", lambda mats, q: batches.append(len(mats)) or original(mats, q))
    for k, modular in ((linalg._BAREISS_MAX_DIM, False), (linalg._BAREISS_MAX_DIM + 1, True)):
        terms = _tridiagonal(k)
        batches.clear()
        norm = _det_norms([(k, terms, 0)], 2)[0]
        coordinates = det_cyclotomic_poly([(k, terms, 0)], 2)[0]
        assert bool(batches) == modular
        modular_det = [x for [x] in _multimodular(k, terms, 0, 2)]
        assert norm == _kronecker(k, terms) == modular_det
        assert coordinates == [[x] for x in norm]


@pytest.mark.parametrize("p, j, degree", [(3, 1, 2), (2, 2, 2), (3, 2, 0)])
def test_det_norm_cyclotomic_past_the_bareiss_size(p, j, degree):
    # a 29-row tridiagonal matrix over Z[zeta_{p^j}][u], its u-degrees capped at degree:
    # coordinates from the multimodular pass, then the Graeffe norm, against the product of the
    # conjugates of its cofactor determinant
    k = linalg._BAREISS_MAX_DIM + 1
    terms = [(r, c, (r + 2 * c + d) % p**j, min(d, degree), a) for r, c, _, d, a in _tridiagonal(k)]
    norm = _det_norms([(k, terms, j)], p)[0]
    assert len(norm) == (p - 1) * p ** (j - 1) * linalg._row_bounds(k, terms)[1] + 1
    assert UniPoly(norm) == _norm_by_conjugates(p, j, k, terms)


def test_kronecker_repeated_problems_take_one_elimination_each(monkeypatch):
    eliminations = []
    original = linalg.det_bareiss_int
    monkeypatch.setattr(linalg, "det_bareiss_int", lambda rows: eliminations.append(len(rows)) or original(rows))
    a = (2, [(0, 0, 0, 1, 3), (0, 1, 0, 0, -2), (1, 0, 0, 2, 5), (1, 1, 0, 0, 1)], 0)
    b = (1, [(0, 0, 0, 1, 7), (0, 0, 0, 0, 1)], 0)
    copy = (a[0], list(a[1]), a[2])
    for kernel in (det_cyclotomic_poly, _det_norms):
        once = [kernel([a], 2)[0], kernel([b], 2)[0]]
        eliminations.clear()
        dets = kernel([a, b, a, copy, b], 2)
        assert dets == [once[0], once[1], once[0], once[0], once[1]] and eliminations == [2, 1]
        assert len({id(x) for x in dets}) == len(dets)  # no result shared between positions


def test_mixed_integer_and_cyclotomic_lists_match_one_problem_calls():
    integer = [(2, [(0, 0, 0, 1, 3), (0, 1, 0, 0, -2), (1, 0, 0, 2, 5), (1, 1, 0, 0, 1)], 0), (0, [], 0)]
    cyclotomic = [(2, [(0, 0, 1, 1, 3), (0, 1, 2, 0, -2), (1, 0, 0, 2, 5), (1, 1, 3, 0, 1)], 2), (1, [(0, 0, 1, 0, 4)], 1)]
    large = [(29, _tridiagonal(29), 0)]  # j = 0 above the Bareiss size: the multimodular pass
    # above the switch at j = 1 and 3 too, each with its own k, repeated as the same object and as a copy:
    # a three-term matrix with a diagonal M(0) (the multimodular pass) and a general one (Kronecker)
    large += [
        (10, [(r, c, r * c + 1, (r != c) * (1 + (r + c) % 2), 10**6 + 7 * r - c) for r in range(10) for c in range(10)], 1),
        (4, [(r, c, 5 * r + c, (r * c) % 3, 10**4 - r * c) for r in range(4) for c in range(4)], 3),
    ]
    assert not any(linalg._kronecker_wins(k, j, 3, *linalg._row_bounds(k, terms)) for k, terms, j in large)
    problems = [cyclotomic[0], integer[0], large[0], large[1], cyclotomic[1], large[2], integer[1], integer[0]]
    problems += [large[1], (large[2][0], list(large[2][1]), large[2][2])]
    for kernel in (det_cyclotomic_poly, _det_norms):
        assert kernel(problems, 3) == [kernel([x], 3)[0] for x in problems]


def test_kronecker_determinant_of_x_degree_two_to_the_sixteen():
    # y = u^(2^15): det [[1 + 2 y, -y], [3 y, 1 - y]] = 1 + y + y^2, of u-degree D = 2^16
    y = 2**15
    terms = [(0, 0, 0, 0, 1), (0, 0, 0, y, 2), (0, 1, 0, y, -1), (1, 0, 0, y, 3), (1, 1, 0, 0, 1), (1, 1, 0, y, -1)]
    norm = _det_norms([(2, terms, 0)], 2)[0]
    assert len(norm) == 2**16 + 1
    assert {i: x for i, x in enumerate(norm) if x} == {0: 1, y: 1, 2 * y: 1}


def _packed_bits(k, terms, j, p):
    # the bits of det M(t) in `_det_kronecker`
    bound, degree = linalg._row_bounds(k, terms)
    return (k * (p**j - 1) + 1) * (degree + 1) * ((bound.bit_length() + 8) // 8 * 8)


@st.composite
def _cross_route_lists(draw):
    # (p, problems): one to three problems at one p in {2, 3, 5}, j <= 3, on both sides of the size
    # switch: up to 30 rows at j = 0 (the switch is 28) and 12, 6 and 4 at j = 1, 2, 3 (fewer for
    # p = 5), rows dropped while det M(t) would have more than 2^14 bits (about twice the switch's at
    # j >= 1 and few points); exponents from -p^j to past 2 p^j, coefficients of either sign up to 1
    # to 10^12.  Each problem has a shape the multimodular pass takes: u-free (D = 0; sometimes a zero
    # row, B = 0), or S + A u + B u^2 with S diagonal, one nonzero monomial c zeta^e per row; and
    # sometimes a repeated (r, c, exp, d) term
    p = draw(st.sampled_from([2, 3, 5]))
    problems = []
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, 3))
        k_max = {0: linalg._BAREISS_MAX_DIM + 2, 1: 12, 2: 6 if p < 5 else 4, 3: 4 if p < 5 else 3}[j]
        k = draw(st.one_of(st.integers(0, 3), st.integers(max(0, k_max - 4), k_max)))
        terms = []
        if k:
            scale = draw(st.sampled_from([1, 9, 10**12]))
            u_free = draw(st.booleans())
            exponent, coeff = st.integers(-(p**j), 2 * p**j + 1), st.integers(-scale, scale)
            index, degree = st.integers(0, k - 1), st.just(0) if u_free else st.integers(1, 2)
            entry = st.tuples(index, index, exponent, degree, coeff)
            terms = draw(st.lists(entry, min_size=0 if u_free else k, max_size=k * k))
            if u_free:
                terms += [(r, r, 0, 0, 1) for r in range(k)]  # no row empty by chance
            else:  # the diagonal S
                terms += [(r, r, draw(exponent), 0, draw(coeff.filter(bool))) for r in range(k)]
            if draw(st.booleans()):  # the same (r, c, exp, d) again
                r, c, e, d, _ = draw(st.sampled_from([t for t in terms if u_free or t[3]] or terms))
                terms.append((r, c, e, d, draw(coeff) if d or u_free else 0))
            if u_free and not draw(st.integers(0, 4)):
                zero = draw(index)
                terms = [t for t in terms if t[0] != zero]
        while k and _packed_bits(k, terms, j, p) > 1 << 14:  # keeps Bareiss on det M(t) to milliseconds
            k -= 1
            terms = [t for t in terms if t[0] < k and t[1] < k]
        problems.append((k, terms, j))
    return p, problems


def _three_term(terms):
    # the terms with u-degree 0 on the diagonal and 1 + (r c mod 2) off it
    return [(r, c, e, 0 if r == c else 1 + r * c % 2, a) for r, c, e, _, a in terms]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
# the 1 x 1 zero matrix: B = 0
@example((2, [(2, [(0, 0, 0, 0, 5), (1, 1, 3, 0, -7), (1, 1, 3, 2, -7)], 1), (1, [], 2)]))
# exponents 11 and 2 meet mod 9 and cancel
@example((3, [(2, [(0, 0, 0, 0, 1), (0, 0, 11, 1, 4), (0, 0, 2, 1, -4), (0, 1, -1, 1, 3), (1, 0, 9, 2, 2), (1, 1, 0, 0, 1)], 2)]))
# above the switch: coefficients near 10^12 over Z[zeta_125], several CRT primes; 29 rows at j = 0
@example((5, [(3, _three_term([(r, c, 7 * r + 11 * c + 40, 0, 10**12 - r) for r in range(3) for c in range(3)]), 3)]))
@example((2, [(linalg._BAREISS_MAX_DIM + 1, _tridiagonal(linalg._BAREISS_MAX_DIM + 1), 0)]))
# above the switch, a zero coefficient at u^9, past every nonzero term's u-degree (at most 2)
@example((5, [(3, _three_term([(r, c, 7 * r + 11 * c + 40, 0, 10**12 - r) for r in range(3) for c in range(3)]) + [(2, 1, 3, 9, 0)], 3)]))
# above the switch, exponents of either sign past 2^63 (as voltages may be), at j = 3 and j = 0
@example(
    (
        5,
        [
            (3, _three_term([(r, c, (-1) ** (r + c) * 2**64 + 7 * r + 11 * c, 0, 10**12 - r) for r in range(3) for c in range(3)]), 3),
            (29, [(r, c, (-1) ** r * 2**70, d, x) for r, c, _, d, x in _tridiagonal(29)], 0),
        ],
    )
)
@given(_cross_route_lists())
def test_kronecker_and_multimodular_routes_agree(case):
    # both exact routes on every problem, whichever side of the size switch it lies, and at the
    # smallest sizes the CycloNum cofactor oracle agrees
    p, problems = case
    for k, terms, j in problems:
        rows = _multimodular(k, terms, j, p)
        phi = (p - 1) * p ** (j - 1) if j else 1
        kronecker = _kronecker(k, terms, j, p)
        assert all(type(x) is int for x in kronecker)
        assert [kronecker[i : i + phi] for i in range(0, len(kronecker), phi)] == rows
        assert len(rows) == linalg._row_bounds(k, terms)[1] + 1 and all(len(x) == phi for x in rows)
        if k <= 2 or (k == 3 and j <= 1):
            want = _cyclo_det_oracle(p, j, k, terms)
            assert UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in rows]) == want


def test_problems_above_the_switch_are_evaluated_once(monkeypatch):
    # as for the Kronecker route: a list with repeats, as the same object and as copies, takes the
    # characteristic polynomial batches of the list without them
    batches = []
    original = linalg._charpoly_mod
    monkeypatch.setattr(linalg, "_charpoly_mod", lambda mats, q: batches.append((mats.tolist(), q)) or original(mats, q))
    large = linalg._BAREISS_MAX_DIM + 1
    a = (large, [(r, c, (r + c) % 9, d, x) for r, c, _, d, x in _tridiagonal(large)], 2)
    b = (large, _tridiagonal(large), 0)
    assert not any(linalg._kronecker_wins(k, j, 3, *linalg._row_bounds(k, terms)) for k, terms, j in (a, b))
    copy = (a[0], list(a[1]), a[2])
    for kernel in (det_cyclotomic_poly, _det_norms):
        batches.clear()
        once = kernel([a, b], 3)
        evaluated = list(batches)
        batches.clear()
        assert kernel([a, b, a, copy, b], 3) == [once[0], once[1], once[0], once[0], once[1]]
        assert evaluated and batches == evaluated


def test_three_term_problem_with_a_diagonal_entry_divisible_by_a_prime_stays_exact(monkeypatch):
    # S holds 2^31 - 1, the first prime for j = 0, and the product of the next two: the pass skips
    # the primes that divide det S and takes the next ones, so the CRT stays exact
    first = _modular_primes(1)[0]
    skipped = math.prod(_modular_primes(2**62)[1:3])
    assert first == 2147483647 and _modular_primes(2**62, 1, first * skipped) == _modular_primes(2**186)[3:6]
    moduli = []
    original = linalg._charpoly_mod
    monkeypatch.setattr(linalg, "_charpoly_mod", lambda mats, q: moduli.append(q) or original(mats, q))
    k = linalg._BAREISS_MAX_DIM + 1
    diagonal = {(0, 0): first, (1, 1): skipped}  # S[0][0] and S[1][1], in place of 2
    terms = [(r, c, e, d, x if d else diagonal.get((r, c), x)) for r, c, e, d, x in _tridiagonal(k)]
    assert linalg._pass_diagonal(k, terms, 1, linalg._row_bounds(k, terms)[1])[:2] == [(first, 0), (skipped, 0)]
    det = det_cyclotomic_poly([(k, terms, 0)], 2)[0]
    assert moduli and not {first, *_modular_primes(2**62)[1:3]} & set(moduli)
    assert [x for [x] in det] == _kronecker(k, terms) == _integer_det_oracle(k, terms)


def test_u_degree_three_above_the_switch_takes_the_kronecker_route(monkeypatch):
    # a u^3 term leaves the Bass form: 29 rows at j = 0 take `_det_kronecker`, no characteristic polynomial
    calls = []
    charpoly, kronecker = linalg._charpoly_mod, linalg._det_kronecker
    monkeypatch.setattr(linalg, "_charpoly_mod", lambda mats, q: calls.append("charpoly") or charpoly(mats, q))
    monkeypatch.setattr(linalg, "_det_kronecker", lambda *args: calls.append("kronecker") or kronecker(*args))
    k = linalg._BAREISS_MAX_DIM + 1
    terms = _tridiagonal(k) + [(0, 1, 0, 3, 1)]
    assert not linalg._kronecker_wins(k, 0, 2, *linalg._row_bounds(k, terms))
    det = det_cyclotomic_poly([(k, terms, 0)], 2)[0]
    assert calls == ["kronecker"]
    assert [x for [x] in det] == _integer_det_oracle(k, terms)


@st.composite
def _multigraphs(draw, vertices):
    # a multigraph on 0..n-1: random edges among 0..n-2, loops and repeated edges among them, and
    # vertex n - 1 a leaf on vertex 0, so D - I is singular
    n = draw(vertices)
    inner = st.integers(0, n - 2)
    edges = draw(st.lists(st.tuples(inner, inner), min_size=n - 1, max_size=2 * n))
    loop = draw(inner)
    edges += [(loop, loop), edges[0], (0, n - 1)]
    return SerreGraph.from_edges(list(range(n)), edges)


@settings(max_examples=6)
@given(_multigraphs(st.integers(linalg._BAREISS_MAX_DIM + 1, 40)))
def test_cover_size_h_takes_the_pass_and_equals_the_kronecker_route(g):
    # ihara_zeta_reciprocal's h above the Bareiss size: one characteristic polynomial of the 2k-row W
    # per prime, equal to `_det_kronecker` on the same terms
    problems, shapes = [], []
    kernel, charpoly = linalg.det_cyclotomic_poly, linalg._charpoly_mod
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "det_cyclotomic_poly", lambda x, p: problems.extend(x) or kernel(x, p))
        patch.setattr(linalg, "_charpoly_mod", lambda mats, q: shapes.append(mats.shape) or charpoly(mats, q))
        h, _ = ihara_zeta_reciprocal(g)
    [(k, terms, j)] = problems
    assert k == g.n_vertices and j == 0 and shapes and set(shapes) == {(1, 2 * k, 2 * k)}
    assert h == UniPoly(_kronecker(k, terms))


@settings(max_examples=30)
@given(
    _multigraphs(st.integers(2, 8)), st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 1)]), st.randoms(use_true_random=False)
)
def test_small_graph_pass_matches_cofactor(g, level, rng):
    # `_det_multimodular` called directly on I - A u + (D - I) u^2 of a small multigraph, its darts
    # carrying random voltages at level j, against the cofactor determinant in CycloNum
    p, j = level
    voltage = [rng.randint(-9, 9) for _ in range(g.n_darts)]
    degree = [g.dart_origin.count(v) for v in range(g.n_vertices)]
    terms = [(t, o, x, 1, -1) for o, t, x in zip(g.dart_origin, g.dart_terminus, voltage)]
    terms += [(v, v, 0, 0, 1) for v in range(g.n_vertices)] + [(v, v, 0, 2, degree[v] - 1) for v in range(g.n_vertices)]
    k = g.n_vertices
    rows = _multimodular(k, terms, j, p)
    assert UniPoly([CycloNum(p, j, tuple(map(Fraction, x))) for x in rows]) == _cyclo_det_oracle(p, j, k, terms)


@pytest.mark.parametrize("j, p", [(0, 2), (1, 3), (2, 2)])
def test_pass_takes_coefficients_past_int64(j, p):
    # a coefficient of 2^64 or more leaves the int64 cells for Python integers: a u-free problem
    # and a Bass-form one, each against the exact Kronecker route
    big = 2**64 + 5
    u_free = [(0, 0, 1, 0, big), (0, 1, 0, 0, 3), (1, 0, 2, 0, -1), (1, 1, 0, 0, 7), (2, 2, 1, 0, -big), (1, 2, 3, 0, 2)]
    bass = [(0, 0, 0, 0, 1), (1, 1, 1, 0, 3), (2, 2, 1, 0, big)]  # S = M(0), one monomial per row
    bass += [(0, 1, 1, 1, -big), (1, 0, 0, 1, 5), (2, 0, 2, 1, -1), (0, 2, 0, 2, 3), (1, 1, 1, 2, big)]
    phi = euler_phi_prime_power(p, j)
    for terms in (u_free, bass):
        coords = _kronecker(3, terms, j, p)
        assert _multimodular(3, terms, j, p) == [coords[x : x + phi] for x in range(0, len(coords), phi)]


def test_large_integer_determinant_with_an_entry_past_int64():
    rng = random.Random(11)
    m = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]  # above the Bareiss size
    m[4][17] = 2**70
    assert det_int(m) == det_bareiss_int(m) != 0
