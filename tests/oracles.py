"""Brute-force oracles, kept independent of the library code paths they check.

`CycloNum` is the reference arithmetic of Q(zeta_{p^j}): Fraction
coordinates in the power basis, reduced by hand modulo Phi_{p^j}.  The
library carries character values as integer coordinate rows; the tests
compare those rows with values computed here one character at a time.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from graphzeta.cyclo import (
    Valuation,
    euler_phi_prime_power,
    ordp_fraction,
)
from graphzeta.equivariant import _modulus_of
from graphzeta.graphs import SerreGraph
from graphzeta.groupring import CharacterLabel, GroupRingElem, characters, groupring_idempotent, norm_element
from graphzeta.lfunctions import orbit_vertices
from graphzeta.linalg import det_cyclotomic_poly
from graphzeta.poly import UniPoly, _RingOps
from graphzeta.tower import LevelGraph, TowerDatum

# -- Q(zeta_{p^j}) with Fraction coordinates ------------------------------


def _phi_tail(p: int, j: int) -> list[tuple[int, Fraction]]:
    # Phi_{p^j} = X^d + tail with d = phi(p^j).  Returns the tail as
    # (exponent, coefficient) pairs; for j = 0 the polynomial is X - 1.
    if j == 0:
        return [(0, Fraction(-1))]
    step = p ** (j - 1)
    return [(t * step, Fraction(1)) for t in range(p - 1)]


def _reduce(p: int, j: int, dense: list[Fraction]) -> tuple[Fraction, ...]:
    # Reduce a dense coefficient list (exponents already < p^j) mod Phi_{p^j}.
    d = euler_phi_prime_power(p, j)
    tail = _phi_tail(p, j)
    for i in range(len(dense) - 1, d - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for e, t in tail:
                dense[i - d + e] -= c * t
    out = dense[:d]
    while len(out) < d:
        out.append(Fraction(0))
    return tuple(out)


def _int_product_mod_phi(p: int, j: int, a: list[int], b: list[int]) -> list[int]:
    # the product of two integer coordinate rows in Z[zeta_{p^j}], reduced as `_reduce` does
    dense = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                dense[i + k] += x * y
    d, tail = len(a), _phi_tail(p, j)
    for i in range(len(dense) - 1, d - 1, -1):
        if dense[i]:
            for e, t in tail:
                dense[i - d + e] -= dense[i] * int(t)
    return dense[:d]


@dataclass(eq=False)
class CycloNum(_RingOps):
    """Element of Q(zeta_{p^j}) in the power basis 1, zeta, ..., zeta^(phi-1).

    A `_RingOps` element, so that `UniPoly` takes it as a coefficient; every operator it uses
    is its own.
    """

    p: int
    j: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        d = euler_phi_prime_power(self.p, self.j)
        if len(self.coeffs) != d:
            raise ValueError(f"coefficient vector must have length {d}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p: int, value, j: int = 0) -> "CycloNum":
        """Embed a rational number at level j (default: level 0, i.e. Q)."""
        d = euler_phi_prime_power(p, j)
        coeffs = [Fraction(0)] * d
        coeffs[0] = Fraction(value)
        return CycloNum(p, j, tuple(coeffs))

    @staticmethod
    def from_monomials(p: int, j: int, monomials) -> "CycloNum":
        """Build sum of c * zeta^e from (e, c) pairs; exponents arbitrary ints."""
        order = p**j
        dense = [Fraction(0)] * order
        for e, c in monomials:
            dense[e % order] += Fraction(c)
        return CycloNum(p, j, _reduce(p, j, dense))

    # -- coercion helpers ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.p != self.p or other.j != self.j:
                raise ValueError(
                    f"cyclotomic level mismatch: ({self.p},{self.j}) vs"
                    f" ({other.p},{other.j}); lift explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self.p, other, self.j)
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.p, self.j, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.p, self.j, tuple(-a for a in self.coeffs))

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
        n = len(self.coeffs)
        dense = [Fraction(0)] * (2 * n - 1 if n > 1 else 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(o.coeffs):
                if b:
                    dense[i + k] += a * b
        return CycloNum(self.p, self.j, _reduce(self.p, self.j, dense))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = CycloNum.rational(self.p, 1, self.j)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.p},{self.j}; {self.coeffs[0]})"
        terms = " + ".join(f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c)
        return f"CycloNum({self.p},{self.j}; {terms})"

    # -- field structure ----------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self!r}")
        return self.coeffs[0]

    def lift(self, j2: int) -> "CycloNum":
        """Rewrite at a higher level via zeta_{p^j} = zeta_{p^j2}^(p^(j2-j))."""
        if j2 < self.j:
            raise ValueError("lift target level below current level")
        if j2 == self.j:
            return self
        step = self.p ** (j2 - self.j)
        return CycloNum.from_monomials(
            self.p, j2, ((i * step, c) for i, c in enumerate(self.coeffs) if c)
        )

    def galois(self, u: int) -> "CycloNum":
        """Apply the automorphism zeta -> zeta^u (u a unit mod p^j) by `galois_by_monomials`."""
        if self.j and u % self.p == 0:
            raise ValueError("galois exponent must be a unit")
        return galois_by_monomials(self, u)

    def norm(self) -> Fraction:
        """Field norm down to Q: the product of the phi(p^j) Galois conjugates sigma_u(x).

        Multiplied out on the integer numerator L x (L the lcm of the denominators) by schoolbook
        products reduced mod Phi_{p^j} by hand, then divided by L^phi.
        """
        den = math.lcm(*(Fraction(c).denominator for c in self.coeffs))
        numerator = CycloNum(self.p, self.j, tuple(c * den for c in self.coeffs))
        product = [1] + [0] * (len(self.coeffs) - 1)
        for u in range(1, max(2, self.p**self.j)):
            if u % self.p or self.j == 0:
                product = _int_product_mod_phi(self.p, self.j, product, [int(c) for c in numerator.galois(u).coeffs])
        assert not any(product[1:]), "a product of all conjugates is rational"
        return Fraction(product[0], den ** len(self.coeffs))

    def inverse(self) -> "CycloNum":
        """1/x = prod_{u != 1} sigma_u(x) / N(x): the other conjugates over the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.j == 0:
            return CycloNum.rational(self.p, 1 / Fraction(self.coeffs[0]))
        others = CycloNum.rational(self.p, 1, self.j)
        for u in range(2, self.p**self.j):
            if u % self.p:
                others = others * self.galois(u)
        return others * (1 / self.norm())


def zeta(p: int, j: int) -> CycloNum:
    """A fixed primitive p^j-th root of unity (the power-basis generator)."""
    return CycloNum.from_monomials(p, j, [(1, 1)])


def ordp_cyclo(x: CycloNum, p: int) -> Valuation:
    """Unique extension of ord_p to Q(zeta_{p^j}): ord_p(norm)/phi(p^j)."""
    if x.p != p:
        raise ValueError(f"element lives over p={x.p}, not p={p}")
    if not x:
        return Valuation.infinite()
    nv = ordp_fraction(x.norm(), p)
    return Valuation(nv.value / euler_phi_prime_power(p, x.j))


def det_cofactor(rows):
    """Division-free Laplace expansion with column-subset memoization.

    Valid over any commutative ring (integers, fractions, cyclotomic numbers,
    group-ring elements, polynomials and truncated series over them);
    exponential in the dimension.
    """
    n = len(rows)
    if n == 0:
        return 1
    # dp maps a bitmask of used columns to the determinant of the top rows.
    dp = {0: 1}
    for i in range(n):
        nxt = {}
        for mask, val in dp.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = rows[i][c]
                if entry == 0:
                    continue
                below = mask & (bit - 1)
                sign = -1 if (i + bin(below).count("1")) % 2 else 1
                term = val * entry * sign
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + term
        dp = nxt
    full = (1 << n) - 1
    return dp.get(full, 0)


def count_spanning_trees_exhaustive(g: SerreGraph) -> int:
    """Enumerate all (n-1)-edge subsets and count the spanning trees."""
    n = g.n_vertices
    if n <= 1:
        return 1
    edges = [
        (g.dart_origin[e], g.dart_terminus[e])
        for e in range(g.n_darts)
        if e < g.dart_inverse[e]
    ]
    count = 0
    for combo in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i in combo:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            count += 1
    return count


def count_reduced_closed_paths_exhaustive(g: SerreGraph, k: int) -> int:
    """Count closed dart sequences of length k with no backtracking, cyclically."""
    total = 0
    follows = [
        [
            f
            for f in range(g.n_darts)
            if g.dart_origin[f] == g.dart_terminus[e] and f != g.dart_inverse[e]
        ]
        for e in range(g.n_darts)
    ]

    def extend(path):
        nonlocal total
        if len(path) == k:
            if (
                g.dart_origin[path[0]] == g.dart_terminus[path[-1]]
                and path[0] != g.dart_inverse[path[-1]]
            ):
                total += 1
            return
        for f in follows[path[-1]]:
            extend(path + [f])

    for e0 in range(g.n_darts):
        extend([e0])
    return total


def dart_transition_matrix(g: SerreGraph) -> list[list[int]]:
    """Non-backtracking dart matrix: B[e][f] = 1 iff f follows e and f != inv(e)."""
    d = g.n_darts
    b = [[0] * d for _ in range(d)]
    for e in range(d):
        for f in range(d):
            if g.dart_terminus[e] == g.dart_origin[f] and f != g.dart_inverse[e]:
                b[e][f] = 1
    return b


def path_counts_by_matrix_powers(g: SerreGraph, k_max: int) -> list[int]:
    """N_1..N_k as traces of dense powers of the dart transition matrix, in Python integers."""
    b = np.array(dart_transition_matrix(g), dtype=object).reshape(g.n_darts, g.n_darts)
    power, counts = np.eye(g.n_darts, dtype=object), []
    for _ in range(k_max):
        power = power @ b
        counts.append(int(power.trace()))
    return counts


def character_value_by_powers(x, p: int, n: int, a: int, level: int) -> CycloNum:
    """psi_a(x) = sum_s c_s * zeta_{p^L}^(a p^L / p^n * s) by explicit powers.

    Cyclotomic coefficients are lifted to level L and multiplied in; the
    exponent a p^L / p^n must be an integer.
    """
    order = p**level
    assert (a * order) % p**n == 0
    root = zeta(p, level)
    acc = CycloNum.rational(p, 0, level)
    for s, c in enumerate(x.coeffs):
        if not c:
            continue
        power = root ** ((a * order // p**n * s) % order)
        acc = acc + (c.lift(level) if isinstance(c, CycloNum) else c) * power
    return acc


def from_character_values_by_characters(p: int, n: int, values) -> GroupRingElem:
    """x = sum_a values[a] e_{psi_a} from all p^n character values, one at a time.

    values[a] = psi_a(x) (rational, or CycloNum at any level); the work is
    done at the level max(n, value levels), and a nonrational coefficient
    is an error.
    """
    m = p**n
    values = list(values)
    assert len(values) == m
    level = max([n] + [v.j for v in values if isinstance(v, CycloNum)])
    scale = p ** (level - n)

    def monomials(v):
        # (exponent, coefficient) pairs of v in powers of zeta_{p^level}
        if not isinstance(v, CycloNum):
            return [(0, v)]
        step = p ** (level - v.j) if v.j else 0
        return [(i * step, c) for i, c in enumerate(v.coeffs) if c]

    terms = [(a * scale, monomials(v)) for a, v in enumerate(values) if v]
    coeffs = []
    for t in range(m):
        # psi_a(-t) = zeta_{p^level}^(-a t scale): rotate v_a's monomials
        acc = CycloNum.from_monomials(
            p, level, ((e - rot * t, c) for rot, mono in terms for e, c in mono)
        )
        if not acc.is_rational():
            raise ValueError(f"reassembled coefficient of [{t}] is not rational: {acc!r}")
        coeffs.append(acc.to_rational() / m)
    return GroupRingElem(m, coeffs)


def character_idempotent(p: int, n: int, a: int) -> GroupRingElem:
    """Primitive idempotent e_psi of psi_a, CycloNum coefficients at level n: [s] takes psi_a(-s)/p^n."""
    m = p**n
    return GroupRingElem(m, [CycloNum.from_monomials(p, n, [(-a * s, Fraction(1, m))]) for s in range(m)])


@dataclass(frozen=True)
class LfnData:
    """One character's L(u)^-1 = (1 - u^2)^c_exponent h(u, psi), h over Q(zeta_{p^j})."""

    label: CharacterLabel
    h: UniPoly
    c_exponent: int
    r0: int

    @property
    def h_at_one(self) -> CycloNum:
        return sum(self.h.coeffs, CycloNum.rational(self.label.p, 0, self.label.order_exponent))

    @property
    def h_derivative_at_one(self) -> Fraction:
        """h'(1), for the trivial character (whose h is rational)."""
        return sum((k * c.to_rational() for k, c in enumerate(self.h.coeffs)), Fraction(0))


def _three_term_direct(d: TowerDatum, n: int, psi: CharacterLabel, reduced: bool) -> tuple[UniPoly, int]:
    """(h(u, psi) if reduced else z(u, psi), r0(psi)), CycloNum coefficients at psi's level j.

    psi (`character_value_by_powers`) takes the group-ring matrices of
    `level_matrices` entry by entry to Q(zeta_{p^j}), and `det_cofactor`
    expands I - psi(A_alpha) psi(C) u + (D psi(C) - I) u^2.  Each of the r0
    vertices v with psi(C[v]) = 0 leaves the column (1 - u^2) e_v; h drops
    their rows and columns, z keeps them.
    """
    p, j = d.p, psi.order_exponent
    a_alpha, c, deg = level_matrices(d, n)

    def value(x):
        return character_value_by_powers(x, p, n, psi.a, j)

    scale = [value(x) for x in c]
    kept = [v for v, x in enumerate(scale) if x or not reduced]
    zero, one = CycloNum.rational(p, 0, j), CycloNum.rational(p, 1, j)
    rows = [
        [
            UniPoly([one, -value(a_alpha[r][k]) * scale[k], deg[r] * scale[r] - one])
            if r == k
            else UniPoly([zero, -value(a_alpha[r][k]) * scale[k]])
            for k in kept
        ]
        for r in kept
    ]
    det = UniPoly.constant(one) * det_cofactor(rows)  # the empty determinant is the integer 1
    det = det.map_coeffs(lambda x: x if isinstance(x, CycloNum) else CycloNum.rational(p, x, j))
    return det, sum(not x for x in scale)


def lfn_data_direct(d: TowerDatum, n: int, psi: CharacterLabel) -> LfnData:
    """h(u, psi), r0 and the c-exponent r0 - chi(X_0) of one character, by `_three_term_direct`."""
    h, r0 = _three_term_direct(d, n, psi, True)
    return LfnData(psi, h, r0 - (d.base.n_vertices - d.base.n_edges), r0)


def z_poly_direct(d: TowerDatum, n: int, psi: CharacterLabel) -> UniPoly:
    """z(u, psi), the unreduced three-term determinant, by `_three_term_direct`."""
    return _three_term_direct(d, n, psi, False)[0]


def orbit_special_products_by_characters(d, n: int) -> dict[int, Fraction]:
    """N_j = prod h(1, psi) over ord(psi) = p^j, multiplied out in Q(zeta_{p^j}) per character."""
    p = d.p
    out = {}
    for j in range(1, n + 1):
        prod = CycloNum.rational(p, 1, j)
        for psi in characters(p, n):
            if psi.order_exponent == j:
                prod = prod * lfn_data_direct(d, n, psi).h_at_one
        assert prod.is_rational()
        out[j] = prod.to_rational()
    return out


def orbit_norm_by_kernel(d: TowerDatum, j: int) -> int:
    """Ntilde_j = N det(D - A_zeta) on K_j: the product of the Galois conjugates of the determinant.

    D holds the base degrees and A_zeta[i][i'] sums zeta_{p^j}^alpha(s) over
    the base darts s from v_i' to v_i: u-free terms of `det_cyclotomic_poly`
    at level j, whose multimodular pass runs out of primes q = 1 mod p^j below
    2^31 for large phi(p^j).  Its coordinates are normed by `CycloNum.norm`,
    not by the Graeffe chain that `orbit_norms` uses.
    """
    kept = orbit_vertices(d, j)
    pos = {v: i for i, v in enumerate(kept)}
    base = d.base
    deg = [base.dart_origin.count(v) for v in kept]
    terms = [(i, i, 0, 0, deg[i]) for i in range(len(kept))]
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        if o in pos and t in pos:
            terms.append((pos[t], pos[o], d.voltage[e], 0, -1))
    [coordinates] = det_cyclotomic_poly([(len(kept), terms, j)], d.p)[0]
    norm = CycloNum(d.p, j, tuple(map(Fraction, coordinates))).norm()
    assert norm.denominator == 1
    return norm.numerator


def l_reciprocal_of_sum(data: list[LfnData]) -> tuple[int, UniPoly]:
    """Reciprocal L-function of a direct sum of characters (additivity).

    Returns (total c-exponent, product of the h factors), all characters
    lifted to a common cyclotomic level and multiplied out in `CycloNum`.
    """
    if not data:
        raise ValueError("empty character list")
    p = data[0].label.p
    level = max(item.label.order_exponent for item in data)
    prod = UniPoly.constant(CycloNum.rational(p, 1, level))
    for item in data:
        prod = prod * item.h.map_coeffs(lambda c: c.lift(level))
    # a coefficient whose products were all zero stays the integer 0
    return sum(item.c_exponent for item in data), prod.map_coeffs(
        lambda c: c if isinstance(c, CycloNum) else CycloNum.rational(p, c, level)
    )


def quotient_level_graph(d: TowerDatum, lg: LevelGraph, m: int) -> SerreGraph:
    """Quotient of a level-n cover by p^m Z/p^n Z, relabelled at level m.

    Reads the dart (e, sigma) of lg at index e p^n + sigma, as `tower`
    orders them.  Forgetting the high digits of the labels must reproduce
    the level-m cover exactly, ordering included.
    """
    assert m <= lg.level
    order, qorder = d.p**lg.level, d.p**m
    vertex_index: dict[tuple[int, int], int] = {}
    labels = []
    for i, rep in zip(lg.vertex_base, lg.vertex_rep):
        key = (i, rep % d.fiber_size(i, m))
        if key not in vertex_index:
            vertex_index[key] = len(labels)
            labels.append((d.base.vertices[i], key[1]))
    dart_index: dict[tuple[int, int], int] = {}
    o, t = [], []
    for index in range(lg.graph.n_darts):
        e, sigma = divmod(index, order)
        key = (e, sigma % qorder)
        if key in dart_index:
            continue
        dart_index[key] = len(o)
        ends = (d.base.dart_origin[e], key[1]), (d.base.dart_terminus[e], key[1] + d.voltage[e])
        o_key, t_key = ((v, r % d.fiber_size(v, m)) for v, r in ends)
        o.append(vertex_index[o_key])
        t.append(vertex_index[t_key])
    inv = [dart_index[(d.base.dart_inverse[e], (sigma + d.voltage[e]) % qorder)] for e, sigma in dart_index]
    return SerreGraph(tuple(labels), tuple(o), tuple(t), tuple(inv))


def level_matrices(
    d: TowerDatum, n: int
) -> tuple[list[list[GroupRingElem]], list[GroupRingElem], list[int]]:
    """Voltage adjacency A_alpha over Q[Z/p^n Z], stabilizer diagonal C, degrees D.

    A_alpha[i][j] is the sum of the group elements alpha(s) over the base
    darts s from v_j to v_i; C[i] is the subgroup sum N of the level-n
    stabilizer of v_i; D holds the base degrees.
    """
    base = d.base
    m = d.p**n
    g = base.n_vertices
    a_alpha = [[GroupRingElem.zero(m) for _ in range(g)] for _ in range(g)]
    for e in range(base.n_darts):
        i, j = base.dart_terminus[e], base.dart_origin[e]
        a_alpha[i][j] = a_alpha[i][j] + GroupRingElem.basis(m, d.voltage[e] % m)
    c = [norm_element(m, d.stabilizer_order(v, n)) for v in range(g)]
    deg = [0] * g
    for e in range(base.n_darts):
        deg[base.dart_origin[e]] += 1
    return a_alpha, c, deg


def eta_direct(d: TowerDatum, n: int) -> UniPoly:
    """eta(u) by cofactor expansion straight over the group ring.

    Independent of the character route; exponential in the number of base
    vertices, so reserved for small cross-checks.
    """
    a_alpha, c, deg = level_matrices(d, n)
    m = d.p**n
    g = d.base.n_vertices
    rows = []
    for i in range(g):
        e_i = groupring_idempotent(m, d.stabilizer_order(i, n))
        row = []
        for j in range(g):
            ident = GroupRingElem.one(m) if i == j else GroupRingElem.zero(m)
            a_entry = e_i * a_alpha[i][j] * c[j]
            if i == j:
                q_entry = e_i * (d.stabilizer_order(i, n) * deg[i] - 1)
            else:
                q_entry = GroupRingElem.zero(m)
            row.append(UniPoly([ident, -a_entry, q_entry]))
        rows.append(row)
    det = det_cofactor(rows)
    return det if isinstance(det, UniPoly) else UniPoly.constant(det)


def norm_map_direct(x: UniPoly | GroupRingElem, subgroup_order: int) -> UniPoly:
    """N_{G/H} straight from the definition: cofactor determinant of the
    multiplication matrix over Q[H][u] with coset representatives 0..(G:H)-1."""
    m = _modulus_of(x)
    ph = subgroup_order
    index = m // ph
    poly = x if isinstance(x, UniPoly) else UniPoly.constant(x)

    def decompose(elem: GroupRingElem) -> list[GroupRingElem]:
        # elem = sum_i comp[i] * [i] with comp[i] in Q[H], H = <index>.
        comps = [dict() for _ in range(index)]
        for s, c in enumerate(elem.coeffs):
            if c:
                i = s % index
                t = ((s - i) // index) % ph
                comps[i][t] = comps[i].get(t, 0) + c
        return [GroupRingElem.from_dict(ph, comp) for comp in comps]

    mat = [[UniPoly() for _ in range(index)] for _ in range(index)]
    for k in range(poly.degree + 1):
        coeff = poly.coefficient(k)
        if isinstance(coeff, (int, Fraction)):
            coeff = GroupRingElem.basis(m, 0, coeff)
        if not coeff:
            continue
        for jcol in range(index):
            shifted_coeffs = [Fraction(0)] * m
            for s, c in enumerate(coeff.coeffs):
                shifted_coeffs[(s + jcol) % m] = c
            comps = decompose(GroupRingElem(m, shifted_coeffs))
            for irow in range(index):
                if comps[irow]:
                    mat[irow][jcol] = mat[irow][jcol] + UniPoly.monomial(k, 1) * UniPoly.constant(
                        comps[irow]
                    )
    for i in range(index):
        for jcol in range(index):
            if mat[i][jcol].is_zero():
                mat[i][jcol] = UniPoly.constant(GroupRingElem.zero(ph))
    det = det_cofactor(mat)
    return det if isinstance(det, UniPoly) else UniPoly.constant(det)


def galois_by_monomials(x: CycloNum, u: int) -> CycloNum:
    """sigma_u(x): zeta^i sent to zeta^(i u), the sum reduced by `CycloNum.from_monomials`."""
    return CycloNum.from_monomials(x.p, x.j, ((i * u, c) for i, c in enumerate(x.coeffs) if c))


def galois_conjugate(poly: UniPoly, u: int) -> UniPoly:
    """sigma_u (zeta -> zeta^u) applied to each coefficient; rational ones stay."""
    return poly.map_coeffs(lambda c: c.galois(u) if isinstance(c, CycloNum) else c)
