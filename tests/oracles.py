"""Brute-force oracles, kept independent of the library code paths they check."""

from fractions import Fraction
from itertools import combinations

from graphzeta.cyclo import CycloNum, zeta
from graphzeta.graphs import SerreGraph
from graphzeta.lfunctions import characters, special_values


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
        power = root ** ((a * order // p**n * s) % order)
        acc = acc + (c.lift(level) if isinstance(c, CycloNum) else c) * power
    return acc


def orbit_special_products_by_characters(d, n: int) -> dict[int, Fraction]:
    """N_j = prod h(1, psi) over ord(psi) = p^j, multiplied out in Q(zeta_{p^j}) per character."""
    p = d.p
    out = {}
    for j in range(1, n + 1):
        prod = CycloNum.rational(p, 1, j)
        for psi in characters(p, n):
            if psi.order_exponent == j:
                prod = prod * special_values(d, n, psi).h_at_one.lift(j)
        assert prod.is_rational()
        out[j] = prod.to_rational()
    return out
