"""Finite graphs with paired directed edges, and their zeta invariants.

A graph is a vertex list together with a dart (directed edge) list; every
dart has an origin, a terminus, and a distinguished inverse dart.  The
inversion pairing is a fixed-point-free involution, so the dart count is
even and the undirected edge count is half of it.  Loops are allowed (a
dart with equal endpoints paired with a distinct inverse) and contribute
two to both the degree and the adjacency diagonal; multi-edges are allowed.

The zeta invariants are integer data: h(u) and chi with
Z(u)^-1 = (1-u^2)^(-chi) h(u), the reduced closed path counts N_k, and
the N_k that h and chi predict, so the Euler product
Z(u) = exp(sum N_k u^k / k) is checked without power series.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import GraphError
from .poly import UniPoly

__all__ = [
    "SerreGraph",
    "adjacency_and_degree",
    "connected",
    "euler_characteristic",
    "ihara_zeta_reciprocal",
    "path_counts_from_zeta",
    "reduced_closed_path_counts",
    "spanning_tree_count",
    "validate_graph",
]


@dataclass(frozen=True)
class SerreGraph:
    """Vertices plus darts with incidence maps and inversion pairing."""

    vertices: tuple
    dart_origin: tuple[int, ...]
    dart_terminus: tuple[int, ...]
    dart_inverse: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_darts(self) -> int:
        return len(self.dart_origin)

    @property
    def n_edges(self) -> int:
        return len(self.dart_origin) // 2

    @staticmethod
    def from_edges(vertices, edges) -> "SerreGraph":
        """Build from undirected edges given as (origin, terminus) pairs of vertex labels.

        Each pair contributes the dart pair (2i, 2i+1); GraphError for an
        endpoint that is not a label.
        """
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        o, t, inv = [], [], []
        for k, (a, b) in enumerate(edges):
            for v in (a, b):
                if v not in index:
                    raise GraphError(f"edge {k}: endpoint {v!r} is not a vertex label")
            ia, ib = index[a], index[b]
            o += [ia, ib]
            t += [ib, ia]
            inv += [2 * k + 1, 2 * k]
        return SerreGraph(vertices, tuple(o), tuple(t), tuple(inv))


def validate_graph(g: SerreGraph) -> None:
    """Check the Serre-graph invariants, reporting the first violation."""
    n, d = g.n_vertices, g.n_darts
    if not (len(g.dart_terminus) == len(g.dart_inverse) == d):
        raise GraphError("dart arrays have mismatched lengths")
    if d % 2:
        raise GraphError("dart count must be even")
    for e in range(d):
        for arr, what in ((g.dart_origin, "origin"), (g.dart_terminus, "terminus")):
            if not 0 <= arr[e] < n:
                raise GraphError(f"dart {e} has dangling {what} reference {arr[e]}")
        if not 0 <= g.dart_inverse[e] < d:
            raise GraphError(f"dart {e} has dangling inverse reference")
    for e in range(d):
        ebar = g.dart_inverse[e]
        if ebar == e:
            raise GraphError(f"inversion has a fixed point at dart {e}")
        if g.dart_inverse[ebar] != e:
            raise GraphError(f"inversion is not an involution at dart {e}")
        if g.dart_origin[ebar] != g.dart_terminus[e] or g.dart_terminus[ebar] != g.dart_origin[e]:
            raise GraphError(f"incidence mismatch between dart {e} and its inverse")


def euler_characteristic(g: SerreGraph) -> int:
    return g.n_vertices - g.n_edges


def adjacency_and_degree(g: SerreGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Adjacency matrix A (A[i][j] = darts from v_j to v_i) and degree matrix."""
    n = g.n_vertices
    a = [[0] * n for _ in range(n)]
    deg = [[0] * n for _ in range(n)]
    for e in range(g.n_darts):
        a[g.dart_terminus[e]][g.dart_origin[e]] += 1
        deg[g.dart_origin[e]][g.dart_origin[e]] += 1
    return a, deg


def connected(g: SerreGraph) -> bool:
    if g.n_vertices == 0:
        return True
    adj = [[] for _ in range(g.n_vertices)]
    for e in range(g.n_darts):
        adj[g.dart_origin[e]].append(g.dart_terminus[e])
    seen = [False] * g.n_vertices
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return all(seen)


def spanning_tree_count(g: SerreGraph) -> int:
    """Exact spanning-tree count via a principal minor of the Laplacian."""
    if not connected(g):
        raise GraphError("graph not connected")
    n = g.n_vertices
    if n <= 1:
        return 1
    a, deg = adjacency_and_degree(g)
    minor = [
        [deg[i][j] - a[i][j] for j in range(1, n)] for i in range(1, n)
    ]
    count = linalg.det_int(minor)
    if count <= 0:
        raise GraphError(f"matrix-tree determinant came out nonpositive: {count}")
    return count


def reduced_closed_path_counts(g: SerreGraph, k_max: int) -> list[int]:
    """N_1..N_k: traces of powers of the non-backtracking dart matrix B.

    B[e][f] = [t(e) = o(f)] - [f = inv e], so (P B)[e][f] = S[e][o(f)] - P[e][inv f]
    with S[e][v] the sum of P[e][g] over the darts g ending at v: one
    `np.add.reduceat` over the darts sorted by terminus, O(darts^2) a power.
    Every entry of B^k, and every S, is at most a row sum, (max deg - 1)^k,
    and the trace at most n_darts times that: int64 while that bound for
    k_max is below 2^63, Python integers otherwise.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    widest = max(Counter(g.dart_origin).values(), default=1) - 1
    dtype = np.int64 if g.n_darts * widest**k_max < 1 << 63 else object
    by_terminus = np.argsort(g.dart_terminus, kind="stable")
    ends, starts = np.unique(np.array(g.dart_terminus, dtype=np.int64)[by_terminus], return_index=True)
    origin = np.searchsorted(ends, g.dart_origin)  # o(f) is the terminus of inv f
    power, counts = np.eye(g.n_darts, dtype=dtype), []
    for _ in range(k_max):
        ends_sum = np.add.reduceat(power[:, by_terminus], starts, axis=1)
        power = ends_sum[:, origin] - power[:, list(g.dart_inverse)]
        counts.append(int(power.trace()))
    return counts


def path_counts_from_zeta(h: UniPoly, chi: int, k_max: int) -> list[int]:
    """N_1..N_k that Z(u)^-1 = (1-u^2)^(-chi) h(u) predicts, h(0) = 1.

    The Euler product gives u d/du log Z(u) = sum N_k u^k.  Multiplied by
    f = (1-u^2) h, a unit of Z[[u]], this is the polynomial
    g = -2 chi u^2 h - u (1-u^2) h', so N_k = g_k - sum_{0<i<k} f_i N_(k-i).
    Two series with constant term 1 agree through u^k exactly when their
    logarithmic derivatives do, so comparing these N_k with the path counts
    checks exp(sum N_k u^k / k) = Z(u) through u^k_max.
    """
    if h.coefficient(0) != 1:
        raise ValueError("h(0) must be 1")
    one_minus = UniPoly([1, 0, -1])
    f = one_minus * h
    g = (-2 * chi * h).shift(2) - (one_minus * h.derivative()).shift(1)
    counts = [0]  # N_0, so that counts[k] = N_k
    for k in range(1, k_max + 1):
        counts.append(g.coefficient(k) - sum(f.coefficient(i) * counts[k - i] for i in range(1, k)))
    return counts[1:]


def ihara_zeta_reciprocal(g: SerreGraph) -> tuple[UniPoly, int]:
    """(h(u), chi) with h = det(I - Au + (D - I)u^2); Z^-1 = (1-u^2)^(-chi) h.

    The matrix goes to `linalg.det_cyclotomic_poly` at j = 0 as sparse terms
    (r, c, 0, d, coeff): -u for each dart, into row terminus and column
    origin, and 1 and (deg v - 1) u^2 on the diagonal.  Above 28 vertices h is
    det(I - u W), W = [[A, I - D], [I, 0]]: one characteristic polynomial per prime.
    """
    n = g.n_vertices
    degree = Counter(g.dart_origin)
    terms = [(t, o, 0, 1, -1) for o, t in zip(g.dart_origin, g.dart_terminus)]
    for v in range(n):
        terms += [(v, v, 0, 0, 1), (v, v, 0, 2, degree[v] - 1)]
    # j = 0: the integer determinant, one coordinate per u-degree; p plays no role there, so pass 2
    return UniPoly(row[0] for row in linalg.det_cyclotomic_poly([(n, terms, 0)], 2)[0]), euler_characteristic(g)
