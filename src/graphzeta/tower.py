"""Branched towers of graph covers built from integer voltage assignments.

A tower datum is a nonempty connected base graph, a prime p, an antisymmetric
integer voltage on the darts, and a ramification choice per vertex:
either unramified (trivial stabilizer at every level) or Ramified(k),
meaning the level-n stabilizer is the subgroup p^min(k,n) Z/p^n Z.

The level-n cover has vertex fiber {cosets of the stabilizer} over each
base vertex and dart fiber Z/p^n Z over each base dart; the dart (s, sigma)
runs from (o(s), sigma) to (t(s), sigma + voltage(s)), cosets taken on both
ends, and its inverse is (sbar, sigma + voltage(s)).  Vertex and dart
orderings are lexicographic (base index, then representative), so matrix
output and golden files are stable: the vertex (v, r) is at index r plus
the fiber sizes of the base vertices before v, and the dart (s, sigma) at
index s p^n + sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import DatumError
from .graphs import SerreGraph, connected, euler_characteristic, validate_graph

__all__ = [
    "LevelGraph",
    "TowerDatum",
    "build_level_graph",
    "level_connected",
    "level_shape",
    "ramification_profile",
    "tower_euler_char",
]


@dataclass(frozen=True)
class TowerDatum:
    """Base graph + prime + voltage assignment + ramification family.

    The prime must be below 2^64: `linalg.is_probable_prime` is exact there,
    and level 1 of a larger p would have at least 2^64 vertices anyway.
    """

    base: SerreGraph
    p: int
    voltage: tuple[int, ...]
    ram: tuple[int | None, ...]  # None = unramified, k >= 0 = Ramified(k)

    def __post_init__(self):
        validate_graph(self.base)
        if self.p >= 2**64:
            raise DatumError("prime must be below 2^64")
        if not linalg.is_probable_prime(self.p):
            raise DatumError(f"{self.p} is not prime")
        if len(self.voltage) != self.base.n_darts:
            raise DatumError("voltage must assign an integer to every dart")
        for e in range(self.base.n_darts):
            if self.voltage[e] != -self.voltage[self.base.dart_inverse[e]]:
                raise DatumError(f"voltage is not antisymmetric at dart {e}")
        if len(self.ram) != self.base.n_vertices:
            raise DatumError("ramification must cover every vertex")
        for k in self.ram:
            if k is not None and (not isinstance(k, int) or k < 0):
                raise DatumError(f"ramification exponent must be a nonnegative integer, got {k!r}")
        if not self.base.n_vertices:
            raise DatumError("base graph has no vertices")
        if not connected(self.base):
            raise DatumError("base graph not connected")

    @property
    def ramified_vertices(self) -> list[int]:
        return [i for i, k in enumerate(self.ram) if k is not None]

    @property
    def unramified_vertices(self) -> list[int]:
        return [i for i, k in enumerate(self.ram) if k is None]

    @property
    def n1(self) -> int:
        """Maximal ramification exponent (0 for an unramified datum)."""
        ks = [k for k in self.ram if k is not None]
        return max(ks) if ks else 0

    def fiber_size(self, v: int, n: int) -> int:
        """Number of level-n vertices above v: the stabilizer's index."""
        k = self.ram[v]
        if k is None:
            return self.p**n
        return self.p ** min(k, n)

    def stabilizer_order(self, v: int, n: int) -> int:
        k = self.ram[v]
        if k is None:
            return 1
        return self.p ** (n - min(k, n))


@dataclass(frozen=True)
class LevelGraph:
    """A level of the tower, with its labels back to the base."""

    graph: SerreGraph
    level: int
    vertex_base: tuple[int, ...]
    vertex_rep: tuple[int, ...]


def build_level_graph(d: TowerDatum, n: int) -> LevelGraph:
    if n < 0:
        raise DatumError("level must be nonnegative")
    p, base = d.p, d.base
    order = p**n
    vertex_index: dict[tuple[int, int], int] = {}
    labels = []
    vbase, vrep = [], []
    for i, v in enumerate(base.vertices):
        for rep in range(d.fiber_size(i, n)):
            vertex_index[(i, rep)] = len(labels)
            labels.append((v, rep))
            vbase.append(i)
            vrep.append(rep)
    o, t, inv = [], [], []
    for e in range(base.n_darts):
        a = d.voltage[e] % order
        fo = d.fiber_size(base.dart_origin[e], n)
        ft = d.fiber_size(base.dart_terminus[e], n)
        for sigma in range(order):
            o.append(vertex_index[(base.dart_origin[e], sigma % fo)])
            t.append(vertex_index[(base.dart_terminus[e], (sigma + a) % ft)])
            inv.append(base.dart_inverse[e] * order + (sigma + a) % order)
    graph = SerreGraph(tuple(labels), tuple(o), tuple(t), tuple(inv))
    return LevelGraph(graph, n, tuple(vbase), tuple(vrep))


def ramification_profile(d: TowerDatum, n: int) -> list[tuple[int, int]]:
    """Per base vertex: (fiber size, ramification index m_{v,n})."""
    return [(d.fiber_size(v, n), d.stabilizer_order(v, n)) for v in range(d.base.n_vertices)]


def tower_euler_char(d: TowerDatum, n: int) -> int:
    """Euler characteristic of the level-n cover (Riemann-Hurwitz form)."""
    p = d.p
    chi_base = euler_characteristic(d.base)
    branch = sum(
        d.fiber_size(v, n) * (d.stabilizer_order(v, n) - 1) for v in d.ramified_vertices
    )
    return p**n * chi_base - branch


def level_shape(d: TowerDatum, n: int) -> tuple[int, int, int]:
    """(|V_n|, |E_n|, chi(X_n)) of the level-n cover, from the datum alone.

    |V_n| sums the fiber sizes p^min(k_v, n) (p^n at an unramified v),
    |E_n| = p^n |E|, and chi(X_n) is `tower_euler_char`.
    """
    n_vertices = sum(d.fiber_size(v, n) for v in range(d.base.n_vertices))
    return n_vertices, d.p**n * d.base.n_edges, tower_euler_char(d, n)


def level_connected(d: TowerDatum, n: int) -> bool:
    """Whether the level-n cover is connected, decided on the level-1 cover.

    Level 0 is the base, which is connected.  For n >= 1 let S be the
    subgroup of Z/p^n Z generated by the voltages of the closed walks at a
    base vertex v0 and by the stabilizers p^min(k_v, n) Z/p^n Z of the
    ramified v.  A lifted walk adds its voltage to the sheet, and at
    (v, sigma) it may leave by any dart (s, sigma') with
    sigma' = sigma mod p^min(k_v, n); walking from v0 to v, moving within
    the fiber and walking back adds only the stabilizer's element, as the
    group is abelian.  So the vertices over v0 reachable from (v0, 0) are
    the classes of S, and S contains the stabilizer of v0.  Every vertex
    of X_n is joined to the fiber over v0 by a lifted path, so X_n is
    connected iff S = Z/p^n Z.  The subgroups of Z/p^n Z form the chain
    p^a Z/p^n Z, so S is everything iff one generator is prime to p: a
    closed-walk voltage prime to p, or a vertex with k_v = 0 (p^min(k_v, n)
    with n >= 1 is a unit only then).  Neither depends on n, so X_n is
    connected iff X_1 is.
    """
    return n == 0 or connected(build_level_graph(d, 1).graph)

