import importlib
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import settings

import graphzeta
from graphzeta.graphs import SerreGraph, connected
from graphzeta.tower import TowerDatum, build_level_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Property tests draw the same examples on every run and have no time limit per example.
settings.register_profile("graphzeta", derandomize=True, deadline=None, database=None)
settings.load_profile("graphzeta")


@pytest.fixture
def double_edge_datum() -> TowerDatum:
    """Two vertices joined by two edges, p = 2, voltages 1 and 2, v2 Ramified(1)."""
    g = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    return TowerDatum(g, 2, (1, -1, 2, -2), (None, 1))


@pytest.fixture
def triangle_graph() -> SerreGraph:
    return SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def random_connected_graph(rng: random.Random, max_vertices: int, max_edges: int) -> SerreGraph:
    """Random connected multigraph (loops and multi-edges allowed)."""
    n = rng.randint(1, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    budget = max_edges - len(edges)
    for _ in range(rng.randint(0, max(0, budget))):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return SerreGraph.from_edges(list(range(n)), edges)


def random_datum(
    rng: random.Random,
    p: int,
    max_vertices: int = 3,
    max_edges: int = 4,
    max_k: int = 2,
    levels_connected: int = 2,
) -> TowerDatum | None:
    """One random tower datum whose low levels are connected, or None."""
    base = random_connected_graph(rng, max_vertices, max_edges)
    volt = [0] * base.n_darts
    for e in range(base.n_darts):
        if e < base.dart_inverse[e]:
            v = rng.randint(-3, 3)
            volt[e] = v
            volt[base.dart_inverse[e]] = -v
    ram = tuple(
        None if rng.random() < 0.5 else rng.randint(0, max_k) for _ in range(base.n_vertices)
    )
    datum = TowerDatum(base, p, tuple(volt), ram)
    for n in range(1, levels_connected + 1):
        if not connected(build_level_graph(datum, n).graph):
            return None
    return datum


def collect_random_data(seed: int, count: int, p_choices=(2, 3), **kwargs) -> list[TowerDatum]:
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < 60 * count:
        attempts += 1
        datum = random_datum(rng, rng.choice(p_choices), **kwargs)
        if datum is not None:
            found.append(datum)
    assert len(found) == count, f"only {len(found)} admissible data in {attempts} attempts"
    return found


def chorded_heptagon(p: int = 2) -> TowerDatum:
    """A 7-cycle with the chord (0, 3), voltage 1 on two edges, vertex 0 Ramified(1).

    Seven base vertices give 7 x 7 polynomial determinants, beyond what a
    cofactor expansion handles quickly.
    """
    g = SerreGraph.from_edges(list(range(7)), [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    return TowerDatum(g, p, (1, -1) + (0, 0) * 6 + (1, -1), (1,) + (None,) * 6)


def modules_naming(name: str) -> list[str]:
    """The graphzeta modules (the package as "graphzeta") that bind name or mention it in their source."""
    modules = [graphzeta] + [
        importlib.import_module(f"graphzeta.{info.name}") for info in pkgutil.iter_modules(graphzeta.__path__)
    ]
    return [
        module.__name__.removeprefix("graphzeta.")
        for module in modules
        if hasattr(module, name) or name in Path(module.__file__).read_text()
    ]
