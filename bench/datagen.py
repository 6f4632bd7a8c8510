"""Seeded random tower data for the `random_batch` workload.

Each datum is drawn the way `random_datum` in `tests/conftest.py` draws
one: a connected multigraph on 1-3 vertices with at most 4 edges (loops
and multi-edges allowed), voltages in [-3, 3], each vertex unramified or
Ramified(k) with k in 0..2, p in {2, 3}, kept only if levels 1 and 2 of
the tower are connected.

A batch is stratified so that its cost does not swing with the seed.  The
cost of a datum is set by its *shape*: p, the vertex and edge counts and
the multiset of ramification choices (which fix every cover's size).  The
shapes of a batch are those of a conftest-style draw from the fixed
`SHAPE_SEED`; `--seed` redraws everything else (which vertices the edges
join, the voltages, which vertex gets which ramification).  Unstratified,
20-datum batches ranged from 6.5 s to 11.3 s over three seeds.

The generator does not import graphzeta: the connectivity test builds the
cover's vertex classes itself, so the program under test cannot influence
its own inputs.  The output is the documented datum-file format with
string vertex names.
"""

from __future__ import annotations

import random

SHAPE_SEED = 2
LEVELS_CONNECTED = 2
MAX_VERTICES = 3
MAX_EDGES = 4
MAX_K = 2
MAX_ATTEMPTS = 10_000


def cover_connected(p: int, n_vertices: int, edges, ram, n: int) -> bool:
    """Is the level-n cover connected?  `edges` holds (origin, terminus, voltage).

    Cover vertices are (v, r) with r mod the fiber size p^min(k, n) (p^n if
    v is unramified); base dart (o, t, a) joins (o, s) to (t, s + a) for
    every s mod p^n.
    """
    order = p**n
    fibers = [p**n if k is None else p ** min(k, n) for k in ram]
    offset = [sum(fibers[:v]) for v in range(n_vertices)]
    parent = list(range(sum(fibers)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for o, t, a in edges:
        for s in range(order):
            parent[find(offset[o] + s % fibers[o])] = find(offset[t] + (s + a) % fibers[t])
    return len({find(x) for x in range(len(parent))}) == 1


def admissible(p: int, n_vertices: int, edges, ram) -> bool:
    return all(cover_connected(p, n_vertices, edges, ram, n) for n in range(1, LEVELS_CONNECTED + 1))


def _conftest_draw(rng: random.Random):
    # Same draws, in the same order, as tests/conftest.py.
    p = rng.choice((2, 3))
    n = rng.randint(1, MAX_VERTICES)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, max(0, MAX_EDGES - len(pairs)))):
        pairs.append((rng.randrange(n), rng.randrange(n)))
    edges = [(o, t, rng.randint(-3, 3)) for o, t in pairs]
    ram = [None if rng.random() < 0.5 else rng.randint(0, MAX_K) for _ in range(n)]
    return p, n, edges, ram


def shapes(count: int) -> list[tuple]:
    """(p, vertices, edges, sorted ramification) of `count` admissible draws from SHAPE_SEED."""
    rng = random.Random(SHAPE_SEED)
    out = []
    while len(out) < count:
        p, n, edges, ram = _conftest_draw(rng)
        if admissible(p, n, edges, ram):
            out.append((p, n, len(edges), tuple(sorted(ram, key=lambda k: -1 if k is None else k))))
    return out


def _draw_in_shape(rng: random.Random, p: int, n: int, n_edges: int, ram_multiset):
    for _ in range(MAX_ATTEMPTS):
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n_edges - len(pairs))]
        edges = [(o, t, rng.randint(-3, 3)) for o, t in pairs]
        ram = list(ram_multiset)
        rng.shuffle(ram)
        if admissible(p, n, edges, ram):
            return edges, ram
    raise RuntimeError(f"no admissible datum of shape {(p, n, n_edges, ram_multiset)}")


def datum_doc(p: int, n_vertices: int, edges, ram) -> dict:
    names = [f"v{i}" for i in range(n_vertices)]
    return {
        "prime": p,
        "vertices": names,
        "edges": [{"from": names[o], "to": names[t], "voltage": a} for o, t, a in edges],
        "ramification": {
            names[i]: ("unramified" if k is None else k) for i, k in enumerate(ram)
        },
    }


def random_batches(seed: int, count: int, sets: int) -> list[list[dict]]:
    """`sets` batches of `count` admissible datum documents, each batch in the
    fixed shapes, drawn in turn from one stream; the same seed gives the same
    batches, and batch 0 is `random_data(seed, count)`."""
    rng = random.Random(seed)
    batch_shapes = shapes(count)
    batches = []
    for _ in range(sets):
        docs = []
        for p, n, n_edges, ram_multiset in batch_shapes:
            edges, ram = _draw_in_shape(rng, p, n, n_edges, ram_multiset)
            docs.append(datum_doc(p, n, edges, ram))
        batches.append(docs)
    return batches


def random_data(seed: int, count: int) -> list[dict]:
    """`count` admissible datum documents; the same seed gives the same documents."""
    return random_batches(seed, count, 1)[0]
