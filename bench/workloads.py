"""The benchmark's workloads: seeded inputs, handed to the library as text.

Set-up generates each instance, validates it (embedding invariants and
triangle-freeness), serializes it, and keeps a ``SimpleGraph`` of it as
the reference for the correctness check.

    grid       one 200 x 200 grid (the family acceptance criterion 7
               gates).  Every reduction is a monogram and closeness
               balls are tiny, so text I/O, build and validate carry
               the largest share; it bypasses re-insertion changes.
    augmented  four 5k-vertex augmented quadrangulations (odd faces,
               degrees up to 10): close_set and edge_vicinity are about
               two thirds of solve time.
    gadgets    three disjoint unions of the hand-built configurations
               in tricolor.instances, each relabeled so that its
               intended pivot is popped first: the only workload where
               all six reductions fire, and the big-vertex path too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from tricolor import embedding, graphio, instances, oracle
from tricolor.embedding import PlaneGraph
from tricolor.generators import GenSpec, generate

# Expected reductions per gadget union (see _gadget_union).  A run fails
# its correctness check if any instance fires fewer than half of these,
# so the coverage workload cannot silently degrade to monograms.
GADGET_UNION_KINDS = {
    "monogram": 4193, "tetragram": 602, "octagram": 30, "decagram": 200,
    "pentagram": 100, "hexagram": 300,
}
KIND_FLOOR = {kind: count // 2 for kind, count in GADGET_UNION_KINDS.items()}


@dataclass(frozen=True)
class Instance:
    text: str
    vertices: int
    reference: oracle.SimpleGraph
    initial_queue: int          # vertices of degree <= 3 in the input


@dataclass(frozen=True)
class Workload:
    """``graphs(seed)``: the validated instances.  ``doubling(seed)``:
    one instance of size n and one of size 2n, for the traced run's
    doubling row.  ``warmup()``: a small graph of the same family,
    colored once before timing.  ``kind_floor``: the fewest reductions
    of each kind that every coloring must fire."""

    name: str
    graphs: Callable[[int], list[PlaneGraph]]
    doubling: Callable[[int], tuple[PlaneGraph, PlaneGraph]]
    warmup: Callable[[], PlaneGraph]
    kind_floor: dict[str, int]


def prepare(graphs: list[PlaneGraph]) -> list[Instance]:
    """Serialize validated graphs and extract their references."""
    out = []
    for g in graphs:
        ref = oracle.SimpleGraph.from_plane_graph(g)
        low = sum(1 for nbrs in ref.adj.values() if len(nbrs) <= 3)
        out.append(Instance(graphio.serialize(g), len(ref), ref, low))
    return out


# ----------------------------------------------------------------------
# grid and augmented: the library's own generators

def _grid(size: int, seed: int) -> PlaneGraph:
    # No deletions: a deleted edge leaves two interior vertices of degree
    # 3 in the initial queue, and tetragrams cascade from them.  The
    # full grid is the same for every seed.
    return generate(GenSpec("grid", size, seed=seed))


def _augmented_many(count: int, size: int, seed: int) -> list[PlaneGraph]:
    rng = random.Random(seed)
    return [generate(GenSpec("augmented", size, seed=rng.randrange(1 << 30)))
            for _ in range(count)]


# ----------------------------------------------------------------------
# gadgets: disjoint unions of hand-built configurations

def _rotations(g: PlaneGraph) -> list[list[int]]:
    return [list(g.neighbors(v)) for v in range(len(g.v_alive))]


def _pivots_first(rot: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """Relabel so that ``pivots`` get the lowest ids, in order; the
    solver's initial queue is in id order."""
    first = set(pivots)
    order = list(pivots) + [v for v in range(len(rot)) if v not in first]
    new = {old: i for i, old in enumerate(order)}
    out: list[list[int]] = [[] for _ in rot]
    for old, nbrs in enumerate(rot):
        out[new[old]] = [new[w] for w in nbrs]
    return out


def _hub_cubes(cubes: int = 30, leaves: int = 60) -> list[list[int]]:
    """Octagram gadget: ``cubes`` cubes, each with corner 0 replaced by
    one edge from its neighbour a to a shared hub, plus ``leaves``
    pendant leaves that keep the hub big (degree >= 60) while every
    octagram fires.  At a, the only 4-face is the cube face away from
    the hub; its tetragram is insecure because a's third neighbour (the
    hub) is big, and the octagram there is secure."""
    cube = _rotations(instances.cube_graph())
    a = cube[0][0]
    rot: list[list[int]] = [[]]
    pivots = []
    for _ in range(cubes):
        ids = {v: len(rot) + v - 1 for v in range(1, 8)}
        ids[0] = 0
        for v in range(1, 8):
            rot.append([ids[w] for w in cube[v] if w != 0 or v == a])
        rot[0].append(ids[a])
        pivots.append(ids[a])
    for _ in range(leaves):
        rot[0].append(len(rot))
        rot.append([0])
    return _pivots_first(rot, pivots)


def _gadget_kinds() -> list[tuple[list[list[int]], int]]:
    """(rotations with the pivot first, copies per union).  Per copy:
    dodecahedron 2 decagrams, pentagram flower 1 pentagram + 1
    tetragram, hexagram flower 3 hexagrams + 3 tetragrams, cube 2
    tetragrams, big hub 1 tetragram absorbed into the big vertex, hub
    cubes 30 octagrams."""
    return [
        (_pivots_first(_rotations(instances.dodecahedron_graph()), [0]), 100),
        (_pivots_first(_rotations(instances.pentagram_flower()), [0]), 100),
        (_pivots_first(_rotations(instances.hexagram_flower()), [0]), 100),
        (_pivots_first(_rotations(instances.cube_graph()), [0]), 100),
        (_pivots_first(_rotations(instances.big_hub_graph()), [1]), 2),
        (_hub_cubes(), 1),
    ]


def _gadget_union(rng: random.Random, scale: float = 1.0) -> PlaneGraph:
    parts = [rot for rot, copies in _gadget_kinds()
             for _ in range(max(1, int(copies * scale)))]
    rng.shuffle(parts)
    union: list[list[int]] = []
    for rot in parts:
        base = len(union)
        union.extend([base + w for w in nbrs] for nbrs in rot)
    g = embedding.build(union)
    embedding.validate(g)
    if not oracle.is_triangle_free(oracle.SimpleGraph.from_plane_graph(g)):
        raise ValueError("gadget union has a triangle")
    return g


def _gadget_unions(count: int, seed: int) -> list[PlaneGraph]:
    rng = random.Random(seed)
    return [_gadget_union(rng) for _ in range(count)]


def _gadget_doubling(seed: int) -> tuple[PlaneGraph, PlaneGraph]:
    rng = random.Random(seed)
    return _gadget_union(rng), _gadget_union(rng, 2)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "grid",
            lambda seed: [_grid(40_000, seed)],
            lambda seed: (_grid(10_000, seed), _grid(20_000, seed)),
            lambda: _grid(900, 0),
            {},
        ),
        Workload(
            "augmented",
            lambda seed: _augmented_many(4, 5_000, seed),
            lambda seed: (_augmented_many(1, 5_000, seed)[0],
                          _augmented_many(1, 10_000, seed)[0]),
            lambda: _augmented_many(1, 500, 0)[0],
            {},
        ),
        Workload(
            "gadgets",
            lambda seed: _gadget_unions(3, seed),
            _gadget_doubling,
            lambda: _gadget_union(random.Random(0), 0.05),
            KIND_FLOOR,
        ),
    )
}
