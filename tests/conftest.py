"""Shared corpus builders.

Graphs are mutable, so fixtures hand out factories / fresh builds, never
shared instances.
"""

from __future__ import annotations

import pytest

from tricolor.embedding import PlaneGraph, build, validate
from tricolor.generators import augmented, grid, quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph, grid_graph,
    hexagram_flower, k23_graph, path_graph, pentagram_flower,
)
from tricolor.oracle import SimpleGraph, facial_cycles, is_triangle_free
from tricolor.solver import Solver, TriangleFound

#: frozen regression constant for queue insertions per vertex on grids
#: (measured 1.000 on pristine grids; +10% tolerance)
GRID_INSERTIONS_PER_VERTEX = 1.1

HAND_BUILDERS = [
    ("c4", lambda: cycle_graph(4)),
    ("c5", lambda: cycle_graph(5)),
    ("c6", lambda: cycle_graph(6)),
    ("k23", k23_graph),
    ("cube", cube_graph),
    ("dodecahedron", dodecahedron_graph),
    ("grid3x3", lambda: grid_graph(3)),
    ("path5", lambda: path_graph(5)),
    ("pentagram_flower", pentagram_flower),
    ("hexagram_flower", hexagram_flower),
    ("big_hub", big_hub_graph),
]


def generated_small_builders():
    """The deterministic generated corpus with n <= 12."""
    out = []
    for size in range(4, 13):
        for seed in (0, 1):
            out.append((f"quad{size}s{seed}", lambda s=size, r=seed: quad(s, r)))
    for size in range(6, 13, 2):
        for seed in (0, 1):
            out.append((f"aug{size}s{seed}",
                        lambda s=size, r=seed: augmented(s, r)))
    for seed in (0, 1, 2):
        out.append((f"grid3d{seed}", lambda r=seed: grid(3, 0.3, r)))
    out.append(("grid2", lambda: grid(2)))
    return out


def small_corpus_builders():
    return HAND_BUILDERS + generated_small_builders()


def small_corpus():
    return [(name, make()) for name, make in small_corpus_builders()]


def run_small_corpus(audit=None, extra=()) -> list[Solver]:
    """Solve the small corpus, and the ``(name, graph)`` pairs in
    ``extra``, plain and precolored on each graph's first two facial 4-
    or 5-cycles, calling ``audit`` at every loop head; returns the
    solvers after their runs."""
    solvers = []
    for name, g in small_corpus() + list(extra):
        cycles = [vs for vs, _ in facial_cycles(g) if len(vs) in (4, 5)]
        for phi in [None] + [dict(zip(cyc, (0, 1, 0, 1, 2)))
                             for cyc in cycles[:2]]:
            solver = Solver(g.copy(), precoloring=phi, audit=audit)
            solver.run()
            solvers.append(solver)
    return solvers


def disjoint_union(graphs: list[PlaneGraph]) -> PlaneGraph:
    """Disjoint union, each graph's ids shifted past the previous ones."""
    rot: list[list[int]] = []
    for g in graphs:
        base = len(rot)
        rot.extend([base + w for w in g.neighbors(v)]
                   for v in range(len(g.v_alive)))
    return build(rot)


def gadget_union() -> PlaneGraph:
    """Both hub graphs and four copies of each hand-built configuration;
    solving it fails searches, so the footprint index fills."""
    return disjoint_union(
        [big_hub_graph(), big_hub_graph(pendant=False)]
        + [make() for make in (pentagram_flower, hexagram_flower,
                               cube_graph, dodecahedron_graph, k23_graph)
           for _ in range(4)])


def validating_audit(g, queue, C):
    """Solver audit hook: full structural check and triangle test at
    every loop head, so after every reduction."""
    validate(g)
    if not is_triangle_free(SimpleGraph.from_plane_graph(g)):
        raise TriangleFound("graph has a triangle")


@pytest.fixture(scope="session")
def corpus_builders():
    return small_corpus_builders()
