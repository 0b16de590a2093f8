import random
from itertools import combinations

import pytest

from tricolor.embedding import DEGREE_CAP
from tricolor.generators import quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph, grid_graph,
    k23_graph,
)
from tricolor.oracle import (
    SimpleGraph, TooLarge, all_paths_upto, all_secure_multigrams_slow,
    brute_force_3color,
    enumerate_3colorings, is_proper, is_triangle_free,
)
from tricolor.solver import Solver

from conftest import small_corpus


def grotzsch_graph() -> SimpleGraph:
    """Mycielski construction over C5: triangle-free, chromatic number 4."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, (i + 1) % 5))
        edges.append((5 + i, (i - 1) % 5))
        edges.append((10, 5 + i))
    return SimpleGraph.from_edges(11, edges)


class TestBruteForce:
    def test_c5_colorable(self):
        sg = SimpleGraph.from_plane_graph(cycle_graph(5))
        col = brute_force_3color(sg)
        assert col is not None and is_proper(sg, col)

    def test_c6_two_colors_suffice(self):
        sg = SimpleGraph.from_plane_graph(cycle_graph(6))
        assert is_proper(sg, {v: v % 2 for v in range(6)})

    def test_grotzsch_not_3colorable(self):
        sg = grotzsch_graph()
        assert is_triangle_free(sg)
        assert brute_force_3color(sg) is None

    def test_cap(self):
        sg = SimpleGraph.from_edges(31, [])
        with pytest.raises(TooLarge):
            brute_force_3color(sg, cap=30)

    def test_enumeration_count_c4(self):
        sg = SimpleGraph.from_plane_graph(cycle_graph(4))
        assert sum(1 for _ in enumerate_3colorings(sg)) == 18


class TestCheckers:
    def test_proper_c4(self):
        sg = SimpleGraph.from_plane_graph(cycle_graph(4))
        assert is_proper(sg, {0: 0, 1: 1, 2: 0, 3: 1})

    def test_monochromatic_edge(self):
        sg = SimpleGraph.from_edges(2, [(0, 1)])
        assert not is_proper(sg, {0: 2, 1: 2})

    def test_missing_vertex(self):
        sg = SimpleGraph.from_edges(2, [(0, 1)])
        assert not is_proper(sg, {0: 0})

    def test_triangle_freedom(self):
        k4 = SimpleGraph.from_edges(4, [(a, b) for a in range(4)
                                        for b in range(a + 1, 4)])
        assert not is_triangle_free(k4)
        assert is_triangle_free(SimpleGraph.from_plane_graph(cube_graph()))


def has_triangle_slow(sg: SimpleGraph) -> bool:
    adj = sg.adj
    return any(b in adj[a] and c in adj[a] and c in adj[b]
               for a, b, c in combinations(sorted(adj), 3))


class TestTriangleCheck:
    def test_agrees_with_triple_search_on_corpus(self):
        for name, g in small_corpus():
            sg = SimpleGraph.from_plane_graph(g)
            assert is_triangle_free(sg) is not has_triangle_slow(sg), name

    def test_grotzsch_and_k4(self):
        k4 = SimpleGraph.from_edges(4, combinations(range(4), 2))
        for sg, free in ((grotzsch_graph(), True), (k4, False)):
            assert has_triangle_slow(sg) is not free
            assert is_triangle_free(sg) is free

    def test_random_graphs_with_a_triangle_added(self):
        for seed in range(40):
            rng = random.Random(seed)
            n, p = rng.randrange(3, 13), rng.choice((0.1, 0.2, 0.35))
            edges = {(a, b) for a, b in combinations(range(n), 2)
                     if rng.random() < p}
            sg = SimpleGraph.from_edges(n, edges)
            assert is_triangle_free(sg) is not has_triangle_slow(sg), seed
            a, b, c = sorted(rng.sample(range(n), 3))
            sg = SimpleGraph.from_edges(n, edges | {(a, b), (b, c), (a, c)})
            assert has_triangle_slow(sg) and not is_triangle_free(sg), seed

    def test_hubs(self):
        # vertices above DEGREE_CAP, adjacent hubs, and hubs whose only
        # triangle runs through one hub edge
        graphs = hub_graphs()
        for name, sg in graphs:
            assert max(map(len, sg.adj.values())) > DEGREE_CAP, name
            assert is_triangle_free(sg) is not has_triangle_slow(sg), name
        free = [name for name, sg in graphs if is_triangle_free(sg)]
        assert free == ["big hub", "double star", "K2,70"]

    def test_reads_are_linear(self):
        # every element the check reads, counted: 2m to make each
        # vertex's set, plus one lower-end tuple per edge; a check that
        # scans the higher end reads a hub's tuple once per leaf
        grid = SimpleGraph.from_plane_graph(grid_graph(7))
        for name, sg in hub_graphs() + [("grid", grid)]:
            m = sum(map(len, sg.adj.values())) // 2
            bound = 2 * m + sum(min(len(sg.adj[u]), len(sg.adj[w]))
                                for u, w in sg.edges())
            Counted.reads = 0
            is_triangle_free(SimpleGraph({v: Counted(ws)
                                          for v, ws in sg.adj.items()}))
            assert 0 < Counted.reads <= bound, (name, Counted.reads, bound)


class Counted(tuple):
    """A neighbor tuple that counts the elements read from it."""

    reads = 0

    def __iter__(self):
        for w in tuple.__iter__(self):
            Counted.reads += 1
            yield w


def hub_graphs() -> list[tuple[str, SimpleGraph]]:
    """Triangle-free graphs with hubs above DEGREE_CAP, each followed by
    a copy with one triangle through a hub edge."""
    hub = SimpleGraph.from_plane_graph(big_hub_graph())
    n = len(hub)
    # the hub, vertex 120, is adjacent to every even rim vertex, so the
    # chord 0-2 closes a triangle
    hub_edges = list(hub.edges()) + [(0, 2)]
    # double star: hubs 0 and 1, adjacent, with the even and odd leaves
    star = [(0, 1)] + [(i % 2, i) for i in range(2, 142)]
    k2n = [(h, i) for i in range(2, 72) for h in (0, 1)]
    return [
        ("big hub", hub),
        ("big hub + rim chord", SimpleGraph.from_edges(n, hub_edges)),
        ("double star", SimpleGraph.from_edges(142, star)),
        ("double star + leaf edge", SimpleGraph.from_edges(142, star + [(0, 3)])),
        ("K2,70", SimpleGraph.from_edges(72, k2n)),
        ("K2,70 + pendant triangle",
         SimpleGraph.from_edges(73, k2n + [(0, 72), (2, 72)])),
    ]


def test_from_plane_graph_mid_solve():
    # dead vertices and darts: the adjacency read off the dart arrays
    # equals the neighbors walk as tuples, key order and rotation order
    # included
    seen_dead = []

    def audit(g, queue, C):
        sg = SimpleGraph.from_plane_graph(g)
        walk = {v: tuple(g.neighbors(v)) for v in g.vertex_ids()}
        assert sg.adj == walk
        assert list(sg.adj) == list(walk)
        seen_dead.append(g.n_alive < len(g.v_alive)
                         and not all(o >= 0 for o in g.d_origin))

    for g in (quad(40, 0), dodecahedron_graph(), grid_graph(6)):
        Solver(g, audit=audit).run()
    assert sum(seen_dead) > 50


class TestSecureEnumeration:
    def test_nonempty_on_corpus(self):
        for name, g in small_corpus():
            if g.n_alive:
                assert all_secure_multigrams_slow(g), name

    def test_cube_tetragram_at_every_vertex(self):
        g = cube_graph()
        pivots = {m.pivot for m in all_secure_multigrams_slow(g)
                  if m.kind == "tetragram"}
        assert pivots == set(range(8))

    def test_dodecahedron_kinds(self):
        g = dodecahedron_graph()
        kinds = {m.kind for m in all_secure_multigrams_slow(g)}
        assert "decagram" in kinds and "monogram" not in kinds

    def test_cap(self):
        with pytest.raises(TooLarge):
            all_secure_multigrams_slow(grid_graph(15))


def test_all_paths_upto():
    sg = SimpleGraph.from_plane_graph(k23_graph())
    paths = all_paths_upto(sg, 0, 1, 3)
    assert sorted(p[1] for p in paths) == [2, 3, 4]
    assert all(len(p) == 3 for p in paths)
    assert all_paths_upto(sg, 0, 1, 3, excluded=frozenset((2, 3, 4))) == []
