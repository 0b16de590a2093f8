import random
from itertools import combinations

import pytest

from tricolor.generators import quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph, grid_graph,
    k23_graph,
)
from tricolor.oracle import (
    SimpleGraph, TooLarge, all_paths_upto, all_secure_multigrams_slow,
    brute_force_3color, closeness_slow,
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


def test_from_plane_graph_mid_solve():
    # dead vertices and darts: the adjacency read off the dart arrays
    # equals the neighbors walk, key order and set order included
    seen_dead = []

    def audit(g, queue, C):
        sg = SimpleGraph.from_plane_graph(g)
        walk = {v: set(g.neighbors(v)) for v in g.vertex_ids()}
        assert sg.adj == walk
        assert list(sg.adj) == list(walk)
        assert all(list(sg.adj[v]) == list(walk[v]) for v in walk)
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


class TestCloseness:
    def test_adjacent_smalls_close(self):
        g = cycle_graph(4)
        assert closeness_slow(g, 0, 1)

    def test_big_vertex_never_close(self):
        g = big_hub_graph()
        assert not closeness_slow(g, 120, 0)

    def test_through_big_hub_only_via_face(self):
        g = big_hub_graph()
        # rim vertices two apart share a 4-face with the hub inside it
        assert closeness_slow(g, 0, 2)
        # antipodal rim vertices: hub path blocked (big), rim path too long
        assert not closeness_slow(g, 0, 60)


def test_all_paths_upto():
    sg = SimpleGraph.from_plane_graph(k23_graph())
    paths = all_paths_upto(sg, 0, 1, 3)
    assert sorted(p[1] for p in paths) == [2, 3, 4]
    assert all(len(p) == 3 for p in paths)
    assert all_paths_upto(sg, 0, 1, 3, excluded=frozenset((2, 3, 4))) == []
