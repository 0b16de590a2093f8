import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricolor.embedding import (
    EmbeddingCorruption, EmbeddingError, NonPlanarEmbedding, PlaneGraph,
    RecordingGraph, build, validate,
)
from tricolor.generators import quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, grid_graph, path_graph,
    star_graph,
)
from tricolor.multigram import admissible
from tricolor.oracle import SimpleGraph, face_orbits


def components(g):
    sg = SimpleGraph.from_plane_graph(g)
    seen, count = set(), 0
    for v in sg.adj:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in sg.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


class TestBuild:
    def test_four_cycle(self):
        g = cycle_graph(4)
        assert (g.n_alive, g.m_alive) == (4, 4)
        orbits = face_orbits(g)
        assert sorted(len(o) for o in orbits) == [4, 4]

    def test_cube_face_count(self):
        g = cube_graph()
        assert (g.n_alive, g.m_alive) == (8, 12)
        orbits = face_orbits(g)
        assert len(orbits) == 6
        assert all(len(o) == 4 for o in orbits)

    def test_asymmetric_rotation(self):
        with pytest.raises(EmbeddingError, match="missing from the rotation"):
            build([[1], []])

    def test_duplicate_edge(self):
        with pytest.raises(EmbeddingError, match="twice"):
            build([[1, 1], [0, 0]])

    def test_self_loop(self):
        with pytest.raises(EmbeddingError, match="lists itself"):
            build([[0]])

    def test_nonplanar_k5(self):
        rot = [[w for w in range(5) if w != v] for v in range(5)]
        with pytest.raises(NonPlanarEmbedding):
            build(rot)

    def test_empty_graph(self):
        g = build([])
        assert g.n_alive == 0 and g.m_alive == 0


class TestFaceTracing:
    def test_cycle_walk(self):
        g = cycle_graph(4)
        assert len(g.trace_face(0)) == 4

    def test_tree_single_walk(self):
        g = path_graph(4)
        assert len(g.trace_face(0)) == 2 * g.m_alive

    def test_dead_dart(self):
        g = cycle_graph(4)
        g.remove_edge(0)
        with pytest.raises(EmbeddingError, match="dead dart"):
            g.trace_face(0)

    def test_orbits_partition_darts(self):
        g = cube_graph()
        seen = []
        for orbit in face_orbits(g):
            seen.extend(orbit)
        assert sorted(seen) == [d for d in range(len(g.d_origin))
                                if g.d_alive[d]]


class TestReadRecording:
    """On a graph switched to RecordingGraph, the finder's read
    primitives log every vertex whose degree, rotation or dart identity
    they read; the plain class logs nothing."""

    def test_plain_graph_records_nothing(self):
        g = cube_graph()
        list(g.neighbors(0))
        g.walk_face(0, 7)
        g.dart_between(0, 1)
        assert g.reads == []

    def test_open_walk_records_the_next_origin(self):
        # the rotation at the head of the last dart was read to find
        # that the walk goes on
        g = cycle_graph(9)
        g.__class__ = RecordingGraph
        walk, closed = g.walk_face(0, 3)
        g.__class__ = PlaneGraph
        assert not closed
        assert g.reads == [g.d_origin[e] for e in walk] + [g.head(walk[-1])]

    def test_neighbors_and_head(self):
        g = cube_graph()
        g.__class__ = RecordingGraph
        nbrs = list(g.neighbors(2))
        assert g.reads == [2] + nbrs
        g.reads.clear()
        w = g.head(g.v_dart[5])
        assert g.reads == [w]

    def test_dart_between_records_both_ends_and_the_scan(self):
        g = grid_graph(3)
        g.__class__ = RecordingGraph
        assert g.dart_between(4, 8) is None     # center and a corner
        assert g.reads[:3] == [4, 8, 8]         # degrees, then the corner
        assert set(g.reads[3:]) == {5, 7}


class TestRemoveEdge:
    def test_cycle_becomes_path(self):
        g = cycle_graph(4)
        g.remove_edge(0)
        validate(g)
        assert g.m_alive == 3
        orbits = face_orbits(g)
        assert len(orbits) == 1 and len(orbits[0]) == 6

    def test_bridge_disconnects(self):
        g = path_graph(4)
        d = g.v_dart[1]
        assert components(g) == 1
        g.remove_edge(d)
        validate(g)
        assert components(g) == 2

    def test_cube_edge_merges_faces(self):
        g = cube_graph()
        g.remove_edge(0)
        validate(g)
        lens = sorted(len(o) for o in face_orbits(g))
        assert lens == [4, 4, 4, 4, 6]


class TestAddEdge:
    def test_chord_opposite(self):
        g = cycle_graph(6)
        d_u = g.v_dart[0]
        face = g.trace_face(d_u)
        d_v = face[3]
        g.add_edge(d_u, d_v)
        validate(g)
        lens = sorted(len(o) for o in face_orbits(g))
        assert lens == [4, 4, 6]

    def test_chord_distance_two(self):
        g = cycle_graph(6)
        d_u = g.v_dart[0]
        d_v = g.trace_face(d_u)[2]
        g.add_edge(d_u, d_v)
        validate(g)
        assert sorted(len(o) for o in face_orbits(g)) == [3, 5, 6]

    def test_different_faces_rejected(self):
        # a chord joining two faces adds an edge but no face, so the
        # Euler check in validate reports it
        g = cycle_graph(6)
        d_u = g.v_dart[0]
        g.add_edge(d_u, g.d_twin[g.trace_face(d_u)[3]])
        with pytest.raises(EmbeddingCorruption, match="V-E\\+F = 0"):
            validate(g)

    def test_same_origin_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(EmbeddingError, match="to itself"):
            g.add_edge_at(2, g.v_dart[2], 2, g.v_dart[2])

    def test_split_lengths_sum(self):
        g = cycle_graph(8)
        d_u = g.v_dart[0]
        old = len(g.trace_face(d_u))
        d_v = g.trace_face(d_u)[3]
        nd = g.add_edge(d_u, d_v)
        assert len(g.trace_face(nd)) + len(g.trace_face(g.d_twin[nd])) == old + 2


class TestRemoveIsolated:
    def test_degree2_after_deletions(self):
        g = cycle_graph(3)
        n0 = g.n_alive
        while g.v_deg[0]:
            g.remove_edge(g.v_dart[0])
        g.remove_isolated_vertex(0)
        assert g.n_alive == n0 - 1
        validate(g)

    def test_not_isolated(self):
        g = cube_graph()
        with pytest.raises(EmbeddingError, match="not isolated"):
            g.remove_isolated_vertex(0)

    def test_single_vertex_graph(self):
        g = build([[]])
        g.remove_isolated_vertex(0)
        assert g.n_alive == 0


class TestDegreeQueries:
    def test_cube_vertex_small(self):
        g = cube_graph()
        assert g.v_deg[0] == 3 and admissible(g, 0)

    @pytest.mark.parametrize("leaves,big", [(60, True), (59, False)])
    def test_star_threshold(self, leaves, big):
        g = star_graph(leaves)
        assert g.v_deg[0] == leaves
        assert admissible(g, 0) is not big

    def test_adjacent_on_cube(self):
        g = cube_graph()
        sg = SimpleGraph.from_plane_graph(g)
        for u in range(8):
            for w in range(u + 1, 8):
                assert g.adjacent(u, w) == (w in sg.adj[u])

    def test_both_big_guard(self):
        # two adjacent hubs, each with 60 leaves
        rot = [[1] + list(range(2, 62)), [0] + list(range(62, 122))]
        for leaf in range(2, 62):
            rot.append([0])
        for leaf in range(62, 122):
            rot.append([1])
        g = build(rot)
        with pytest.raises(EmbeddingError, match="between big"):
            g.adjacent(0, 1)


class TestEdgeVicinity:
    def test_four_cycle(self):
        g = cycle_graph(4)
        verts, short = g.edge_vicinity(g.v_dart[0])
        assert short and sorted(verts) == [0, 1, 2, 3]

    def test_long_walk_window(self):
        g = cycle_graph(20)
        verts, short = g.edge_vicinity(g.v_dart[0])
        assert not short
        assert len(verts) == 6

    def test_isolated_edge(self):
        g = path_graph(2)
        verts, short = g.edge_vicinity(g.v_dart[0])
        assert short and sorted(verts) == [0, 1]


class TestIdentify:
    def test_four_cycle_opposite(self):
        g = cycle_graph(4)
        d0 = g.v_dart[0]
        d2 = g.trace_face(d0)[2]
        res = g.identify_across_face(0, 2, d0, d2)
        validate(g)
        assert res.survivor == 0 and res.absorbed == 2
        assert (g.n_alive, g.m_alive) == (3, 2)
        assert len(res.collapsed) == 2

    def test_cube_face_antipodal(self):
        g = cube_graph()
        d0 = g.v_dart[0]
        face = g.trace_face(d0)
        a, b = g.d_origin[face[0]], g.d_origin[face[2]]
        g.identify_across_face(a, b, face[0], face[2])
        validate(g)
        assert (g.n_alive, g.m_alive) == (7, 10)
        sg = SimpleGraph.from_plane_graph(g)
        from tricolor.oracle import is_triangle_free
        assert is_triangle_free(sg)

    def test_six_cycle_common_neighbor(self):
        g = cycle_graph(6)
        d1 = g.v_dart[1]
        face = g.trace_face(d1)
        # identify 1 and 3 across the face; common neighbor 2
        da = next(d for d in face if g.d_origin[d] == 1)
        db = next(d for d in face if g.d_origin[d] == 3)
        res = g.identify_across_face(1, 3, da, db)
        validate(g)
        assert (g.n_alive, g.m_alive) == (5, 5)
        assert [w for w, _ in res.collapsed] == [2]

    def test_adjacent_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(EmbeddingError, match="adjacent"):
            g.identify_across_face(0, 1, g.v_dart[0], g.v_dart[1])

    def test_big_absorbed_rejected(self):
        # rim vertex 1 and the big hub 120 share a 4-face; only the small
        # side may be absorbed
        g = big_hub_graph()
        face = next(g.trace_face(d) for d in g.darts_at(1)
                    if 120 in {g.d_origin[e] for e in g.trace_face(d)})
        d1 = next(e for e in face if g.d_origin[e] == 1)
        d_hub = next(e for e in face if g.d_origin[e] == 120)
        with pytest.raises(EmbeddingError, match="absorbed vertex 120 is big"):
            g.identify_across_face(1, 120, d1, d_hub)

    def test_never_leaves_two_faces(self):
        g = cycle_graph(4)
        d0 = g.v_dart[0]
        g.identify_across_face(0, 2, d0, g.trace_face(d0)[2])
        for orbit in face_orbits(g):
            assert len(orbit) != 2


class TestRoundTrip:
    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_remove_then_add_restores(self, seed):
        from tricolor.graphio import serialize
        g = quad(12, seed)
        before = serialize(g)
        d = next(iter(d for d in range(len(g.d_origin)) if g.d_alive[d]))
        u, w = g.d_origin[d], g.head(d)
        t = g.d_twin[d]
        ref_u = g.d_next[d] if g.d_next[d] != d else None
        ref_w = g.d_next[t] if g.d_next[t] != t else None
        g.remove_edge(d)
        validate(g)
        g.add_edge_at(u, ref_u, w, ref_w)
        validate(g)
        assert serialize(g) == before


class TestWorkCounter:
    def test_bounded_ops_independent_of_size(self):
        budgets = {}
        for k in (16, 48):
            g = grid_graph(k)
            mid = (k // 2) * k + k // 2
            for name, op in [
                ("adjacent", lambda: g.adjacent(mid, mid + 1)),
                ("vicinity", lambda: g.edge_vicinity(g.v_dart[mid])),
                ("window", lambda: g.edge_window(g.v_dart[mid])),
                ("remove+add", lambda: g.remove_edge(g.v_dart[mid])),
            ]:
                w0 = g.work
                op()
                budgets.setdefault(name, set()).add(g.work - w0)
        for name, vals in budgets.items():
            assert len(vals) == 1, f"{name} work depends on size: {vals}"


def test_validator_catches_corruption():
    g = cycle_graph(4)
    g.v_deg[0] = 5
    with pytest.raises(EmbeddingCorruption):
        validate(g)


def test_ids_never_reused():
    g = cycle_graph(4)
    n_vertices = len(g.v_alive)
    n_darts = len(g.d_origin)
    g.remove_edge(0)
    v = g.new_vertex()
    assert v == n_vertices
    d = g.add_edge_at(v, None, 0, g.v_dart[0])
    assert d >= n_darts
