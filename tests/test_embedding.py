import random
import time
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricolor.embedding import (
    EmbeddingCorruption, EmbeddingError, NonPlanarEmbedding,
    RecordingGraph, build, validate,
)
from tricolor.generators import GenSpec, augmented, generate, quad
from tricolor.graphio import parse_rotations, serialize
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph,
    graph_from_faces, grid_graph, path_graph, rotations_from_faces,
    star_graph,
)
from tricolor.multigram import admissible
from tricolor.oracle import SimpleGraph, face_orbits
from tricolor.solver import Solver

from conftest import gadget_union, small_corpus_builders


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
        for make, n, m, faces, length in ((cube_graph, 8, 12, 6, 4),
                                          (dodecahedron_graph, 20, 30, 12, 5)):
            g = make()
            assert (g.n_alive, g.m_alive) == (n, m)
            orbits = face_orbits(g)
            assert len(orbits) == faces
            assert all(len(o) == length for o in orbits)

    def test_faces_must_be_consistently_oriented(self):
        faces = [(0, 4, 6, 2), (0, 1, 5, 4), (0, 2, 3, 1),
                 (1, 3, 7, 5), (2, 6, 7, 3), (4, 5, 7, 6)]
        assert serialize(graph_from_faces(faces)) == serialize(cube_graph())
        faces[0] = faces[0][::-1]
        with pytest.raises(ValueError, match="walked twice"):
            rotations_from_faces(faces)

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
        with pytest.raises(NonPlanarEmbedding, match="^V-E\\+F = -2 over "
                           "the components with an edge, want 2$"):
            build(rot)

    def test_euler_holds_per_component(self):
        # a planar cycle must not hide a non-planar K5 beside it, and a
        # cycle, a path and an isolated vertex build together
        k5 = [[w for w in range(5) if w != v] for v in range(5)]
        c4 = [[5 + (i + 1) % 4, 5 + (i - 1) % 4] for i in range(4)]
        with pytest.raises(NonPlanarEmbedding, match="V-E\\+F"):
            build(k5 + c4)
        g = build([[1, 3], [0, 2], [1, 3], [2, 0], [5], [4, 6], [5], []])
        assert (g.n_alive, g.m_alive) == (8, 6)

    def test_empty_graph(self):
        g = build([])
        assert g.n_alive == 0 and g.m_alive == 0

    def test_more_vertices_than_darts(self):
        # the shared ints cover every vertex id, not only the dart ids
        g = build([[], [], [], [], [5], [4]])
        validate(g)
        assert (g.d_origin, g.d_next, g.v_dart) == ([4, 5], [0, 1],
                                                     [-1] * 4 + [0, 1])
        g = build([[], [], []])
        validate(g)
        assert (g.d_origin, g.d_next, g.d_prev) == ([], [], [])


def _reference_arrays(rotations):
    """build's seven arrays with the twins paired through one dict keyed
    by ``u * n + w`` over every dart, and build's fault messages: the
    first unknown, self-listed or repeated neighbor in dart order, else
    the first dart whose reverse is not listed."""
    n = len(rotations)
    origin = [u for u, r in enumerate(rotations) for _ in r]
    heads = [w for r in rotations for w in r]
    pos = {}
    for d, (u, w) in enumerate(zip(origin, heads)):
        if not 0 <= w < n:
            raise EmbeddingError(f"vertex {u} lists unknown {w}")
        if w == u:
            raise EmbeddingError(f"vertex {u} lists itself")
        if u * n + w in pos:
            raise EmbeddingError(f"vertex {u} lists {w} twice")
        pos[u * n + w] = d
    twin = [pos.get(w * n + u) for u, w in zip(origin, heads)]
    if None in twin:
        d = twin.index(None)
        raise EmbeddingError(f"edge {origin[d]}-{heads[d]} missing from "
                             f"the rotation of {heads[d]}")
    v_dart, nxt, prv = [], [], []
    for b, r in zip(accumulate(map(len, rotations), initial=0), rotations):
        k = len(r)
        v_dart.append(b if k else -1)
        nxt += [b + (i + 1) % k for i in range(k)]
        prv += [b + (i - 1) % k for i in range(k)]
    return ([True] * n, [len(r) for r in rotations], v_dart, origin, twin,
            nxt, prv)


ARRAYS = ("v_alive", "v_deg", "v_dart", "d_origin", "d_twin", "d_next",
          "d_prev")

#: graphs for the pairing tests, each from (size, seed); the hub graphs,
#: the large stars and the gadget union have big vertices
PAIRING_SOURCES = {
    "quad": quad,
    "augmented": augmented,
    "grid": lambda size, seed: generate(GenSpec("grid", size, seed, 0.2)),
    "big_hub": lambda size, seed: big_hub_graph(60 + size % 5, seed % 2 == 0),
    "star": lambda size, seed: star_graph(size),
    "gadgets": lambda size, seed: gadget_union(),
}


def _relabeled_rotations(data, source):
    g = PAIRING_SOURCES[source](data.draw(st.integers(4, 120)),
                                data.draw(st.integers(0, 1000)))
    n = len(g.v_alive)
    perm = data.draw(st.permutations(range(n)))
    rot = [[] for _ in range(n)]
    for v in range(n):
        rot[perm[v]] = [perm[w] for w in g.neighbors(v)]
    return rot


class TestPairing:
    """build pairs twins by rotation position; the reference is the
    per-dart dict pairing it replaced."""

    @given(st.sampled_from(sorted(PAIRING_SOURCES)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_arrays_match_dict_pairing(self, source, data):
        rot = _relabeled_rotations(data, source)
        g = build(rot)
        for name, want in zip(ARRAYS, _reference_arrays(rot)):
            assert getattr(g, name) == want, name

    @given(st.sampled_from(sorted(PAIRING_SOURCES)),
           st.sampled_from(["drop", "repeat", "self", "range", "one-sided"]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_single_corruption_message(self, source, fault, data):
        rot = _relabeled_rotations(data, source)
        n = len(rot)
        hub = max(range(n), key=lambda v: len(rot[v]))
        u = data.draw(st.one_of(st.just(hub), st.integers(0, n - 1)))
        r = rot[u]
        at = data.draw(st.integers(0, len(r)))
        if fault in ("drop", "repeat"):
            assume(r)
        if fault == "drop":
            del r[at % len(r)]
        elif fault == "repeat":
            r.insert(at, r[data.draw(st.integers(0, len(r) - 1))])
        elif fault == "self":
            r.insert(at, u)
        elif fault == "range":
            r.insert(at, data.draw(st.sampled_from([-1, n, n + 7])))
        else:
            others = sorted(set(range(n)) - set(r) - {u})
            assume(others)
            r.insert(at, data.draw(st.sampled_from(others)))
        with pytest.raises(EmbeddingError) as want:
            _reference_arrays(rot)
        with pytest.raises(EmbeddingError) as got:
            build(rot)
        assert type(got.value) is EmbeddingError
        assert str(got.value) == str(want.value)

    def test_hub_of_a_large_star(self):
        # a per-dart scan of the hub's rotation would take minutes
        t0 = time.perf_counter()
        g = star_graph(100_000)
        assert time.perf_counter() - t0 < 10.0
        assert g.v_deg[0] == 100_000
        assert g.d_origin[g.d_twin[g.v_dart[0]]] == 1


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
                                if g.d_origin[d] >= 0]


class TestReadRecording:
    """On a RecordingGraph view, the arrays log every vertex whose
    degree, rotation or dart identity is read, whether by a primitive
    or inline; the plain graph keeps no log, and its reads reach no
    view."""

    def test_plain_graph_records_nothing(self):
        g = cube_graph()
        view = RecordingGraph(g)
        list(g.neighbors(0))
        g.walk_face(0, 7)
        g.dart_between(0, 1)
        assert view.reads == set() and view.work == 0
        assert not hasattr(g, "reads")

    def test_open_walk_records_the_next_origin(self):
        # the rotation at the head of the last dart was read to find
        # that the walk goes on
        g = cycle_graph(9)
        view = RecordingGraph(g)
        walk, closed = view.walk_face(0, 3)
        assert not closed
        assert view.reads == {*(g.d_origin[e] for e in walk), g.head(walk[-1])}

    def test_neighbors_and_head(self):
        g = cube_graph()
        view = RecordingGraph(g)
        nbrs = list(view.neighbors(2))
        assert view.reads == {2, *nbrs}
        view.reads.clear()
        w = view.head(g.v_dart[5])
        assert view.reads == {w}

    def test_dart_between_records_both_ends_and_the_scan(self):
        view = RecordingGraph(grid_graph(3))
        assert view.dart_between(4, 8) is None  # center and a corner
        assert view.reads == {4, 8, 5, 7}       # degrees, then the corner

    def test_view_arrays_are_read_only(self):
        view = RecordingGraph(cube_graph())
        with pytest.raises(TypeError):
            view.v_deg[0] = 1

    @pytest.mark.parametrize("call, read", [
        (lambda g: g.neighbors(0), {0, 2, 3, 4}),
        (lambda g: g.neighbors(5), {5}),
        # scanned from 2, the smaller degree: hit on its first dart
        (lambda g: g.dart_between(0, 2), {0, 2}),
        # scanned from 2: hit on its last dart, after the head 0
        (lambda g: g.dart_between(2, 1), {0, 1, 2}),
        # a tie scans from u = 0, every head
        (lambda g: g.dart_between(0, 1), {0, 1, 2, 3, 4}),
        (lambda g: g.dart_between(5, 0), {0, 5}),
        # the face of dart 0 is 0, 2, 1, 3
        (lambda g: g.walk_face(0, 4), {0, 1, 2, 3}),
        # open after two darts: the head of the second is read, not 3
        (lambda g: g.walk_face(0, 2), {0, 1, 2}),
        # reads made outside the methods; dart 0 is 0->2, and reading
        # its twin logs nothing
        (lambda g: admissible(g, 4), {4}),
        (lambda g: g.v_dart[3], {3}),
        (lambda g: g.d_origin[g.d_twin[0]], {2}),
        (lambda g: g.d_next[0], {0}),
        (lambda g: g.d_prev[0], {0}),
    ], ids=["neighbors", "neighbors-isolated", "dart-first", "dart-last",
            "dart-miss", "dart-isolated", "walk-closed", "walk-open",
            "inline-admissible", "inline-v_dart", "inline-d_origin",
            "inline-d_next", "inline-d_prev"])
    def test_footprint_reads_pinned(self, call, read):
        # K_{2,3} with parts {0, 1} and {2, 3, 4}, plus an isolated 5; a
        # failed search's footprint decides wake-ups, work and pops
        g = build([[2, 4, 3], [2, 3, 4], [0, 1], [0, 1], [0, 1], []])
        w0 = g.work
        plain = call(g)
        view = RecordingGraph(g)
        assert call(view) == plain
        assert set(view.reads) == read
        # the view counts the work the plain call counted, on its own
        assert view.work == g.work - w0


def test_neighbors_are_the_heads_of_darts_at():
    # at every loop head of full runs, dead vertices and alive isolated
    # ones included
    seen = {"dead": 0, "isolated": 0}

    def audit(g, queue, C):
        for v in range(len(g.v_alive)):
            assert g.neighbors(v) == [g.head(d) for d in g.darts_at(v)]
            if not g.v_alive[v]:
                seen["dead"] += 1
            elif g.v_deg[v] == 0:
                seen["isolated"] += 1

    for name, make in small_corpus_builders():
        Solver(make(), audit=audit).run()
    assert seen["dead"] and seen["isolated"], seen


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


def _remove_edge_by_edge(g, v):
    heads = g.neighbors(v)
    while g.v_deg[v]:
        g.remove_edge(g.v_dart[v])
    g.remove_isolated_vertex(v)
    return heads


def _state(g):
    return (g.v_alive, g.v_deg, g.v_dart, g.d_origin, g.d_twin, g.d_next,
            g.d_prev, g.n_alive, g.m_alive, g.work)


class TestRemoveVertex:
    """remove_vertex leaves every array, counter and ``work`` exactly as
    deleting the vertex's edges one by one and then the vertex does."""

    @staticmethod
    def delete_in_lockstep(g, order):
        # copies start with work 0; each deletion is checked on the graph
        # that the deletions before it left
        one, ref = g.copy(), g.copy()
        for v in order:
            assert one.remove_vertex(v) == _remove_edge_by_edge(ref, v)
            assert _state(one) == _state(ref)
        validate(one)

    def test_every_vertex_of_the_small_corpus(self):
        for name, make in small_corpus_builders():
            g = make()
            for v in g.vertex_ids():
                self.delete_in_lockstep(g, [v])

    @pytest.mark.parametrize("kind", ["quad", "augmented"])
    def test_sampled_vertices_of_generated_graphs(self, kind):
        g = generate(GenSpec(kind, 3000, seed=4))
        ids = list(g.vertex_ids())
        hub = max(ids, key=g.v_deg.__getitem__)
        sample = random.Random(4).sample(ids, 300)
        self.delete_in_lockstep(g, [hub] + [v for v in sample if v != hub])

    def test_big_hub(self):
        g = big_hub_graph()
        hub = max(g.vertex_ids(), key=g.v_deg.__getitem__)
        assert g.v_deg[hub] > 59
        # a rim neighbor of the hub, the hub, then rim vertices it left
        self.delete_in_lockstep(g, [0, hub, 1, 2, 3])

    def test_dead_vertex_raises(self):
        g = cube_graph()
        g.remove_vertex(0)
        with pytest.raises(EmbeddingError, match="dead vertex 0"):
            g.remove_vertex(0)

    def test_isolated_vertex(self):
        g = build([[1], [0], []])
        assert g.remove_vertex(2) == []
        assert (g.n_alive, g.m_alive, g.work) == (2, 1, 1)
        assert g.remove_vertex(0) == [1]
        assert (g.n_alive, g.m_alive, g.v_deg[1], g.v_dart[1]) == (1, 0, 0, -1)
        validate(g)


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


class TestIdentify:
    def test_four_cycle_opposite(self):
        g = cycle_graph(4)
        d0 = g.v_dart[0]
        d2 = g.trace_face(d0)[2]
        moved, collapsed = g.identify_across_face(0, 2, d0, d2)
        validate(g)
        assert g.v_alive[0] and not g.v_alive[2]
        assert (g.n_alive, g.m_alive) == (3, 2)
        assert sorted(moved) == sorted(collapsed) == [1, 3]

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
        moved, collapsed = g.identify_across_face(1, 3, da, db)
        validate(g)
        assert (g.n_alive, g.m_alive) == (5, 5)
        assert sorted(moved) == [2, 4] and collapsed == [2]

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
        d = next(iter(d for d in range(len(g.d_origin)) if g.d_origin[d] >= 0))
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
                ("walk", lambda: g.walk_face(g.v_dart[mid], 7)),
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


# The 4-cycle 0-1-2-3.  Darts: 0 (0->1), 1 (0->3), 2 (1->2), 3 (1->0),
# 4 (2->3), 5 (2->1), 6 (3->0), 7 (3->2); faces (0 2 4 6) and (1 7 5 3).
C4 = [[1, 3], [2, 0], [3, 1], [0, 2]]


def _dead_vertex(g):
    x = g.new_vertex()
    g.v_alive[x] = False
    g.n_alive -= 1
    return x


def _stray_edge(g):
    # an alive edge 0-2 that no rotation lists: each dart is alone in its
    # own next/prev orbit, and the counters and Euler's V-E+F (4-5+3)
    # still add up
    a, b = g._new_dart(0), g._new_dart(2)
    g.d_twin[a], g.d_twin[b] = b, a
    for d in (a, b):
        g.d_next[d] = g.d_prev[d] = d
    g.m_alive += 1


def _set(array, index, value):
    return lambda g: getattr(g, array).__setitem__(index, value)


VALIDATE_FAULTS = [
    ("twin", _set("d_twin", 0, 0), "twin involution broken at dart 0"),
    ("rooted-dead", lambda g: g.d_origin.__setitem__(3, _dead_vertex(g)),
     "dart 3 rooted at dead vertex"),
    ("loop", _set("d_origin", 3, 0), "loop at dart 0"),
    ("next-prev", _set("d_prev", 1, 1), "next/prev not inverse at dart 0"),
    ("edge-counter", lambda g: setattr(g, "m_alive", 5),
     "edge counter out of sync"),
    ("dead-keeps-dart", lambda g: g.v_dart.__setitem__(_dead_vertex(g), 0),
     "dead vertex 4 keeps a dart"),
    ("exceeds-degree", _set("v_deg", 0, 0), "rotation at 0 exceeds degree"),
    ("foreign", _set("d_origin", 1, -1), "foreign dart 1 at vertex 0"),
    # dart 3 is the twin of dart 0; read as a vertex, -1 is the last one
    ("dead-twin", _set("d_origin", 3, -1), "twin involution broken at dart 0"),
    ("degree-counter", _set("v_deg", 0, 1), "degree counter wrong at 0"),
    ("parallel", lambda g: g.add_edge_at(0, 0, 1, 2),
     "parallel edges at vertex 0"),
    ("vertex-counter", lambda g: setattr(g, "n_alive", 5),
     "vertex counter out of sync"),
    ("euler", lambda g: g.add_edge(0, 5),
     "V-E\\+F = 0 over the components with an edge, want 2"),
    ("stray-dart", _stray_edge, "2 alive darts are in no rotation"),
]


@pytest.mark.parametrize("corrupt,message",
                         [fault[1:] for fault in VALIDATE_FAULTS],
                         ids=[fault[0] for fault in VALIDATE_FAULTS])
def test_validate_names_each_fault(corrupt, message):
    g = build(C4)
    validate(g)
    corrupt(g)
    with pytest.raises(EmbeddingCorruption, match=f"^{message}$"):
        validate(g)


BUILD_FAULTS = [
    # each text holds a later fault too; the first in dart order is named
    ("id-too-large", [[1], [0, 7], [-1]], "vertex 1 lists unknown 7"),
    ("negative-id", [[1], [0, -1], [5]], "vertex 1 lists unknown -1"),
    ("self-loop", [[1], [0, 1], [7]], "vertex 1 lists itself"),
    ("repeat", [[1, 1], [0, 5]], "vertex 0 lists 1 twice"),
    # repeats are named before one-sided edges, wherever they are
    ("repeat-after-one-sided", [[2], [0, 0], [0]], "vertex 1 lists 0 twice"),
    ("one-sided", [[1, 2], [0], [], [0]],
     "edge 0-2 missing from the rotation of 2"),
]


@pytest.mark.parametrize("rotations,message",
                         [fault[1:] for fault in BUILD_FAULTS],
                         ids=[fault[0] for fault in BUILD_FAULTS])
def test_build_names_the_first_fault(rotations, message):
    with pytest.raises(EmbeddingError, match=f"^{message}$") as err:
        build(rotations)
    assert type(err.value) is EmbeddingError


NUMBERING_CASES = small_corpus_builders() + [
    (f"{kind}{seed}", lambda k=kind, s=seed: generate(GenSpec(k, 40, s)))
    for kind in ("grid", "quad", "augmented") for seed in (0, 1)
] + [("grid-deleted", lambda: generate(GenSpec("grid", 40, 3, 0.3)))]


@pytest.mark.parametrize("make", [make for _, make in NUMBERING_CASES],
                         ids=[name for name, _ in NUMBERING_CASES])
def test_build_numbers_darts_in_rotation_order(make):
    # vertex v's darts are the next block of ids, in rotation order, and
    # v_dart[v] is the first: the solver's pops and reductions follow it
    rotations = parse_rotations(serialize(make()))
    g = build(rotations)
    validate(g)
    start = 0
    for v, rot in enumerate(rotations):
        assert list(g.neighbors(v)) == list(rot)
        assert list(g.darts_at(v)) == list(range(start, start + len(rot)))
        if rot:
            assert g.v_dart[v] == start and g.head(start) == rot[0]
        else:
            assert g.v_dart[v] == -1
        start += len(rot)
    assert len(g.d_origin) == start


def test_ids_never_reused():
    g = cycle_graph(4)
    n_vertices = len(g.v_alive)
    n_darts = len(g.d_origin)
    g.remove_edge(0)
    v = g.new_vertex()
    assert v == n_vertices
    d = g.add_edge_at(v, None, 0, g.v_dart[0])
    assert d >= n_darts
