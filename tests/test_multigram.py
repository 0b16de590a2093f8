import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricolor.embedding import DEGREE_CAP, RecordingGraph, build
from tricolor.generators import GenSpec, augmented, generate
from tricolor.instances import (
    big_hub_graph, cube_graph, dodecahedron_graph, hexagram_flower,
    k23_graph, pentagram_flower,
)
from tricolor.multigram import (
    DECAGRAM, HEXAGRAM, KIND_ORDER, MONOGRAM, NO_CYCLE, OCTAGRAM, PENTAGRAM,
    SHAPES, TETRAGRAM, Multigram, admissible, find_secure_with_pivot,
    footprint, is_secure, pendant_darts,
)
from tricolor.oracle import (
    all_secure_multigrams_slow, facial_cycles, is_safe_slow, is_secure_slow,
    multigram_shapes_slow,
)
from tricolor.solver import Solver

from conftest import gadget_union, run_small_corpus

#: regression ceiling for the work of one find_secure_with_pivot call
#: during a solve (max observed by ``_each_search``: 291)
WORK_CEILING = 400


def shapes_at(g, v):
    return [m for m in multigram_shapes_slow(g) if m.vertices[0] == v]


class TestAdmissible:
    def test_small_off_c(self):
        g = cube_graph()
        assert admissible(g, 0)

    def test_on_c(self):
        g = cube_graph()
        assert not admissible(g, 0, {0, 1, 2})

    def test_big_vertex(self):
        g = big_hub_graph()
        assert not admissible(g, 120)


class TestCandidates:
    def test_isolated_vertex(self):
        g = build([[]])
        ms = shapes_at(g, 0)
        assert [m.kind for m in ms] == [MONOGRAM]

    def test_cube_vertex(self):
        g = cube_graph()
        ms = shapes_at(g, 0)
        kinds = [m.kind for m in ms]
        # 3 incident 4-faces, both orientations each
        assert kinds.count(TETRAGRAM) == 6
        assert kinds.count(OCTAGRAM) == 6
        assert all(m.vertices[0] == 0 for m in ms)

    def test_dodecahedron_vertex(self):
        g = dodecahedron_graph()
        ms = shapes_at(g, 0)
        kinds = [m.kind for m in ms]
        assert kinds.count(PENTAGRAM) == 6
        assert kinds.count(DECAGRAM) == 6

    def test_degree_four_vertex_empty(self):
        g = pentagram_flower()
        assert g.v_deg[4] == 4             # v5 pivots no secure multigram
        assert not any(is_secure(g, m) for m in shapes_at(g, 4))
        assert find_secure_with_pivot(g, 4) is None


class TestSafety:
    def test_k23_tetragram_unsafe(self):
        # pivot 0 (degree 3): the third path 0-4-1 leaves the 4-face
        g = k23_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == TETRAGRAM)
        assert not is_secure(g, m)

    def test_k23_degree2_pivot_tetragram_safe(self):
        g = k23_graph()
        m = next(m for m in shapes_at(g, 2) if m.kind == TETRAGRAM)
        assert is_safe_slow(g, m)   # all short v1-v3 paths run along the cycle
        assert not is_secure(g, m)  # but security wants a degree-3 pivot

    def test_cube_tetragram_safe(self):
        g = cube_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == TETRAGRAM)
        assert is_secure(g, m)

    def test_dodecahedron_decagram_safe(self):
        g = dodecahedron_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == DECAGRAM)
        assert is_secure(g, m)

    def test_flower_pentagram_safe(self):
        g = pentagram_flower()
        ms = [m for m in shapes_at(g, 0)
              if m.kind == PENTAGRAM and m.vertices == (0, 1, 2, 3, 4)]
        assert ms and is_secure(g, ms[0])

    def test_flower_hexagram_safe(self):
        g = hexagram_flower()
        m = next(m for m in shapes_at(g, 0) if m.kind == HEXAGRAM)
        assert is_secure(g, m)

    def test_monogram_octagram_always_safe(self):
        # their security is degrees and admissibility only
        g = cube_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == OCTAGRAM)
        assert is_secure(g, m)
        assert is_secure(build([[1], [0]]), Multigram(MONOGRAM, (0,)))


class TestSecurity:
    def test_isolated_monogram_secure(self):
        g = build([[]])
        assert is_secure(g, Multigram(MONOGRAM, (0,)))

    def test_cube_tetragram_secure(self):
        g = cube_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == TETRAGRAM)
        assert is_secure(g, m)

    def test_own_cycle_blocks_security(self):
        g = cube_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == TETRAGRAM)
        assert not is_secure(g, m, set(m.vertices))

    def test_octagram_needs_admissible_vertices(self):
        g = cube_graph()
        m = next(m for m in shapes_at(g, 0) if m.kind == OCTAGRAM)
        assert is_secure(g, m)
        assert not is_secure(g, m, set(m.vertices[1:]))


class TestFind:
    def test_isolated(self):
        g = build([[]])
        m = find_secure_with_pivot(g, 0)
        assert m is not None and m.kind == MONOGRAM

    def test_cube_kind_order_gives_tetragram(self):
        g = cube_graph()
        m = find_secure_with_pivot(g, 0)
        assert m is not None and m.kind == TETRAGRAM

    def test_dodecahedron_gives_decagram(self):
        g = dodecahedron_graph()
        for v in g.vertex_ids():
            m = find_secure_with_pivot(g, v)
            assert m is not None and m.kind == DECAGRAM

    def test_big_hub_tetragram_with_big_v3(self):
        g = big_hub_graph()
        m = find_secure_with_pivot(g, 1)
        assert m is not None and m.kind == TETRAGRAM
        assert g.v_deg[m.vertices[2]] > DEGREE_CAP

    def test_deterministic(self):
        g = pentagram_flower()
        for v in g.vertex_ids():
            a = find_secure_with_pivot(g, v)
            b = find_secure_with_pivot(g, v)
            assert a == b


class TestOracleAgreement:
    """Spot checks; the exhaustive sweep is acceptance criterion 3."""

    @pytest.mark.parametrize("name,make", [
        ("cube", cube_graph), ("k23", k23_graph),
        ("pflower", pentagram_flower), ("hflower", hexagram_flower),
    ])
    def test_existence_matches(self, name, make):
        g = make()
        pivots = {m.vertices[0] for m in all_secure_multigrams_slow(g)}
        for v in g.vertex_ids():
            assert (find_secure_with_pivot(g, v) is not None) == (v in pivots)

    def test_returned_multigram_is_oracle_secure(self):
        g = dodecahedron_graph()
        for v in g.vertex_ids():
            m = find_secure_with_pivot(g, v)
            if m is not None:
                assert is_secure_slow(g, m)

    @given(st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_secure_pivots_have_degree_le3(self, seed):
        g = augmented(13, seed)
        for m in all_secure_multigrams_slow(g):
            assert g.v_deg[m.vertices[0]] <= 3

    def test_c_security_agreement_with_cycles(self):
        g = pentagram_flower()
        for verts, _ in facial_cycles(g):
            if len(verts) > 6:
                continue
            C = set(verts)
            slow_pivots = {m.vertices[0]
                           for m in all_secure_multigrams_slow(g, C)}
            for v in g.vertex_ids():
                got = find_secure_with_pivot(g, v, C)
                assert (got is not None) == (v in slow_pivots)
                if got is not None:
                    assert is_secure_slow(g, got, C)


def test_find_aux_matches_oracle_shapes():
    # is_secure_slow judges the aux it is handed, so the pendant rule of
    # find is checked here: every multigram find returns, at every loop
    # head of the small corpus solved plain and precolored on two facial
    # 4- or 5-cycles, is listed by the oracle with the same aux; and on
    # every listing the oracle makes, forward and reversed, the darts
    # after the face darts lead to the oracle's aux
    found = 0

    def audit(g, queue, C):
        nonlocal found
        work = g.work
        listings = multigram_shapes_slow(g)
        for m in listings:
            if m.aux:
                pend = pendant_darts(g, m.darts, len(m.aux))
                assert tuple(map(g.head, pend)) == m.aux, m
        shapes = {(m.kind, m.vertices, m.aux) for m in listings}
        for v in g.vertex_ids():
            m = find_secure_with_pivot(g, v, C)
            if m is not None:
                found += 1
                assert (m.kind, m.vertices, m.aux) in shapes, m
        g.work = work

    run_small_corpus(audit)
    assert found


def test_kind_order_fixed():
    assert KIND_ORDER == (MONOGRAM, TETRAGRAM, OCTAGRAM, DECAGRAM,
                          PENTAGRAM, HEXAGRAM)


def find_all_listed_first(g, v, C=NO_CYCLE):
    """Reference finder: every facial 4- to 6-cycle at the pivot is
    listed, face by face in rotation order, forward before reversed,
    before any kind is tried; then the kinds are tried in KIND_ORDER."""
    if g.v_deg[v] > 3:
        return None
    if g.v_deg[v] <= 2:
        return None if v in C else Multigram(MONOGRAM, (v,))
    if v in C:
        return None
    cycles = []
    for d in g.darts_at(v):
        walk, closed = g.walk_face(d, 6)
        verts = tuple(g.d_origin[e] for e in walk)
        if closed and len(walk) >= 4 and len(set(verts)) == len(walk):
            cycles.append((verts, tuple(walk)))
            cycles.append(((v, *reversed(verts[1:])),
                           (d, *reversed(walk[1:]))))
    for kind in KIND_ORDER[1:]:
        k, n3, n_aux = SHAPES[kind]
        for verts, darts in cycles:
            if len(verts) != k or any(g.v_deg[w] != 3 for w in verts[:n3]):
                continue
            aux = tuple(g.head(d) for d in pendant_darts(g, darts, n_aux))
            m = Multigram(kind, verts, aux, darts)
            if is_secure(g, m, C):
                return m
    return None


def _hub_cube(leaves=60):
    """A cube whose corner 0 is replaced by one edge from its neighbor a
    to a hub that pendant leaves keep big.  At a the tetragram on the
    face away from the hub is insecure, since a's third neighbor is big,
    and the octagram there is secure."""
    cube = [cube_graph().neighbors(v) for v in range(8)]
    a = cube[0][0]
    rot = [[a, *range(8, 8 + leaves)]]
    rot += [[w for w in cube[v] if w != 0 or v == a] for v in range(1, 8)]
    rot += [[0]] * leaves
    return build(rot)


def _relabeled(g, seed):
    """g with vertex v renamed perm[v], perm shuffled by seed."""
    n = len(g.v_alive)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    rot = [None] * n
    for v in range(n):
        rot[perm[v]] = [perm[w] for w in g.neighbors(v)]
    return build(rot)


def _each_search(check):
    """Call ``check(g, v, C)`` at every loop head, with g.work restored
    after it; return the number of calls.  The small corpus and a hub
    cube, solved plain and precolored on two facial 4- or 5-cycles,
    check every vertex id.  Generated quad and augmented instances of 2k
    vertices, a union of the gadget constructions and an augmented
    instance of 1k vertices with shuffled ids, whose solve makes a find
    call of 291 work, check the pivots the solver pops next, up to the
    first hit: the searches the run itself makes."""
    count = 0

    def every_id(g, queue, C):
        nonlocal count
        work = g.work
        for v in range(len(g.v_alive)):
            check(g, v, C)
            count += 1
        g.work = work

    def next_pops(g, queue, C):
        nonlocal count
        work = g.work
        for v in queue:
            if g.v_alive[v]:
                count += 1
                if check(g, v, C) is not None:
                    break
        g.work = work

    run_small_corpus(every_id, [("hub_cube", _hub_cube())])
    graphs = [generate(GenSpec(kind, 2000, seed=1))
              for kind in ("quad", "augmented")]
    graphs.append(gadget_union())
    graphs.append(_relabeled(augmented(1000, seed=591815), 10))
    for g in graphs:
        Solver(g, audit=next_pops).run()
    return count


def test_first_hit_matches_listing_every_candidate_first():
    # tetragrams are tried as each face is walked; the result is the
    # multigram of the all-faces-first order, darts and aux included
    kinds = set()

    def check(g, v, C):
        m = find_secure_with_pivot(g, v, C)
        assert m == find_all_listed_first(g, v, C), (v, m)
        if m is not None:
            kinds.add(m.kind)
        return m

    assert _each_search(check) > 10_000
    assert kinds == set(KIND_ORDER)


def test_footprint_is_the_recorded_search():
    # the plain search and the one on a recording view return the same
    # and count the same work, at most WORK_CEILING; footprint returns
    # the view's reads plus the pivot and leaves the graph's work as it
    # was.  A search that finds nothing reads every face before it
    # returns, so its footprint is also what the reference finder, which
    # lists every face before it tries a kind, reads on a fresh view
    def check(g, v, C):
        w0 = g.work
        m = find_secure_with_pivot(g, v, C)
        w1 = g.work
        assert w1 - w0 <= WORK_CEILING, (v, w1 - w0)
        view = RecordingGraph(g)
        recorded = find_secure_with_pivot(view, v, C)
        assert recorded == m and view.work == w1 - w0 and g.work == w1, v
        read = set(view.reads) | {v}
        assert footprint(g, v, C) == read, v
        if m is None:
            listed_first = RecordingGraph(g)
            find_all_listed_first(listed_first, v, C)
            assert read == listed_first.reads | {v}, v
        assert g.work == w1, v
        return m

    assert _each_search(check) > 10_000
