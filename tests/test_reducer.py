import pytest

from tricolor.embedding import DEGREE_CAP, build, validate
from tricolor.generators import augmented, grid, quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph,
    hexagram_flower, pentagram_flower,
)
from tricolor.multigram import (
    DECAGRAM, HEXAGRAM, KIND_ORDER, MONOGRAM, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    Multigram, find_secure_with_pivot, is_secure,
)
from tricolor.oracle import (
    SimpleGraph, all_secure_multigrams_slow, enumerate_3colorings,
    facial_cycles, is_proper, is_triangle_free, multigram_shapes_slow,
)
from tricolor.reducer import (
    ExtensionFailure, ReductionRecord, event_endpoints, extend, reduce, unwind,
)
from tricolor.solver import Solver

from conftest import small_corpus


def oracle_multigram(g, kind, pivot=None):
    for m in all_secure_multigrams_slow(g):
        if m.kind == kind and (pivot is None or m.pivot == pivot):
            return m
    raise AssertionError(f"no secure {kind}")


class TestReduceKinds:
    def test_monogram_isolated(self):
        g = build([[]])
        m = Multigram(MONOGRAM, (0,))
        assert is_secure(g, m)
        rec = reduce(g, m)
        assert g.n_alive == 0
        assert rec.vertices_removed == 1 and rec.edges_deleted == 0

    def test_tetragram_standalone_c4(self):
        # not secure (degree-2 pivot) but safe: the reduction is forced
        g = cycle_graph(4)
        m = next(m for m in multigram_shapes_slow(g)
                 if m.kind == TETRAGRAM and m.pivot == 0)
        rec = reduce(g, m)
        validate(g)
        assert (g.n_alive, g.m_alive) == (3, 2)
        # v3's neighbors, in its rotation from its dart on the face
        assert rec.identifications == (
            (m.vertices[0], m.vertices[2], (m.vertices[3], m.vertices[1])),)
        assert rec.edges_deleted == 4 and rec.edges_added == 2

    def test_octagram_on_cube(self):
        g = cube_graph()
        m = oracle_multigram(g, OCTAGRAM)
        assert is_secure(g, m)
        rec = reduce(g, m)
        validate(g)
        assert (g.n_alive, g.m_alive) == (4, 4)
        assert rec.edges_deleted == 8 and rec.edges_added == 0
        assert rec.vertices_removed == 4

    def test_decagram_on_dodecahedron(self):
        g = dodecahedron_graph()
        m = oracle_multigram(g, DECAGRAM)
        assert is_secure(g, m)
        rec = reduce(g, m)
        validate(g)
        assert (g.n_alive, g.m_alive) == (15, 21)
        assert rec.edges_deleted == 10 and rec.edges_added == 1
        assert g.adjacent(m.aux[0], m.aux[2])       # the one added edge
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_pentagram_on_flower(self):
        g = pentagram_flower()
        m = next(m for m in all_secure_multigrams_slow(g)
                 if m.kind == PENTAGRAM and m.vertices == (0, 1, 2, 3, 4))
        assert is_secure(g, m)
        rec = reduce(g, m)
        validate(g)
        # v5 and x4 keep only the neighbors v1..v4's deletion leaves
        assert rec.identifications == ((m.aux[1], m.vertices[4], (10, 9)),
                                       (m.aux[2], m.aux[3], (14, 13)))
        # 9 structural deletions + moved edges + one collapsed parallel
        assert g.n_alive == 17 - 6
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_hexagram_on_flower(self):
        g = hexagram_flower()
        m = next(m for m in all_secure_multigrams_slow(g)
                 if m.kind == HEXAGRAM)
        assert is_secure(g, m)
        rec = reduce(g, m)
        validate(g)
        # 8 is v3's neighbor off the cycle
        assert rec.identifications == (
            (m.vertices[0], m.vertices[2], (m.vertices[3], 8, m.vertices[1])),)
        assert g.n_alive == 17
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_big_v3_absorbs_pivot(self):
        g = big_hub_graph()
        m = find_secure_with_pivot(g, 1)
        assert m.kind == TETRAGRAM and g.v_deg[m.vertices[2]] > DEGREE_CAP
        assert is_secure(g, m)
        rec = reduce(g, m)
        validate(g)
        assert rec.identifications == (
            (m.vertices[2], m.vertices[0], (m.vertices[1], m.aux[0],
                                            m.vertices[3])),)
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_insecure_guard(self):
        # the check every test above makes before it reduces
        g = cube_graph()
        bogus = Multigram(MONOGRAM, (0,))   # degree 3: not a monogram
        assert not is_secure(g, bogus)


class TestExtend:
    def test_tetragram_identification_colors(self):
        g = cycle_graph(4)
        m = next(m for m in multigram_shapes_slow(g)
                 if m.kind == TETRAGRAM and m.pivot == 0)
        rec = reduce(g, m)
        v1, v3 = m.vertices[0], m.vertices[2]
        coloring = {v1: 0, m.vertices[1]: 1, m.vertices[3]: 2}
        out = extend(rec, coloring)
        assert out[v3] == out[v1] == 0

    def test_monogram_greedy(self):
        rec = ReductionRecord(MONOGRAM, (9,), ((9, (1, 2)),), (), 2, 0)
        out = extend(rec, {1: 0, 2: 1})
        assert out[9] == 2

    def test_extension_failure_on_bad_record(self):
        rec = ReductionRecord(MONOGRAM, (9,), (), ((7, 9, ()),), 0, 0)
        with pytest.raises(ExtensionFailure):
            extend(rec, {})

    def test_backtracks_where_greedy_fails(self):
        # a=1 first leaves b no color; the search must move a to 2
        a, b, u, w, z = 10, 11, 1, 2, 3
        rec = ReductionRecord(OCTAGRAM, (a, b),
                              ((a, (u, b)), (b, (a, w, z))), (), 0, 0)
        out = extend(rec, {u: 0, w: 0, z: 2})
        assert (out[a], out[b]) == (2, 1)

    def test_no_extension_raises(self):
        # a is forced to 2, and then b has no color
        a, b, u, x, w, z = 10, 11, 1, 2, 3, 4
        rec = ReductionRecord(OCTAGRAM, (a, b),
                              ((a, (u, x, b)), (b, (a, w, z))), (), 0, 0)
        coloring = {u: 0, x: 1, w: 0, z: 1}
        with pytest.raises(ExtensionFailure):
            extend(rec, coloring)
        assert a not in coloring and b not in coloring

    def test_pentagram_proof_order_cases(self):
        # the one test that extends a pentagram under every coloring of
        # the reduced graph (the round trip skips graphs above 13
        # vertices); each case of the colors of x1, x2=v5, x3=x4 occurs
        g0 = pentagram_flower()
        sg0 = SimpleGraph.from_plane_graph(g0)
        m = next(m for m in all_secure_multigrams_slow(g0)
                 if m.kind == PENTAGRAM and m.vertices == (0, 1, 2, 3, 4))
        g = g0.copy()
        rec = reduce(g, m)
        sg1 = SimpleGraph.from_plane_graph(g)
        x1 = m.aux[0]
        hit = {"eq12": 0, "eq23": 0, "distinct": 0}
        for col in enumerate_3colorings(sg1):
            c1, c2, c3 = col[x1], col[m.aux[1]], col[m.aux[2]]
            if c1 == c2:
                hit["eq12"] += 1
            elif c2 == c3:
                hit["eq23"] += 1
            else:
                hit["distinct"] += 1
            full = extend(rec, dict(col))
            assert is_proper(sg0, full)
        assert all(hit.values()), hit

    def test_unwind_empty_stack(self):
        assert unwind([], {3: 1}) == {3: 1}

    def test_unwind_full_dodecahedron(self):
        g = dodecahedron_graph()
        sg = SimpleGraph.from_plane_graph(g)
        records = []
        while g.n_alive:
            for v in list(g.vertex_ids()):
                m = find_secure_with_pivot(g, v)
                if m is not None:
                    records.append(reduce(g, m))
                    break
        coloring = unwind(records, {})
        assert is_proper(sg, coloring)


class TestRoundTripProperty:
    def test_every_secure_multigram_every_coloring(self):
        for name, g0 in small_corpus():
            if g0.n_alive > 13:
                continue
            sg0 = SimpleGraph.from_plane_graph(g0)
            for m in all_secure_multigrams_slow(g0):
                g = g0.copy()
                assert is_secure(g, m), (name, m)
                rec = reduce(g, m)
                validate(g)
                sg1 = SimpleGraph.from_plane_graph(g)
                assert is_triangle_free(sg1), (name, m)
                assert rec.vertices_removed >= 1
                assert rec.edges_deleted <= 126 and rec.edges_added <= 116
                for col in enumerate_3colorings(sg1):
                    assert is_proper(sg0, extend(rec, dict(col))), (name, m)

    def test_identification_pairs_have_small_member(self):
        for name, g0 in small_corpus():
            for m in all_secure_multigrams_slow(g0):
                g = g0.copy()
                rec = reduce(g, m)
                for survivor, absorbed, _ in rec.identifications:
                    assert g0.v_deg[absorbed] <= 59 or g0.v_deg[survivor] <= 59


def _vertex_states(g):
    """Per vertex id: alive flag, degree, v_dart and (dart, head) rotation."""
    return [(g.v_alive[v], g.v_deg[v], g.v_dart[v],
             tuple((d, g.head(d)) for d in g.darts_at(v)))
            for v in range(len(g.v_alive))]


def _uncovered(before, g, record):
    """Vertices whose state (``_vertex_states``) went from ``before`` to
    g's now, by the reduction that wrote ``record``, but that
    ``event_endpoints`` leaves out.  Also checks that the record tells
    what surgery did: its edge and vertex counts match the change in
    g's, each deleted vertex is listed with its neighbors before the
    reduction less the deleted vertices listed after it, and each
    identification moved exactly the absorbed vertex's neighbors before
    the reduction, less the vertices it deleted, with earlier absorbed
    ones renamed to their survivors (a pentagram deletes v1..v4 before
    it identifies)."""
    n0 = sum(alive for alive, _, _, _ in before)
    m0 = sum(deg for _, deg, _, _ in before) // 2
    assert n0 - g.n_alive == record.vertices_removed, record
    assert m0 - g.m_alive == record.edges_deleted - record.edges_added, record
    for i, (v, nbrs) in enumerate(record.removed):
        later = {u for u, _ in record.removed[i + 1:]}
        assert sorted(nbrs) == sorted(
            w for _, w in before[v][3] if w not in later), record
    gone = {v for v, _ in record.removed}
    renamed = {}
    for survivor, absorbed, moved in record.identifications:
        nbrs = {renamed.get(w, w) for _, w in before[absorbed][3]}
        assert set(moved) == nbrs - gone, record
        renamed[absorbed] = survivor
    after = _vertex_states(g)
    changed = {v for v, state in enumerate(before) if after[v] != state}
    return changed - set(event_endpoints(g, record))


def _precolored_runs():
    """Graphs of the small corpus with a proper coloring phi of one of
    their facial 4- or 5-cycles."""
    for name, g in small_corpus():
        for verts, _ in facial_cycles(g)[:3]:
            if len(verts) in (4, 5):
                yield name, g, dict(zip(verts, (0, 1, 0, 1, 2)))


class TestEventEndpoints:
    def test_covers_every_changed_vertex(self):
        # the solver re-queues only from this set, so it must hold every
        # vertex a reduction changes, on the oracle's listings (all six
        # kinds) and on the mid-run states of full runs; each record's
        # counts and neighbor lists are checked against the surgery too
        fired = dict.fromkeys(KIND_ORDER, 0)
        uncovered = []
        for name, g0 in small_corpus():
            for m in all_secure_multigrams_slow(g0):
                fired[m.kind] += 1
                g = g0.copy()
                before = _vertex_states(g)
                missing = _uncovered(before, g, reduce(g, m))
                if missing:
                    uncovered.append((name, m, missing))
        runs = [quad(400, seed) for seed in (1, 2, 3)]
        runs += [augmented(400, seed) for seed in (1, 2, 3)]
        runs += [grid(20, 0.1, seed) for seed in (1, 2)]
        for g in runs:
            while g.n_alive:
                for v in list(g.vertex_ids()):
                    if not g.v_alive[v]:
                        continue
                    m = find_secure_with_pivot(g, v)
                    if m is not None:
                        fired[m.kind] += 1
                        before = _vertex_states(g)
                        missing = _uncovered(before, g, reduce(g, m))
                        if missing:
                            uncovered.append((m, missing))
        assert uncovered == [], uncovered[:5]
        assert all(fired.values()), fired

    def test_covers_precolored_runs(self):
        # the solver's own loop, which also renames an absorbed cycle
        # vertex to its survivor in C: each loop head after the first
        # follows exactly one reduction, the newest record
        uncovered = []
        renames = 0
        for name, g, phi in _precolored_runs():
            solver = Solver(g.copy(), precoloring=phi)
            last = {}

            def audit(g, queue, C):
                nonlocal renames
                if last:
                    record = solver.records[-1]
                    missing = _uncovered(last["states"], g, record)
                    touched = set(event_endpoints(g, record))
                    missing |= (last["C"] ^ C) - touched
                    renames += len(last["C"] - C)
                    if missing:
                        uncovered.append((name, record, missing))
                last["states"] = _vertex_states(g)
                last["C"] = set(C)

            solver.audit = audit
            solver.run()
        assert uncovered == [], uncovered[:5]
        assert renames > 0

    def test_reads_every_part_of_the_record(self):
        # the rule, not today's reductions, in which every survivor and
        # absorbed vertex is also a multigram vertex or a deleted
        # vertex's neighbor; one tuple in record order, repeats kept
        rec = ReductionRecord(PENTAGRAM, (1, 2), ((1, (2, 3, 4)),),
                              ((5, 6, (7, 8)), (9, 10, ())), 0, 0)
        assert event_endpoints(None, rec) == (1, 2, 2, 3, 4, 5, 6, 7, 8,
                                              9, 10)
