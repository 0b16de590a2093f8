import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from tricolor.embedding import DEGREE_CAP, build, validate
from tricolor.generators import augmented, grid, quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph,
    hexagram_flower, path_graph, pentagram_flower,
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
    ExtensionFailure, ReductionRecord, _extend_through, decode,
    event_endpoints, push_monogram, reduce, unwind,
)
import tricolor.solver
from tricolor.solver import Solver

from conftest import gadget_union, run_small_corpus, small_corpus

SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_multigram(g, kind, pivot=None):
    for m in all_secure_multigrams_slow(g):
        if m.kind == kind and (pivot is None or m.vertices[0] == pivot):
            return m
    raise AssertionError(f"no secure {kind}")


class TestReduceKinds:
    def test_monogram_isolated(self):
        g = build([[]])
        m = Multigram(MONOGRAM, (0,))
        assert is_secure(g, m)
        rec = reduce(g, m)
        assert g.n_alive == 0
        assert rec.removed == ((),) and not rec.identifications
        assert rec.edges_deleted == 0

    def test_tetragram_standalone_c4(self):
        # not secure (degree-2 pivot) but safe: the reduction is forced
        g = cycle_graph(4)
        m = next(m for m in multigram_shapes_slow(g)
                 if m.kind == TETRAGRAM and m.vertices[0] == 0)
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
        assert len(rec.removed) == 4 and not rec.identifications

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
                 if m.kind == TETRAGRAM and m.vertices[0] == 0)
        rec = reduce(g, m)
        v1, v3 = m.vertices[0], m.vertices[2]
        coloring = {v1: 0, m.vertices[1]: 1, m.vertices[3]: 2}
        out = unwind([rec], coloring)
        assert out[v3] == out[v1] == 0

    def test_monogram_greedy(self):
        rec = ReductionRecord(MONOGRAM, (9,), ((1, 2),), (), 2, 0)
        out = unwind([rec], {1: 0, 2: 1})
        assert out[9] == 2

    def test_extension_failure_on_bad_record(self):
        rec = ReductionRecord(MONOGRAM, (9,), (), ((7, 9, ()),), 0, 0)
        with pytest.raises(ExtensionFailure):
            unwind([rec], {})

    def test_backtracks_where_greedy_fails(self):
        # a=1 first leaves b no color; the search must move a to 2
        a, b, u, w, z = 10, 11, 1, 2, 3
        rec = ReductionRecord(OCTAGRAM, (a, b), ((u, b), (a, w, z)), (),
                              0, 0)
        out = unwind([rec], {u: 0, w: 0, z: 2})
        assert (out[a], out[b]) == (2, 1)

    def test_no_extension_raises(self):
        # a is forced to 2, and then b has no color
        a, b, u, x, w, z = 10, 11, 1, 2, 3, 4
        rec = ReductionRecord(OCTAGRAM, (a, b), ((u, x, b), (a, w, z)), (),
                              0, 0)
        coloring = {u: 0, x: 1, w: 0, z: 1}
        with pytest.raises(ExtensionFailure):
            _extend_through([rec], coloring)
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
            full = unwind([rec], col)
            assert is_proper(sg0, full)
        assert all(hit.values()), hit

    def test_unwind_empty_stack(self):
        stack = []
        assert unwind(stack, {3: 1}) == {3: 1}
        assert decode(stack) == []

    def test_unwind_full_dodecahedron(self):
        g = dodecahedron_graph()
        sg = SimpleGraph.from_plane_graph(g)
        stack = []
        while g.n_alive:
            for v in list(g.vertex_ids()):
                m = find_secure_with_pivot(g, v)
                if m is not None:
                    stack.append(reduce(g, m))
                    break
        coloring = unwind(stack, {})
        assert is_proper(sg, coloring)

    def test_one_deleted_vertex_matches_backtracking(self):
        # the one slot push_monogram writes, the plain tuple
        # (v, *neighbors), unwound, against the one-vertex search done
        # by hand: the smallest color no colored neighbor has, else a
        # failure; on every coloring of up to four neighbors (a neighbor
        # may be uncolored), those with no color left included
        v = 9
        failures = 0
        for k in range(5):
            nbrs = tuple(range(1, k + 1))
            for cols in itertools.product((0, 1, 2, None), repeat=k):
                col = {u: c for u, c in zip(nbrs, cols) if c is not None}
                free = [c for c in range(3) if c not in col.values()]
                if free:
                    assert unwind([(v, *nbrs)], col) == {**col, v: free[0]}
                else:
                    failures += 1
                    with pytest.raises(ExtensionFailure):
                        unwind([(v, *nbrs)], col)
        assert failures > 0


class TestRecordStack:
    def test_round_trip_hand_built(self):
        # records of four kinds, appended as themselves, between
        # monograms of degree 0, 1 and 2 in push_monogram's plain tuple:
        # decode rebuilds each monogram as the record reduce builds for
        # it and hands back each appended record, the very object
        stack, records = [], []
        for (g, kind), (h, v) in zip(
                ((hexagram_flower(), HEXAGRAM), (cube_graph(), OCTAGRAM),
                 (pentagram_flower(), PENTAGRAM),
                 (dodecahedron_graph(), DECAGRAM)),
                ((build([[]]), 0), (path_graph(3), 0), (path_graph(3), 1),
                 (cycle_graph(4), 0))):
            rec = reduce(g, oracle_multigram(g, kind))
            stack.append(rec)
            records.append(rec)
            records.append(reduce(h.copy(), Multigram(MONOGRAM, (v,))))
            push_monogram(h, v, stack)
        decoded = decode(stack)
        assert decoded == records
        assert all(type(r) is ReductionRecord for r in decoded)
        assert all(x is y for x, y in zip(decoded[::2], records[::2]))
        # each monogram in one slot, (v, *neighbors)
        assert len(stack) == len(records) == 8
        assert stack[1::2] == [(*r.vertices, *r.removed[0])
                               for r in records[1::2]]
        assert all(type(slot) is tuple for slot in stack[1::2])

    def test_round_trip_small_corpus(self, monkeypatch):
        # every record of the small-corpus runs, plain and precolored,
        # comes back from its run's stack: each one reduce returns, and
        # for each vertex push_monogram deletes, the record reduce
        # builds for that monogram, read off the body it returns.  Each
        # reduction is one slot: a record reduce returned is its slot,
        # the very object, and a monogram's slot is the plain tuple
        # push_monogram returned
        built = []
        returned = []       # per built record: did reduce return it?
        reduce_ = tricolor.solver.reduce
        push_monogram_ = tricolor.solver.push_monogram

        def keeping(g, m, C):
            built.append(reduce_(g, m, C))
            returned.append(True)
            return built[-1]

        def keeping_monogram(g, v, stack):
            body = push_monogram_(g, v, stack)
            nbrs = body[1:]
            built.append(ReductionRecord(MONOGRAM, (v,), (nbrs,), (),
                                         len(nbrs), 0))
            returned.append(False)
            return body

        monkeypatch.setattr(tricolor.solver, "reduce", keeping)
        monkeypatch.setattr(tricolor.solver, "push_monogram", keeping_monogram)
        decoded = []
        slots = []
        for solver in run_small_corpus():
            decoded += solver.records
            slots += solver.stack
        assert len(built) > 1000
        assert decoded == built
        assert any(returned) and not all(returned)
        for rec, by_reduce, slot in zip(built, returned, slots, strict=True):
            if by_reduce:
                assert slot is rec, rec
            else:
                assert type(slot) is tuple, rec
                assert slot == (*rec.vertices, *rec.removed[0]), rec

    @pytest.mark.parametrize("make", [lambda: grid(100),
                                      lambda: augmented(5000, 1),
                                      gadget_union],
                             ids=["grid10k", "augmented5k", "gadgets"])
    def test_unwind_equals_unwinding_each_record(self, make):
        # the stack unwound at once against its records unwound one at a
        # time, newest first; a monogram record kept as itself goes
        # through _backtrack, so each monogram checks the first-free-color
        # path of its plain tuple against it
        solver = Solver(make())
        coloring = solver.run()
        records = solver.records
        assert any(r.kind == MONOGRAM for r in records)
        folded = {}
        for rec in reversed(records):
            folded = unwind([rec], folded)
        assert unwind(solver.stack, {}) == folded == coloring

    def test_stack_read_in_fresh_process(self, tmp_path):
        # the stack holds only plain tuples of ints and records, which
        # pickle by their class, so an interpreter that never pushed a
        # record decodes and unwinds the pickled stack
        solver = Solver(augmented(300, 1))
        coloring = solver.run()
        dump = tmp_path / "stack.pickle"
        dump.write_bytes(pickle.dumps((solver.stack, solver.records,
                                       coloring)))
        script = (
            "import pickle, sys\n"
            "from tricolor.reducer import decode, unwind\n"
            "with open(sys.argv[1], 'rb') as f:\n"
            "    stack, records, coloring = pickle.load(f)\n"
            "assert decode(stack) == records\n"
            "assert unwind(stack, {}) == coloring\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script, str(dump)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
                assert rec.removed or rec.identifications
                assert rec.edges_deleted <= 126 and rec.edges_added <= 116
                for col in enumerate_3colorings(sg1):
                    assert is_proper(sg0, unwind([rec], col)), (name, m)

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
    g's; the deleted vertices, the first ``len(record.removed)`` of its
    vertices, are dead, and each one's ``removed`` entry is its
    neighbors before the reduction less the deleted vertices after it;
    each identification moved exactly the absorbed vertex's neighbors
    before the reduction, less the vertices it deleted, with earlier
    absorbed ones renamed to their survivors (a pentagram deletes v1..v4
    before it identifies)."""
    n0 = sum(alive for alive, _, _, _ in before)
    m0 = sum(deg for _, deg, _, _ in before) // 2
    assert n0 - g.n_alive == (len(record.removed)
                              + len(record.identifications)), record
    assert m0 - g.m_alive == record.edges_deleted - record.edges_added, record
    deleted = record.vertices[:len(record.removed)]
    for i, (v, nbrs) in enumerate(zip(deleted, record.removed)):
        assert not g.v_alive[v], record
        later = set(deleted[i + 1:])
        assert sorted(nbrs) == sorted(
            w for _, w in before[v][3] if w not in later), record
    gone = set(deleted)
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
        # the solver's own loop, in which C stays the precoloring's keys:
        # each loop head after the first follows exactly one reduction,
        # the newest record
        uncovered = []
        moved_c = []
        for name, g, phi in _precolored_runs():
            solver = Solver(g.copy(), precoloring=phi)
            last = {}

            def audit(g, queue, C):
                if set(C) != phi.keys():
                    moved_c.append((name, set(C)))
                if last:
                    record = solver.records[-1]
                    missing = _uncovered(last["states"], g, record)
                    if missing:
                        uncovered.append((name, record, missing))
                last["states"] = _vertex_states(g)

            solver.audit = audit
            solver.run()
        assert uncovered == [], uncovered[:5]
        assert moved_c == [], moved_c[:5]

    def test_reads_every_part_of_the_record(self):
        # the rule, not today's reductions, in which every survivor and
        # absorbed vertex is also a multigram vertex or a deleted
        # vertex's neighbor; one tuple in record order, repeats kept
        rec = ReductionRecord(PENTAGRAM, (1, 2), ((2, 3, 4),),
                              ((5, 6, (7, 8)), (9, 10, ())), 0, 0)
        assert event_endpoints(None, rec) == (1, 2, 2, 3, 4, 5, 6, 7, 8,
                                              9, 10)
