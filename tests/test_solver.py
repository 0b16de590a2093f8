import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricolor.embedding import build, validate
from tricolor.generators import GenSpec, augmented, generate, grid, quad
from tricolor.instances import (
    big_hub_graph, cube_graph, cycle_graph, dodecahedron_graph, grid_graph,
    graph_from_faces, hexagram_flower, k23_graph, pentagram_flower,
)
import tricolor.solver
from tricolor.multigram import KIND_ORDER, Multigram, find_secure_with_pivot
from tricolor.oracle import (
    SimpleGraph, all_secure_multigrams_slow, facial_cycles,
    is_proper,
)
from tricolor.reducer import (
    ReductionRecord, decode, event_endpoints, unwind,
)
from tricolor.solver import (
    ExhaustedQueueNonempty, ImproperPrecoloring, NotAFacialCycle, Solver,
    TriangleFound, facial_cycle, three_color,
)

from conftest import (
    GRID_INSERTIONS_PER_VERTEX, disjoint_union, gadget_union,
    monogram_by_search, run_small_corpus, small_corpus,
    small_corpus_builders, validating_audit,
)


class TestThreeColor:
    def test_empty_graph(self):
        assert three_color(build([])) == {}

    def test_five_cycle_needs_three_colors(self):
        g = cycle_graph(5)
        sg = SimpleGraph.from_plane_graph(g)
        col = three_color(g)
        assert is_proper(sg, col)
        assert len(set(col.values())) == 3

    @pytest.mark.parametrize("make", [
        lambda: grid_graph(5), cube_graph, dodecahedron_graph,
        pentagram_flower, hexagram_flower, big_hub_graph, k23_graph,
    ])
    def test_instances_proper(self, make):
        g = make()
        sg = SimpleGraph.from_plane_graph(g)
        col = three_color(g, audit=validating_audit)
        assert is_proper(sg, col)
        assert set(col) == set(sg.adj)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_random_instances_proper(self, seed):
        g = augmented(24, seed)
        sg = SimpleGraph.from_plane_graph(g)
        assert is_proper(sg, three_color(g))

    def test_triangle_input_exhausts_queue(self):
        # planar K4: every face is a triangle, no multigram ever fires
        k4 = graph_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
        with pytest.raises(ExhaustedQueueNonempty):
            three_color(k4)

    def test_triangle_found_in_debug(self):
        # C4 beside a disjoint triangle, detected by the validating audit
        rot = [[1, 3], [2, 0], [3, 1], [0, 2], [5, 6], [6, 4], [4, 5]]
        g = build(rot)
        with pytest.raises(TriangleFound):
            three_color(g, audit=validating_audit)


def _survivors_on_c(records, C) -> int:
    """Asserts that no record deletes or absorbs a vertex of C; returns
    how many identifications have their survivor on C."""
    on_c = 0
    for r in records:
        assert not C & {*r.vertices[:len(r.removed)],
                        *(absorbed for _, absorbed, _ in r.identifications)}, r
        on_c += sum(survivor in C for survivor, _, _ in r.identifications)
    return on_c


def _coloring_patterns(k: int):
    """Every proper 3-coloring of a k-cycle up to renaming of colors: each
    color first appears after all smaller ones."""
    for cols in itertools.product(range(3), repeat=k):
        if (all(cols[i] != cols[i - 1] for i in range(k))
                and all(c <= max(cols[:i], default=-1) + 1
                        for i, c in enumerate(cols))):
            yield cols


class TestPrecolored:
    def test_base_case_cycle_is_whole_graph(self):
        g = cycle_graph(5)
        phi = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}
        assert three_color(g, precoloring=phi) == phi

    def test_cube_face(self):
        g = cube_graph()
        sg = SimpleGraph.from_plane_graph(g)
        cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 4)
        phi = dict(zip(cyc, (0, 1, 0, 1)))
        col = three_color(g, precoloring=phi, audit=validating_audit)
        assert is_proper(sg, col)
        assert all(col[v] == phi[v] for v in cyc)

    def test_improper_precoloring(self):
        g = cube_graph()
        cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 4)
        with pytest.raises(ImproperPrecoloring):
            three_color(g, precoloring=dict(zip(cyc, (0, 0, 1, 1))))
        with pytest.raises(ImproperPrecoloring):
            three_color(g, precoloring=dict(zip(cyc, (0, 1, 0, 7))))
        # one precolored vertex is no cycle
        with pytest.raises(NotAFacialCycle):
            three_color(g, precoloring={cyc[0]: 0})

    def test_cycle_listed_in_any_order(self):
        # (0, 6, 4, 2) is the cube face (0, 4, 6, 2) listed out of walk
        # order
        g = cube_graph()
        sg = SimpleGraph.from_plane_graph(g)
        phi = {0: 0, 6: 0, 4: 1, 2: 1}
        col = three_color(g, precoloring=phi)
        assert is_proper(sg, col)
        assert all(col[v] == c for v, c in phi.items())

    def test_not_a_facial_cycle(self):
        g = cube_graph()
        sg = SimpleGraph.from_plane_graph(g)
        # an antipodal pair is never on a common face
        far = next((u, w) for u in sg.adj for w in sg.adj
                   if u != w and w not in sg.adj[u]
                   and not any({u, w} <= set(vs) for vs, _ in facial_cycles(g)))
        bogus = (far[0], far[1], next(iter(sg.adj[far[0]])))
        with pytest.raises(NotAFacialCycle):
            three_color(g, precoloring=dict(zip(bogus, (0, 1, 2))))

    def test_precolored_triangle_refused(self):
        # C is a facial 4- or 5-cycle, as the CLI's triangle gate also
        # requires
        with pytest.raises(NotAFacialCycle, match="length 4 or 5"):
            three_color(cycle_graph(3), precoloring={0: 0, 1: 1, 2: 2})

    def test_no_reduction_absorbs_a_cycle_vertex(self):
        # a tetragram whose v3 lies on C absorbs its pivot into v3, so no
        # record deletes or absorbs a C vertex, and the output agrees
        # with phi
        on_c = 0
        for name, g in small_corpus():
            sg = SimpleGraph.from_plane_graph(g)
            for cyc in [vs for vs, _ in facial_cycles(g) if len(vs) == 4][:2]:
                phi = dict(zip(cyc, (0, 1, 0, 1)))
                s = Solver(g.copy(), precoloring=phi)
                col = s.run()
                assert is_proper(sg, col), name
                assert all(col[v] == phi[v] for v in cyc), name
                on_c += _survivors_on_c(s.records, phi.keys())
        assert on_c > 0

    def test_at_scale_every_pattern(self, monkeypatch):
        # two random facial 4-cycles and two 5-cycles of each graph (quad
        # and grid are bipartite, so 4-cycles only) under every proper
        # pattern; C is checked at every reduction, which each loop head
        # but the first follows: a monogram's vertex is off it
        reduce = tricolor.solver.reduce
        push_monogram = tricolor.solver.push_monogram
        phi = {}

        def checking(g, m, C):
            assert C == phi.keys(), (C, phi)
            return reduce(g, m, C)

        def checking_monogram(g, v, stack):
            assert v not in phi, (v, phi)
            return push_monogram(g, v, stack)

        monkeypatch.setattr(tricolor.solver, "reduce", checking)
        monkeypatch.setattr(tricolor.solver, "push_monogram",
                            checking_monogram)
        runs = on_c = 0
        for kind, delete in (("augmented", 0.0), ("quad", 0.0), ("grid", 0.1)):
            for seed in (1, 2):
                g = generate(GenSpec(kind, 10_000, seed=seed,
                                     delete_prob=delete))
                sg = SimpleGraph.from_plane_graph(g)
                faces = [vs for vs, _ in facial_cycles(g)]
                rng = random.Random(seed)
                cycles = []
                for k in (4, 5):
                    of_k = [vs for vs in faces if len(vs) == k]
                    cycles += rng.sample(of_k, min(2, len(of_k)))
                assert len(cycles) == (4 if kind == "augmented" else 2)
                for cyc in cycles:
                    for cols in _coloring_patterns(len(cyc)):
                        phi = dict(zip(cyc, cols))
                        s = Solver(g.copy(), precoloring=phi)
                        col = s.run()
                        runs += 1
                        assert s.phi == phi, (kind, seed, cyc)
                        assert is_proper(sg, col), (kind, seed, cyc)
                        assert all(col[v] == c for v, c in phi.items())
                        on_c += _survivors_on_c(s.records, phi.keys())
        assert runs == 2 * (2 * 3 + 2 * 5) + 4 * 2 * 3
        assert on_c > 0

    @given(st.sampled_from([quad, augmented]), st.integers(8, 40),
           st.integers(0, 10_000), st.data())
    @settings(max_examples=15, deadline=None)
    def test_relabeled_plain_and_precolored(self, family, size, seed, data):
        # the same instance under random ids, solved plain and with a
        # precolored facial 4- or 5-cycle, each checked at every loop head
        g = family(size, seed)
        n = len(g.v_alive)
        perm = data.draw(st.permutations(range(n)))
        rot = [[] for _ in range(n)]
        for v in range(n):
            rot[perm[v]] = [perm[w] for w in g.neighbors(v)]
        g = build(rot)
        sg = SimpleGraph.from_plane_graph(g)
        col = three_color(g.copy(), audit=validating_audit)
        assert is_proper(sg, col) and set(col) == set(sg.adj)
        cycles = [vs for vs, _ in facial_cycles(g) if len(vs) in (4, 5)]
        assume(cycles)      # a quad instance may have only longer faces
        cyc = data.draw(st.sampled_from(cycles))
        colors = data.draw(st.permutations((0, 1, 2)))
        phi = {v: colors[c] for v, c in zip(cyc, (0, 1, 0, 1, 2))}
        col = three_color(g, precoloring=phi, audit=validating_audit)
        assert is_proper(sg, col) and set(col) == set(sg.adj)
        assert all(col[v] == c for v, c in phi.items())


class TestWorklistInvariant:
    def test_queue_contains_oracle_pivots(self):
        failures = []

        def audit(g, queue, C):
            missing = ({m.vertices[0]
                        for m in all_secure_multigrams_slow(g, C)}
                       - set(queue))
            if missing:
                failures.append(sorted(missing))

        for make in (lambda: cycle_graph(6), cube_graph, k23_graph,
                     pentagram_flower, lambda: quad(12, 3)):
            g = make()
            three_color(g, audit=audit)
        assert not failures

    def test_invariant_at_scale(self):
        # Beyond the oracle's reach: at every loop head, no alive vertex
        # of degree <= 3 outside the queue has a secure multigram by the
        # fast finder (which criterion 3 ties to the oracle).
        heads = checked = 0
        failures = []

        def audit(g, queue, C):
            nonlocal heads, checked
            heads += 1
            queued = set(queue)
            for v in g.vertex_ids():
                if g.v_deg[v] <= 3 and v not in queued:
                    checked += 1
                    if find_secure_with_pivot(g, v, C) is not None:
                        failures.append((heads, v))

        graphs = [generate(GenSpec(kind, size, seed=seed))
                  for kind in ("quad", "augmented")
                  for seed, size in enumerate((150, 250, 350, 500) * 2)]
        graphs += [generate(GenSpec("grid", size, seed=seed, delete_prob=0.1))
                   for seed, size in enumerate((225, 400) * 2)]
        graphs.append(disjoint_union(
            [big_hub_graph(), big_hub_graph(pendant=False)]
            + [make() for make in (pentagram_flower, hexagram_flower,
                                   cube_graph, dodecahedron_graph)
               for _ in range(4)]))
        for g in graphs:
            precolored = [g.copy() for _ in range(2)]
            Solver(g, audit=audit).run()
            cycles = [vs for vs, _ in facial_cycles(precolored[0])
                      if len(vs) in (4, 5)]
            for h, cyc in zip(precolored, (cycles[0], cycles[-1])):
                phi = dict(zip(cyc, (0, 1, 0, 1, 2)[:len(cyc)]))
                Solver(h, precoloring=phi, audit=audit).run()
        assert checked > 10_000
        assert not failures, failures[:5]


class TestCollectorPause:
    """A run makes no reference cycles: reference counting alone frees
    all it allocates, so the cyclic garbage collector, which run() does
    not pause, finds nothing of it to free."""

    @staticmethod
    def _unreachable_after_run(make, phi=None) -> int:
        # the run holds the only reference to its graph, so a cycle
        # through the graph is unreachable once the run is deleted
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = make()
            gc.collect()
            solver = Solver(g, precoloring=phi)
            coloring = solver.run()
            del solver, coloring, g
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    def test_small_corpus_makes_no_cycles(self):
        precolored = 0
        for name, make in small_corpus_builders():
            assert self._unreachable_after_run(make) == 0, name
            cycles = [vs for vs, _ in facial_cycles(make()) if len(vs) in (4, 5)]
            if cycles and precolored < 6:
                precolored += 1
                phi = dict(zip(cycles[0], (0, 1, 0, 1, 2)))
                assert self._unreachable_after_run(make, phi) == 0, name
        assert precolored == 6

    @pytest.mark.parametrize("kind", ["grid", "quad", "augmented"])
    def test_generated_makes_no_cycles(self, kind):
        spec = GenSpec(kind, 2000, seed=1)
        assert self._unreachable_after_run(lambda: generate(spec)) == 0


class TestRecordsAndHits:
    def test_built_as_the_class_call_builds_them(self, monkeypatch):
        # reduce and the finder build their tuples without the class
        # call; each must still be exactly what the class call builds
        # from its fields
        kept = []

        def keeping(fn):
            def kept_call(*args):
                out = fn(*args)
                if out is not None:
                    kept.append(out)
                return out
            return kept_call

        for name in ("reduce", "find_secure_with_pivot"):
            monkeypatch.setattr(tricolor.solver, name,
                                keeping(getattr(tricolor.solver, name)))
        # monograms take the search and reduce too, so their lines build
        monkeypatch.setattr(tricolor.solver, "push_monogram",
                            monogram_by_search)
        run_small_corpus()
        Solver(generate(GenSpec("augmented", 2000, seed=1))).run()
        by_type = Counter(type(x) for x in kept)
        assert set(by_type) == {ReductionRecord, Multigram}
        assert by_type[ReductionRecord] == by_type[Multigram] > 2000
        # every line that builds a hit: no octagram fires here, and it
        # shares its line with the decagram, pentagram and hexagram
        assert {x.kind for x in kept} == set(KIND_ORDER) - {"octagram"}
        for x in kept:
            cls = type(x)
            assert len(x) == len(cls._fields), x
            called = cls(**x._asdict())
            assert x == called and repr(x) == repr(called), x


class TestMonogramStep:
    """push_monogram against the path it stands in for: a run whose
    monograms go through the search and reduce, each record appended as
    itself, must leave a stack that decodes to the same records, and the
    same coloring and stats.  Every slot of that run's stack is a
    record, so its unwind takes the record branch of ``_extend_through``
    wherever the other takes the flat first-free-color one."""

    @staticmethod
    def _both_ways(monkeypatch, runs):
        fast = runs()
        with monkeypatch.context() as m:
            m.setattr(tricolor.solver, "push_monogram", monogram_by_search)
            slow = runs()
        assert len(fast) == len(slow) > 0
        monograms = 0
        for (a, col_a), (b, col_b) in zip(fast, slow):
            assert decode(a.stack) == decode(b.stack)
            assert all(type(slot) is ReductionRecord for slot in b.stack)
            assert col_a == col_b
            assert a.stats == b.stats
            monograms += a.stats.reductions["monogram"]
        assert monograms > 0

    def test_small_corpus_plain_and_precolored(self, monkeypatch):
        def runs():
            # the coloring run returned: the stack unwound from phi
            return [(s, unwind(s.stack, s.phi)) for s in run_small_corpus()]
        self._both_ways(monkeypatch, runs)

    @pytest.mark.parametrize("make", [lambda: grid(100),
                                      lambda: augmented(5000, 1),
                                      gadget_union],
                             ids=["grid10k", "augmented5k", "gadgets"])
    def test_generated(self, monkeypatch, make):
        def runs():
            s = Solver(make())
            return [(s, s.run())]
        self._both_ways(monkeypatch, runs)


class _OldWakeRule:
    """Audit hook that replays, at every loop head, the rule the solver
    had when it woke from a set: the queue left after the pops since the
    last head, then the sorted set of ``event_endpoints`` of the newest
    record plus every pivot indexed under it, less the dead, those of
    degree > 3 and those still queued.  The footprint index is kept from
    the registrations the solver makes through ``footprint``, and the
    newest record from its calls of ``reduce``, or decoded from what its
    calls of ``push_monogram`` push; a head with a graph not seen before
    starts a run."""

    def __init__(self, monkeypatch) -> None:
        self.graph = None
        self.woken = self.heads = 0
        footprint, reduce = tricolor.solver.footprint, tricolor.solver.reduce
        push_monogram = tricolor.solver.push_monogram

        def registering(g, v, C):
            read = footprint(g, v, C)
            for u in read:
                self.index.setdefault(u, set()).add(v)
            return read

        def recording(g, m, C):
            self.record = reduce(g, m, C)
            return self.record

        def recording_monogram(g, v, stack):
            top = len(stack)
            body = push_monogram(g, v, stack)
            self.record, = decode(stack[top:])
            return body

        monkeypatch.setattr(tricolor.solver, "footprint", registering)
        monkeypatch.setattr(tricolor.solver, "reduce", recording)
        monkeypatch.setattr(tricolor.solver, "push_monogram",
                            recording_monogram)

    def __call__(self, g, queue, C) -> None:
        self.heads += 1
        if g is not self.graph:
            self.graph, self.queue, self.queued = g, queue, set(queue)
            self.index: dict[int, set[int]] = {}
            return
        record = self.record
        popped = self.queue.index(record.vertices[0]) + 1
        rest = self.queue[popped:]
        self.queued.difference_update(self.queue[:popped])
        touched = set(event_endpoints(g, record))
        woken = set()
        for u in touched:
            woken.update(self.index.pop(u, ()))
        self.woken += len(woken)
        batch = tuple(w for w in sorted(touched | woken)
                      if g.v_alive[w] and g.v_deg[w] <= 3
                      and w not in self.queued)
        assert queue == rest + batch, (self.heads, record)
        self.queue = queue
        self.queued.update(batch)


class TestWakeOrder:
    def test_batches_follow_the_sorted_set_rule(self, monkeypatch):
        # the wake-ups read the tuple event_endpoints returns, repeats
        # and all, and must queue what sorting the set of it queued
        rule = _OldWakeRule(monkeypatch)
        run_small_corpus(rule)
        assert rule.heads > 1000
        heads, woken = rule.heads, rule.woken
        Solver(generate(GenSpec("augmented", 2000, seed=1)), audit=rule).run()
        assert rule.heads - heads > 1000 and rule.woken > woken
        woken = rule.woken
        Solver(gadget_union(), audit=rule).run()
        assert rule.woken > woken


class TestGraphAfterRun:
    def test_plain_run_clears_the_arrays(self):
        g = augmented(300, 3)
        work0 = g.work
        s = Solver(g)
        s.run()
        assert (g.v_alive, g.v_deg, g.v_dart, g.d_origin, g.d_twin, g.d_next,
                g.d_prev) == ([],) * 7
        assert g.n_alive == g.m_alive == 0
        assert g.work == work0 + s.stats.work > work0
        validate(g)

    def test_precolored_run_keeps_c(self):
        for seed in range(3):
            g = augmented(300, seed)
            n = len(g.v_alive)
            cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 5)
            s = Solver(g, precoloring=dict(zip(cyc, (0, 1, 0, 1, 2))))
            s.run()
            assert len(g.v_alive) == n and set(g.vertex_ids()) == set(cyc)
            assert g.m_alive == 5 and facial_cycle(g, cyc)
            validate(g)


class TestStats:
    def test_counts_written_when_audit_raises(self):
        # pops, insertions and work reach stats on the way out of run, a
        # raise included: at the first audit, midway, and at the last
        # audit, after which a full run pops, inserts and works no more
        class Stop(Exception):
            pass

        ref = Solver(augmented(300, 3))
        ref.run()
        calls = len(ref.records) + 1
        for k in (1, 2, calls // 2, calls):
            queues = []

            def stop(g, queue, C):
                queues.append(queue)
                if len(queues) == k:
                    raise Stop

            s = Solver(augmented(300, 3), audit=stop)
            work0 = s.graph.work
            with pytest.raises(Stop):
                s.run()
            # every inserted pivot was popped or is still queued
            assert s.stats.insertions == s.stats.pops + len(queues[-1]) > 0
            assert s.stats.pops >= len(s.records) == k - 1
            assert s.stats.work == s.graph.work - work0
            assert (s.stats.work > 0) == (k > 1)
        assert ((s.stats.pops, s.stats.insertions, s.stats.work)
                == (ref.stats.pops, ref.stats.insertions, ref.stats.work))

    def test_empty(self):
        s = Solver(build([]))
        s.run()
        assert s.stats.pops == 0 and s.stats.insertions == 0

    def test_standalone_c4_starts_with_monogram(self):
        s = Solver(cycle_graph(4))
        s.run()
        assert s.stats.reductions["monogram"] >= 1

    def test_removed_equals_initial_n(self):
        for name, g in small_corpus():
            n0 = g.n_alive
            s = Solver(g)
            s.run()
            assert sum(len(r.removed) + len(r.identifications)
                       for r in s.records) == n0, name

    def test_work_per_vertex_bounded(self):
        # footprint re-insertion spends 8.8-9.7 work per vertex here;
        # re-queuing every vertex close to an edge event spent 371-433
        for kind in ("augmented", "quad"):
            for seed in (1, 2):
                g = generate(GenSpec(kind, 2000, seed=seed))
                n = g.n_alive
                s = Solver(g)
                s.run()
                assert s.stats.work / n <= 150, (kind, seed, s.stats.work / n)

    def test_work_excludes_generation(self):
        g = generate(GenSpec("augmented", 2000, seed=1))
        h = g.copy()
        works = []
        for graph in (g, h):
            s = Solver(graph)
            s.run()
            works.append(s.stats.work)
        assert works[0] == works[1]

    def test_grid_insertion_constant(self):
        for k in (10, 20, 40, 80):
            g = grid_graph(k)
            s = Solver(g)
            s.run()
            assert s.stats.insertions / k ** 2 <= GRID_INSERTIONS_PER_VERTEX

    def test_grid_stack_slots_bounded(self):
        # every grid reduction is a monogram of degree <= 2, which the
        # record stack keeps in at most four slots: its vertex, at most
        # two neighbors then and its degree, and each edge is deleted once
        g = grid_graph(100)
        n, m = g.n_alive, g.m_alive
        s = Solver(g)
        s.run()
        assert s.stats.reductions["monogram"] == n == 10_000
        assert len(s.stack) == 2 * n + m <= 4 * n

    def test_lemma5_bounds_tracked(self):
        g = dodecahedron_graph()
        s = Solver(g)
        s.run()
        assert 0 < max(r.edges_deleted for r in s.records) <= 126
        assert max(r.edges_added for r in s.records) <= 116
