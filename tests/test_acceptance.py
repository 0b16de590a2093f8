"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 1 (correctness at scale) shares its run with criteria 5 and 6
through a session fixture so the ladder of >= 1000 instances is solved
exactly once; criterion 6 reads the re-insertion sets off its records.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

import tricolor.solver
from tricolor.embedding import DEGREE_CAP
from tricolor.generators import GenSpec, generate
from tricolor.instances import (
    cube_graph, cycle_graph, dodecahedron_graph, grid_graph, k23_graph,
)
from tricolor.multigram import SHAPES, find_secure_with_pivot, is_secure
from tricolor.oracle import (
    SimpleGraph, all_secure_multigrams_slow, brute_force_3color,
    enumerate_3colorings, facial_cycles, is_proper, is_secure_slow,
    multigram_shapes_slow,
)
from tricolor.reducer import event_endpoints
from tricolor.solver import Solver

from conftest import (
    GRID_INSERTIONS_PER_VERTEX, run_small_corpus, small_corpus,
    small_corpus_builders,
)


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def _scale_ladder() -> list[GenSpec]:
    specs: list[GenSpec] = []
    seed = 0
    for i in range(702):
        kind = ("quad", "augmented")[i % 2]
        size = 20 + (i * 17) % 221
        specs.append(GenSpec(kind, size, seed=seed))
        seed += 1
    for i in range(204):
        k = 3 + i % 14
        prob = (0.0, 0.05, 0.15)[i % 3]
        specs.append(GenSpec("grid", k * k, seed=seed, delete_prob=prob))
        seed += 1
    for i in range(80):
        kind = ("quad", "augmented")[i % 2]
        specs.append(GenSpec(kind, 1000 + (i * 613) % 3001, seed=seed))
        seed += 1
    for kind in ("grid", "quad", "augmented", "grid"):
        for s in range(3):
            specs.append(GenSpec(kind, 10_000, seed=seed))
            seed += 1
    specs.append(GenSpec("grid", 40_000, seed=seed))
    specs.append(GenSpec("quad", 40_000, seed=seed + 1))
    specs.append(GenSpec("augmented", 40_000, seed=seed + 2))
    specs.append(GenSpec("grid", 40_000, seed=seed + 3, delete_prob=0.05))
    specs.append(GenSpec("grid", 100_000, seed=seed + 4))
    specs.append(GenSpec("quad", 100_000, seed=seed + 5))
    return specs


@dataclass
class Reinsertion:
    """Largest re-insertion set and footprint over the records of some
    runs."""
    records: int = 0
    max_set: int = 0
    max_footprint: int = 0

    def add(self, solver: Solver) -> None:
        g = solver.graph
        self.records += len(solver.records)
        self.max_set = max(self.max_set, max(
            (len(set(event_endpoints(g, r))) for r in solver.records),
            default=0))

    @contextmanager
    def sizing_footprints(self):
        """Solvers run inside this keep the size of every footprint."""
        footprint = tricolor.solver.footprint

        def sized(g, v, C):
            read = footprint(g, v, C)
            self.max_footprint = max(self.max_footprint, len(read))
            return read

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tricolor.solver, "footprint", sized)
            yield


@dataclass
class ScaleResults:
    instances: int = 0
    vertices: int = 0
    check_failures: list = field(default_factory=list)
    max_edges_deleted: int = 0
    max_edges_added: int = 0
    min_vertices_removed: int = 10
    reinsertion: Reinsertion = field(default_factory=Reinsertion)
    seconds: float = 0.0


@pytest.fixture(scope="session")
def at_scale() -> ScaleResults:
    res = ScaleResults()
    t0 = time.perf_counter()
    with res.reinsertion.sizing_footprints():
        for spec in _scale_ladder():
            g = generate(spec)
            sg = SimpleGraph.from_plane_graph(g)
            solver = Solver(g)
            coloring = solver.run()
            ok = (set(coloring) == set(sg.adj)
                  and set(coloring.values()) <= {0, 1, 2}
                  and is_proper(sg, coloring))
            if not ok:
                res.check_failures.append(spec)
            for rec in solver.records:
                if rec.edges_deleted > res.max_edges_deleted:
                    res.max_edges_deleted = rec.edges_deleted
                if rec.edges_added > res.max_edges_added:
                    res.max_edges_added = rec.edges_added
                removed = len(rec.removed) + len(rec.identifications)
                if removed < res.min_vertices_removed:
                    res.min_vertices_removed = removed
            res.reinsertion.add(solver)
            res.instances += 1
            res.vertices += len(sg.adj)
    res.seconds = time.perf_counter() - t0
    return res


def test_criterion_1_correctness_at_scale(at_scale):
    assert at_scale.instances >= 1000
    assert at_scale.vertices >= 100_000
    assert at_scale.check_failures == [], at_scale.check_failures[:5]
    _report("1 correctness-at-scale",
            f"{at_scale.instances} instances, {at_scale.vertices} vertices, "
            f"0 check failures, {at_scale.seconds:.1f}s")


def _theorem_corpus():
    # the spec's hand list plus every generated instance with n <= 12
    hand = [("c4", cycle_graph(4)), ("c5", cycle_graph(5)),
            ("c6", cycle_graph(6)), ("k23", k23_graph()),
            ("cube", cube_graph()), ("dodecahedron", dodecahedron_graph()),
            ("grid3x3", grid_graph(3))]
    gen = [(name, make()) for name, make in small_corpus_builders()
           if name not in dict(hand)]
    return hand + gen


def test_criterion_2_desk_scale_theorems():
    colored = multigrams = 0
    for name, g in _theorem_corpus():
        if g.n_alive == 0:
            continue
        sg = SimpleGraph.from_plane_graph(g)
        if len(sg) <= 30:
            coloring = brute_force_3color(sg)
            assert coloring is not None and is_proper(sg, coloring), name
            colored += 1
        assert all_secure_multigrams_slow(g), name
        multigrams += 1
    _report("2 desk-scale-theorems",
            f"{colored} brute-force colorings, "
            f"{multigrams} non-empty secure-multigram lists")


def test_criterion_3_lemma6_equivalence():
    vertices = listings = discrepancies = 0
    for name, g in small_corpus():
        slow = all_secure_multigrams_slow(g)
        slow_pivots = {m.vertices[0] for m in slow}
        for v in g.vertex_ids():
            vertices += 1
            fast = find_secure_with_pivot(g, v)
            if (fast is not None) != (v in slow_pivots):
                discrepancies += 1
            elif fast is not None and not is_secure_slow(g, fast):
                discrepancies += 1
        sg = SimpleGraph.from_plane_graph(g)
        cycles = facial_cycles(g)
        for m in multigram_shapes_slow(g, sg=sg, cycles=cycles):
            listings += 1
            if is_secure(g, m) != is_secure_slow(g, m, sg=sg, cycles=cycles):
                discrepancies += 1
    assert discrepancies == 0
    _report("3 lemma6-equivalence",
            f"{vertices} pivot queries, {listings} multigram listings, "
            f"0 discrepancies")


def test_criterion_4_worklist_invariant():
    violations: list = []
    heads = 0

    def audit(g, queue, C):
        nonlocal heads
        heads += 1
        missing = ({m.vertices[0]
                    for m in all_secure_multigrams_slow(g, C)}
                   - set(queue))
        if missing:
            violations.append(missing)

    run_small_corpus(audit)
    assert not violations
    _report("4 worklist-invariant", f"{heads} loop heads, 0 violations")


def test_criterion_5_reduction_bounds(at_scale):
    assert at_scale.max_edges_deleted <= 126
    assert at_scale.max_edges_added <= 116
    assert at_scale.min_vertices_removed >= 1
    _report("5 reduction-bounds",
            f"max deleted {at_scale.max_edges_deleted} <= 126, "
            f"max added {at_scale.max_edges_added} <= 116, "
            f"min removed {at_scale.min_vertices_removed} >= 1")


# What one record names (see ``event_endpoints``): the multigram's at most
# six vertices (the longest cycle in SHAPES), the at most three neighbors
# of each deleted vertex (only vertices of degree <= 3 are deleted, and
# only multigram vertices), and for each of at most two identifications
# the survivor and the absorbed vertex's at most DEGREE_CAP neighbors
# (an absorbed vertex is small).
LONGEST = max(k for k, _, _ in SHAPES.values())
REINSERTION_BOUND = LONGEST + 3 * LONGEST + 2 * (1 + DEGREE_CAP)


def test_criterion_6_reinsertion_bounded(at_scale):
    # every record of every ladder run, and of the small corpus run plain
    # and precolored as criterion 4 runs it
    corpus = Reinsertion()
    with corpus.sizing_footprints():
        for solver in run_small_corpus():
            corpus.add(solver)
    scale = at_scale.reinsertion
    largest = max(scale.max_set, corpus.max_set)
    assert scale.records > 0 and corpus.records > 0
    assert 0 < largest <= REINSERTION_BOUND
    _report("6 reinsertion-bounded",
            f"largest re-insertion set {largest} <= {REINSERTION_BOUND} over "
            f"{scale.records + corpus.records} records; largest footprint "
            f"{max(scale.max_footprint, corpus.max_footprint)}")


def _reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 1023] = acc
        acc += i * i % 7
    return time.perf_counter() - t0


def test_criterion_7_linear_scaling():
    # Each round times every size once, so a drift in machine speed over
    # minutes shifts all sizes alike instead of one size's runs.  Below
    # 80k a round solves 80k/n fresh copies and takes their mean, so every
    # sample spans seconds, not the tenths that short-term noise swamps.
    # Each solve is divided by a reference loop timed just before and
    # just after it, so a sample is in units of the machine's speed at
    # that moment and a shared host's swings within a round cancel.
    # run() pauses the cyclic collector itself, since the solver makes no
    # reference cycles.  The test also keeps it off around the reference
    # loops: a full collection costs in proportion to all that the test
    # process holds, so it would land, whole, on whichever sample first
    # crosses its threshold.
    sizes = (10_000, 20_000, 40_000, 80_000, 160_000)
    graphs = [generate(GenSpec("grid", n, seed=1)) for n in sizes]
    times: list[list[float]] = [[] for _ in graphs]
    gc.collect()
    for _ in range(5):
        for n, g0, samples in zip(sizes, graphs, times):
            reps = max(1, 80_000 // n)
            total = ref = 0.0
            for _ in range(reps):
                solver = Solver(g0.copy())
                gc.disable()
                try:
                    r0 = _reference_s()
                    t0 = time.perf_counter()
                    solver.run()
                    t1 = time.perf_counter()
                    r1 = _reference_s()
                finally:
                    gc.enable()
                total += t1 - t0
                ref += (r0 + r1) / 2
                assert (solver.stats.insertions / g0.n_alive
                        <= GRID_INSERTIONS_PER_VERTEX)
            samples.append(total / ref)
    medians = [sorted(samples)[2] for samples in times]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    assert all(r <= 2.5 for r in ratios), ratios
    _report("7 linear-scaling",
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
            + " all <= 2.5; insertions/n <= "
            + str(GRID_INSERTIONS_PER_VERTEX))


def test_criterion_8_precoloring_extension():
    runs = 0
    for name, g in small_corpus():
        sg = SimpleGraph.from_plane_graph(g)
        seen: set = set()
        for verts, _ in facial_cycles(g):
            if len(verts) not in (4, 5) or frozenset(verts) in seen:
                continue
            seen.add(frozenset(verts))
            cyc_sg = SimpleGraph.from_edges(0, [])
            cyc_sg.adj = {v: {verts[i - 1], verts[(i + 1) % len(verts)]}
                          for i, v in enumerate(verts)}
            for phi in enumerate_3colorings(cyc_sg):
                coloring = Solver(g.copy(), precoloring=phi).run()
                assert is_proper(sg, coloring), (name, verts, phi)
                assert all(coloring[v] == phi[v] for v in verts), (name, verts)
                runs += 1
    assert runs > 500
    _report("8 precoloring-extension", f"{runs} precolored runs, all agree")
