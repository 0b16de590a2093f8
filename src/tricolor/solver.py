"""Worklist-driven 3-coloring of triangle-free plane graphs.

The engine keeps a FIFO queue of candidate pivots (vertex ids, each at
most once: ``in_queue`` guards every append; dead ids are skipped on
pop), initialized with every vertex of degree at most three.  Each
iteration pops a pivot.  A pivot of degree <= 2 off C is a secure
monogram by definition, so ``push_monogram`` deletes it and pushes its
record with no search, no ``Multigram`` and no ``ReductionRecord``;
most reductions are such monograms.  At any other pivot the loop looks
for a (C-)secure multigram in constant time and reduces it.
Only vertices of degree <= 3 enter the queue: nothing else can pivot a
secure multigram.

Re-insertion is driven by footprints.  Each search runs on the plain
graph.  A failed search registers ``footprint(g, v, C)``: the pivot and
every vertex whose degree, rotation or identity as a dart's origin the
search read (the finder tests membership in C only of vertices whose
degree it read), recorded by replaying the search on a
``RecordingGraph`` view of the graph, whose arrays log each read they
hand out.  Most searches hit and pay nothing for recording.  An index
maps each footprint vertex to the pivots whose footprint held it.
After a reduction the engine re-queues
``event_endpoints(g, record)``, read off the reduction's record (for a
monogram, the same tuple, which ``push_monogram`` returns), plus every
pivot indexed under it.  That tuple may repeat a vertex: the
filter (alive, degree <= 3, not queued) marks ``in_queue`` as it admits
one, which drops the repeats, and only the batch it appends is sorted,
so each batch enters the queue in ascending id order and no set is
built.  This is sound by one rule: the record names the multigram's
vertices, each deleted vertex with its neighbors and each absorbed
vertex with its neighbors and survivor, and every edge a reduction
deletes, moves or adds has both ends among them.
Surgery changes the degree, rotation, ``v_dart`` or dart heads only at
the ends of such edges and at the absorbed vertex.
``tests/test_reducer.py`` checks the rule state by state, for every
secure multigram of the small corpus and every reduction of full runs.
So a search that failed keeps failing until a reduction touches its
footprint, and a vertex that was never popped becomes a pivot only when
its degree drops, when it is touched itself.  A pivot that failed again
is still listed under the vertices of its older footprints; waking it
from one of those is a spare pop, never a missed one.  A touched
vertex's entries are dropped once scanned.  Registrations and scanned
entries count in ``work``.

The recursion of the underlying argument is replaced by an explicit
record stack; colors flow back through it once the graph is gone.  Each
reduction goes onto ``Solver.stack`` in one slot (the format is in
``reducer``): a monogram as the plain tuple ``(v, *neighbors)``, never
built as a record, and any other reduction as the record ``reduce``
returned.  ``unwind`` reads that list newest record first, in any
process.  For the precolored variant the loop stops when exactly the
constraint cycle C, the keys of the precoloring, remains and seeds the
unwind with the precoloring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable

from .embedding import PlaneGraph
from .multigram import KIND_ORDER, MONOGRAM, find_secure_with_pivot, footprint
from .reducer import (
    ReductionRecord, decode, event_endpoints, push_monogram, reduce, unwind,
)


class TriangleFound(Exception):
    pass


class ExhaustedQueueNonempty(Exception):
    """Queue ran dry with vertices left: impossible unless a bug broke
    the worklist invariant or the input had a triangle."""


class NotAFacialCycle(Exception):
    pass


class ImproperPrecoloring(Exception):
    pass


@dataclass
class SolverStats:
    reductions: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in KIND_ORDER})
    pops: int = 0
    insertions: int = 0
    work: int = 0


# Placeholder for the paper's closeness rule, which footprints replace:
# bench/spans.py wraps this name and no path calls it.  ROADMAP item 1
# deletes it together with that span target.
close_set = None


# ----------------------------------------------------------------------
# engine

AuditHook = Callable[[PlaneGraph, tuple[int, ...], AbstractSet[int]], None]


class Solver:
    """Owns and consumes one PlaneGraph; run() empties it down to C.

    ``precoloring``, if given, maps the vertices of one facial cycle of
    length 4 or 5 to colors in {0, 1, 2}, adjacent ones different; the
    coloring run() returns agrees with it there.  Its keys are the
    constraint cycle C (none for a plain run), fixed for the whole run:
    no reduction deletes or absorbs a vertex of C.  An empty
    precoloring is no cycle and raises NotAFacialCycle.

    ``audit`` is called at every loop head with the graph, a queue
    snapshot and C, the precoloring's keys; tests use it to replay the
    worklist invariant against the slow oracle and to validate the
    embedding after every reduction.
    """

    def __init__(self, g: PlaneGraph,
                 precoloring: dict[int, int] | None = None,
                 audit: AuditHook | None = None) -> None:
        self.graph = g
        self.phi = {} if precoloring is None else dict(precoloring)
        if precoloring is not None:
            order = facial_cycle(g, precoloring)
            if any(self.phi[v] not in (0, 1, 2) for v in order):
                raise ImproperPrecoloring("colors must be in {0,1,2}")
            if any(self.phi[u] == self.phi[w]
                   for u, w in zip(order, order[1:] + order[:1])):
                raise ImproperPrecoloring("adjacent cycle vertices share a color")
        self.audit = audit
        self.stats = SolverStats()
        self.stack: list = []

    @property
    def records(self) -> list[ReductionRecord]:
        """The records of the reductions so far, oldest first, decoded
        from ``stack`` on each read."""
        return decode(self.stack)

    def run(self) -> dict[int, int]:
        """Consume the graph and return the coloring; a graph the loop
        emptied is cleared before the unwind."""
        g = self.graph
        phi = self.phi
        C = phi.keys()
        stats = self.stats
        stack, audit, reductions = self.stack, self.audit, stats.reductions
        work0 = g.work
        queue: deque[int] = deque(
            v for v in g.vertex_ids() if g.v_deg[v] <= 3)
        popleft, extend = queue.popleft, queue.extend
        pops, insertions = 0, len(queue)
        in_queue = [False] * len(g.v_alive)
        for v in queue:
            in_queue[v] = True
        target = len(C)
        deg = g.v_deg
        alive = g.v_alive
        # footprint index: vertex -> pivots whose footprint held it
        index: dict[int, list[int]] = {}

        try:
            if audit:
                audit(g, tuple(queue), C)
            while g.n_alive > target:
                if not queue:
                    raise ExhaustedQueueNonempty(
                        f"worklist empty with {g.n_alive} vertices left")
                v = popleft()
                in_queue[v] = False
                pops += 1
                if not alive[v]:
                    continue
                if deg[v] <= 2 and v not in C:      # a secure monogram
                    touched = push_monogram(g, v, stack)
                    reductions[MONOGRAM] += 1
                else:
                    m = find_secure_with_pivot(g, v, C)
                    if m is None:
                        read = footprint(g, v, C)
                        for u in read:
                            index.setdefault(u, []).append(v)
                        g.work += len(read)
                        continue
                    record = reduce(g, m, C)
                    touched = event_endpoints(g, record)
                    stack.append(record)
                    reductions[m.kind] += 1
                if index:       # empty while no failed search is indexed
                    woken = []
                    for u in touched:
                        pivots = index.pop(u, None)
                        if pivots is not None:
                            g.work += len(pivots)
                            woken += pivots
                    touched += tuple(woken)
                # marking in_queue drops repeats; the batch goes in
                # ascending id order
                batch = []
                for w in touched:
                    if alive[w] and deg[w] <= 3 and not in_queue[w]:
                        in_queue[w] = True
                        batch.append(w)
                if batch:
                    batch.sort()
                    extend(batch)
                    insertions += len(batch)
                if audit:
                    audit(g, tuple(queue), C)

            # at most len(C) vertices are left, so all of C alive means only C
            assert all(alive[v] for v in C), (C, g.n_alive)
            if not g.n_alive:       # the unwind reads only the stack
                del deg, alive
                g.clear()
            return unwind(stack, phi)
        finally:
            stats.pops += pops
            stats.insertions += insertions
            stats.work += g.work - work0


def three_color(g: PlaneGraph, **kwargs) -> dict[int, int]:
    """Proper 3-coloring of a triangle-free plane graph, extending
    ``precoloring`` if given (see Solver); consumes g."""
    return Solver(g, **kwargs).run()


def facial_cycle(g: PlaneGraph, vertices: Iterable[int]) -> tuple[int, ...]:
    """The facial cycle of length 4 or 5 whose vertex set is ``vertices``,
    in walk order from its smallest id.

    The faces at the smallest id are read in rotation order and the first
    whose vertex set is the given one is taken; in a triangle-free graph
    only one cycle passes through a given set of at most five vertices.
    """
    ids = set(vertices)
    if 4 <= len(ids) <= 5 and all(
            0 <= v < len(g.v_alive) and g.v_alive[v] for v in ids):
        for d in g.darts_at(min(ids)):
            verts = g.face_cycle(d, len(ids))
            if verts is not None and set(verts) == ids:
                return verts
    raise NotAFacialCycle(
        f"vertices {sorted(ids)} do not bound a face of length 4 or 5")
