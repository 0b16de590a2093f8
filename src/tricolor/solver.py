"""Worklist-driven 3-coloring of triangle-free plane graphs.

The engine keeps a FIFO multiset of candidate pivots (vertex ids;
duplicates and dead ids are fine and skipped on pop), initialized with
every vertex of degree at most three.  Each iteration pops a pivot and
looks for a (C-)secure multigram there in constant time.  Only vertices
of degree <= 3 enter the queue: nothing else can pivot a secure
multigram.

Re-insertion is driven by footprints.  Each search runs on the graph
switched to ``RecordingGraph``, which logs to ``g.reads`` every vertex
whose degree, rotation or identity as a dart's origin it reads (the
finder tests membership in C only of vertices whose degree it read).
A failed search registers that set plus the pivot as its footprint, and
a reverse index maps each such vertex to the pivots whose latest
footprint holds it.  After a reduction the engine re-queues the
endpoints of its edge events plus the pivots indexed under them.  This
is sound because every mutation changes state only at endpoints of
reported events:

* ``_excise`` and ``_insert_before`` change only the rotation, ``v_dart``
  and degree at the dart's origin, an endpoint of the deleted or added
  edge;
* ``identify_across_face`` relabels only darts of the absorbed b and
  splices the rotations of a and b; every edge of b is reported deleted
  and re-added at a, so a, b and all their neighbors are endpoints;
* ``remove_isolated_vertex`` acts on a pivot or on an endpoint;
* ``ConstraintCycle.replace`` renames an absorbed vertex to its
  survivor, both endpoints.

So a search that failed keeps failing until an event touches its
footprint, and a vertex that was never popped becomes a pivot only when
its degree drops, when it is an endpoint itself.  An index entry is the
number of the registration that made it; a pivot's newer registration
makes its older entries stale, and an endpoint's entries are dropped
once scanned.  Registrations and scanned entries count in ``work``.

The reducer reports the +-2 facial window of each edge event with it;
the windows feed only ``SolverStats.max_edge_close``.  ``close_set`` (the
paper's closeness rule) is kept as a reference the tests check against
the slow oracle.

The recursion of the underlying argument is replaced by an explicit
record stack; colors flow back through it once the graph is gone.  For
the precolored variant the loop stops when exactly the constraint cycle
remains and seeds the unwind with its precoloring.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .embedding import DEGREE_CAP, PlaneGraph, RecordingGraph
from .multigram import (
    KIND_ORDER, ConstraintCycle, find_secure_with_pivot,
)
from .reducer import ReductionRecord, reduce, unwind
from .reducer import event_endpoints  # noqa: F401  (bench/spans.py traces it here)


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
    vertices_removed: int = 0
    max_edge_close: int = 0
    max_edges_deleted: int = 0
    max_edges_added: int = 0
    work: int = 0


# ----------------------------------------------------------------------
# closeness

def close_set(g: PlaneGraph, sources: Iterable[int],
              only_degree_le: int | None = None) -> set[int]:
    """Union over small sources of their close vertices, in g's current
    state: small-path balls of radius 4 plus <=6 facial walks.

    ``only_degree_le`` restricts the *collected* vertices by degree (the
    exploration is unaffected); 3 keeps only the vertices that can pivot
    a secure multigram.
    """
    deg = g.v_deg
    nxt = g.d_next
    twin = g.d_twin
    origin = g.d_origin
    vdart = g.v_dart
    cap = DEGREE_CAP + 1 if only_degree_le is None else only_degree_le
    ep = g.next_epoch()
    mark = g.v_mark
    frontier: list[int] = []
    out: set[int] = set()
    add = out.add
    for s in sources:
        if deg[s] <= DEGREE_CAP and mark[s] != ep:
            mark[s] = ep
            frontier.append(s)
            if deg[s] <= cap:
                add(s)
    steps = 0
    for s in frontier:
        d0 = vdart[s]
        if d0 < 0:
            continue
        d = d0
        while True:
            # first pass finds the walk length, second collects
            e = nxt[twin[d]]
            n = 1
            while e != d and n < 7:
                e = nxt[twin[e]]
                n += 1
            steps += n
            if e == d and n <= 6:
                e = nxt[twin[d]]
                while e != d:
                    w = origin[e]
                    if deg[w] <= cap:
                        add(w)
                    e = nxt[twin[e]]
            d = nxt[d]
            if d == d0:
                break
    for _ in (1, 2, 3, 4):
        nxt_frontier: list[int] = []
        push = nxt_frontier.append
        for u in frontier:
            d0 = vdart[u]
            if d0 < 0:
                continue
            d = d0
            while True:
                w = origin[twin[d]]
                if mark[w] != ep and deg[w] <= DEGREE_CAP:
                    mark[w] = ep
                    push(w)
                    if deg[w] <= cap:
                        add(w)
                d = nxt[d]
                steps += 1
                if d == d0:
                    break
        frontier = nxt_frontier
    g.work += steps
    return out


class _EventSink:
    __slots__ = ("endpoints", "max_window")

    def __init__(self) -> None:
        self.endpoints: set[int] = set()
        self.max_window = 0

    def edge_event(self, u: int, v: int, window: tuple[int, ...]) -> None:
        self.endpoints.add(u)
        self.endpoints.add(v)
        if len(window) > self.max_window:
            self.max_window = len(window)


# ----------------------------------------------------------------------
# engine

AuditHook = Callable[[PlaneGraph, tuple[int, ...], ConstraintCycle | None], None]


class Solver:
    """Owns and consumes one PlaneGraph; run() empties it.

    ``audit`` is called at every loop head with the graph, a queue
    snapshot and the constraint; tests use it to replay the worklist
    invariant against the slow oracle and to validate the embedding
    after every reduction.
    """

    def __init__(self, g: PlaneGraph,
                 constraint: ConstraintCycle | None = None,
                 precoloring: dict[int, int] | None = None,
                 audit: AuditHook | None = None) -> None:
        self.graph = g
        self.constraint = constraint
        self.phi = dict(precoloring) if precoloring else {}
        self.audit = audit
        self.stats = SolverStats()
        self.records: list[ReductionRecord] = []

    def run(self) -> dict[int, int]:
        g = self.graph
        C = self.constraint
        stats = self.stats
        queue: deque[int] = deque(
            v for v in g.vertex_ids() if g.v_deg[v] <= 3)
        stats.insertions += len(queue)
        in_queue = [False] * len(g.v_alive)
        for v in queue:
            in_queue[v] = True
        target = len(C) if C is not None else 0
        deg = g.v_deg
        alive = g.v_alive
        # footprint index: vertex -> registrations whose footprint holds
        # it; registration r belongs to pivot owner[r] and is live while
        # current[owner[r]] == r
        index: defaultdict[int, list[int]] = defaultdict(list)
        owner: list[int] = []
        current = [-1] * len(alive)
        reads = g.reads
        plain = type(g)

        if self.audit:
            self.audit(g, tuple(queue), C)
        while g.n_alive > target:
            if not queue:
                raise ExhaustedQueueNonempty(
                    f"worklist empty with {g.n_alive} vertices left")
            v = queue.popleft()
            in_queue[v] = False
            stats.pops += 1
            if not alive[v]:
                continue
            reads.clear()
            g.__class__ = RecordingGraph
            m = find_secure_with_pivot(g, v, C)
            g.__class__ = plain
            if m is None:
                r = len(owner)
                owner.append(v)
                current[v] = r
                footprint = set(reads)
                footprint.add(v)
                for u in footprint:
                    index[u].append(r)
                g.work += len(footprint)
                continue
            sink = _EventSink()
            record = reduce(g, m, sink)
            self.records.append(record)
            stats.reductions[m.kind] += 1
            stats.vertices_removed += record.vertices_removed
            if sink.max_window > stats.max_edge_close:
                stats.max_edge_close = sink.max_window
            if record.edges_deleted > stats.max_edges_deleted:
                stats.max_edges_deleted = record.edges_deleted
            if record.edges_added > stats.max_edges_added:
                stats.max_edges_added = record.edges_added
            if C is not None:
                for survivor, absorbed in record.identifications:
                    if absorbed in C.members:
                        C.replace(absorbed, survivor)
                        self.phi[survivor] = self.phi.pop(absorbed)
            woken = set(sink.endpoints)
            for u in sink.endpoints:
                entries = index.pop(u, None)
                if entries is not None:
                    g.work += len(entries)
                    for r in entries:
                        p = owner[r]
                        if current[p] == r:
                            woken.add(p)
            for w in sorted(woken):
                if alive[w] and deg[w] <= 3 and not in_queue[w]:
                    in_queue[w] = True
                    queue.append(w)
                    stats.insertions += 1
            if self.audit:
                self.audit(g, tuple(queue), C)

        if C is not None:
            leftover = set(g.vertex_ids())
            assert leftover == C.members, (leftover, C.members)
            base = {v: self.phi[v] for v in C.members}
        else:
            base = {}
        stats.work = g.work
        return unwind(self.records, base)


def three_color(g: PlaneGraph, **kwargs) -> dict[int, int]:
    """Proper 3-coloring of a triangle-free plane graph; consumes g."""
    return Solver(g, **kwargs).run()


def constraint_from_cycle(g: PlaneGraph, cycle: Iterable[int]) -> ConstraintCycle:
    """Check that ``cycle`` is a facial cycle of length 3..5 in g."""
    cyc = tuple(cycle)
    k = len(cyc)
    if not 3 <= k <= 5 or len(set(cyc)) != k:
        raise NotAFacialCycle(cyc)
    for v in cyc:
        if not (0 <= v < len(g.v_alive) and g.v_alive[v]):
            raise NotAFacialCycle(cyc)
    d01 = None
    for d in g.darts_at(cyc[0]):
        if g.head(d) == cyc[1]:
            d01 = d
            break
    if d01 is None:
        raise NotAFacialCycle(cyc)
    expect_fwd = cyc
    expect_rev = (cyc[1], cyc[0]) + tuple(reversed(cyc[2:]))
    for d, expect in ((d01, expect_fwd), (g.d_twin[d01], expect_rev)):
        walk, closed = g.walk_face(d, k + 1)
        if closed and tuple(g.d_origin[e] for e in walk) == expect:
            return ConstraintCycle(cyc)
    raise NotAFacialCycle(cyc)


def precolored_solver(g: PlaneGraph, cycle: Iterable[int],
                      phi: dict[int, int], **kwargs) -> Solver:
    """Validate cycle and phi, returning a ready Solver."""
    C = constraint_from_cycle(g, cycle)
    if set(phi) != C.members:
        raise ImproperPrecoloring("precoloring domain is not V(C)")
    if any(phi[v] not in (0, 1, 2) for v in C.order):
        raise ImproperPrecoloring("colors must be in {0,1,2}")
    k = len(C.order)
    for i in range(k):
        if phi[C.order[i]] == phi[C.order[(i + 1) % k]]:
            raise ImproperPrecoloring("adjacent cycle vertices share a color")
    return Solver(g, constraint=C, precoloring=phi, **kwargs)


def three_color_precolored(g: PlaneGraph, cycle: Iterable[int],
                           phi: dict[int, int], **kwargs) -> dict[int, int]:
    """Extend a proper 3-coloring of a short facial cycle to all of g.

    ``cycle`` must be a facial cycle of length at most 5 and ``phi`` a
    proper coloring of exactly its vertices; the output agrees with phi
    there.  Consumes g.
    """
    return precolored_solver(g, cycle, phi, **kwargs).run()
