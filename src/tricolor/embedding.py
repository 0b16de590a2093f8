"""Mutable plane-graph kernel: doubly linked clockwise rotation lists.

A graph drawn in the plane (or on the sphere) is stored as a rotation
system.  Every edge contributes two *darts* (directed sides); darts and
vertices are dense integer ids into parallel arrays, and ids are never
reused, so stale references are detectably dead.  Each vertex keeps the
cyclic clockwise order of its outgoing darts through ``d_next``/``d_prev``
and an exact degree counter.

The face-successor permutation is fixed as

    sigma(d) = next(twin(d))

so with clockwise rotations every sigma orbit traces one boundary
component of a face, keeping the face on the left of each dart.  Faces
are never stored; they are read off by tracing.  A "facial cycle" here is
any closed orbit that is a simple cycle, regardless of whether some other
connected component is drawn inside it.

Vertices of degree >= 60 are *big*; bounded queries (adjacency, vicinity
scans) insist that at least one involved vertex is small
(degree <= DEGREE_CAP = 59) and cost O(1) with constants depending only
on the cap.  The ``work`` counter accumulates primitive step counts so
tests can assert the constant-work contracts.

``RecordingGraph`` is the same graph with read primitives that also
append to ``reads`` every vertex whose degree, rotation or identity as a
dart's origin they read.  The solver switches a graph's class to it for
the length of one pivot search and back, so the footprint of a failed
search is recorded while builds, validation, generators and surgery run
the plain primitives and pay nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

DEGREE_CAP = 59


class EmbeddingError(Exception):
    """A plane-graph structure error; the message names the fault."""


class NonPlanarEmbedding(EmbeddingError):
    """Some connected component fails the genus-0 Euler check."""


class EmbeddingCorruption(EmbeddingError):
    """Raised by the validator when an invariant is broken."""


@dataclass
class IdentifyResult:
    survivor: int
    absorbed: int
    # (neighbor, dart now rooted at the survivor), in the absorbed
    # vertex's rotation order; darts of collapsed copies are dead.
    moved: list[tuple[int, int]]
    # (neighbor, facial +-2 window captured just before the deletion)
    collapsed: list[tuple[int, tuple[int, ...]]]


class PlaneGraph:
    """Plane graph as parallel id arrays.  Single-owner mutable value."""

    __slots__ = (
        "v_alive", "v_deg", "v_dart", "v_mark",
        "d_origin", "d_twin", "d_next", "d_prev", "d_alive",
        "n_alive", "m_alive", "work", "_epoch", "reads",
    )

    def __init__(self) -> None:
        self.v_alive: list[bool] = []
        self.v_deg: list[int] = []
        self.v_dart: list[int] = []     # some outgoing dart, -1 if isolated
        self.v_mark: list[int] = []     # scratch epochs for traversals
        self.d_origin: list[int] = []
        self.d_twin: list[int] = []
        self.d_next: list[int] = []
        self.d_prev: list[int] = []
        self.d_alive: list[bool] = []
        self.n_alive = 0
        self.m_alive = 0
        self.work = 0
        self._epoch = 0
        self.reads: list[int] = []     # filled by RecordingGraph only

    def next_epoch(self) -> int:
        """Fresh stamp for the v_mark scratch column."""
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------------
    # construction

    def new_vertex(self) -> int:
        v = len(self.v_alive)
        self.v_alive.append(True)
        self.v_deg.append(0)
        self.v_dart.append(-1)
        self.v_mark.append(0)
        self.n_alive += 1
        return v

    def _new_dart(self, origin: int) -> int:
        d = len(self.d_origin)
        self.d_origin.append(origin)
        self.d_twin.append(-1)
        self.d_next.append(-1)
        self.d_prev.append(-1)
        self.d_alive.append(True)
        return d

    def copy(self) -> "PlaneGraph":
        g = PlaneGraph()
        g.v_alive = list(self.v_alive)
        g.v_deg = list(self.v_deg)
        g.v_dart = list(self.v_dart)
        g.v_mark = [0] * len(self.v_mark)
        g.d_origin = list(self.d_origin)
        g.d_twin = list(self.d_twin)
        g.d_next = list(self.d_next)
        g.d_prev = list(self.d_prev)
        g.d_alive = list(self.d_alive)
        g.n_alive = self.n_alive
        g.m_alive = self.m_alive
        return g

    # ------------------------------------------------------------------
    # basic queries

    def vertex_ids(self) -> Iterator[int]:
        alive = self.v_alive
        return (v for v in range(len(alive)) if alive[v])

    def head(self, d: int) -> int:
        return self.d_origin[self.d_twin[d]]

    def darts_at(self, v: int) -> Iterator[int]:
        """Outgoing darts of v in clockwise rotation order."""
        d0 = self.v_dart[v]
        if d0 < 0:
            return
        d = d0
        nxt = self.d_next
        while True:
            yield d
            d = nxt[d]
            if d == d0:
                return

    def neighbors(self, v: int) -> Iterator[int]:
        origin = self.d_origin
        twin = self.d_twin
        for d in self.darts_at(v):
            yield origin[twin[d]]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All alive edges as (origin, head, dart) with dart < twin."""
        twin = self.d_twin
        origin = self.d_origin
        for d in range(len(origin)):
            if self.d_alive[d] and d < twin[d]:
                yield origin[d], origin[twin[d]], d

    def dart_between(self, u: int, v: int) -> int | None:
        """The dart u->v, or None.  One of u, v must be small."""
        du, dv = self.v_deg[u], self.v_deg[v]
        if du <= dv:
            if du > DEGREE_CAP:
                raise EmbeddingError(f"adjacency query between big {u} and {v}")
            self.work += du
            for d in self.darts_at(u):
                if self.head(d) == v:
                    return d
            return None
        if dv > DEGREE_CAP:
            raise EmbeddingError(f"adjacency query between big {u} and {v}")
        self.work += dv
        for d in self.darts_at(v):
            if self.head(d) == u:
                return self.d_twin[d]
        return None

    def adjacent(self, u: int, v: int) -> bool:
        return self.dart_between(u, v) is not None

    # ------------------------------------------------------------------
    # face tracing

    def trace_face(self, d: int) -> list[int]:
        """Full sigma orbit of d (cost proportional to its length)."""
        if not self.d_alive[d]:
            raise EmbeddingError(f"dead dart {d}")
        out = [d]
        nxt, twin = self.d_next, self.d_twin
        e = nxt[twin[d]]
        while e != d:
            out.append(e)
            e = nxt[twin[e]]
        self.work += len(out)
        return out

    def walk_face(self, d: int, limit: int) -> tuple[list[int], bool]:
        """Up to ``limit`` sigma steps from d: (darts, closed-within-limit)."""
        if not self.d_alive[d]:
            raise EmbeddingError(f"dead dart {d}")
        out = [d]
        nxt, twin = self.d_next, self.d_twin
        e = nxt[twin[d]]
        while e != d:
            if len(out) >= limit:
                self.work += limit
                return out, False
            out.append(e)
            e = nxt[twin[e]]
        self.work += len(out)
        return out, True

    def edge_vicinity(self, d: int) -> tuple[list[int], bool]:
        """Vertices within facial-walk distance 2 of edge(d)'s ends, on d's face.

        Also reports whether the boundary component containing d has
        length at most 6.  Constant work: at most 7 sigma steps.
        """
        walk, closed = self.walk_face(d, 7)
        origin = self.d_origin
        if closed and len(walk) <= 6:
            verts = [origin[e] for e in walk]
            return sorted(set(verts)), True
        # open window: two back, the two ends, two forward
        twin, prv = self.d_twin, self.d_prev
        b1 = twin[prv[d]]
        b2 = twin[prv[b1]]
        picks = [origin[b2], origin[b1], origin[walk[0]],
                 origin[walk[1]], origin[walk[2]], origin[walk[3]]]
        self.work += 2
        return sorted(set(picks)), False

    def edge_window(self, d: int) -> tuple[int, ...]:
        """Vertices within facial-walk distance 2 of edge(d)'s ends on both
        sides of the edge, sorted; at most 10 of them."""
        verts = set(self.edge_vicinity(d)[0])
        verts.update(self.edge_vicinity(self.d_twin[d])[0])
        return tuple(sorted(verts))

    # ------------------------------------------------------------------
    # mutation

    def _excise(self, d: int) -> None:
        """Unlink d from its origin's rotation and kill it."""
        u = self.d_origin[d]
        nxt = self.d_next[d]
        if nxt == d:
            self.v_dart[u] = -1
        else:
            prv = self.d_prev[d]
            self.d_next[prv] = nxt
            self.d_prev[nxt] = prv
            if self.v_dart[u] == d:
                self.v_dart[u] = nxt
        self.d_alive[d] = False
        self.v_deg[u] -= 1

    def remove_edge(self, d: int) -> None:
        if not self.d_alive[d]:
            raise EmbeddingError(f"dead dart {d}")
        t = self.d_twin[d]
        self._excise(d)
        self._excise(t)
        self.m_alive -= 1
        self.work += 1

    def _insert_before(self, u: int, ref: int | None, nd: int) -> None:
        if ref is None:
            self.d_next[nd] = nd
            self.d_prev[nd] = nd
            self.v_dart[u] = nd
        else:
            p = self.d_prev[ref]
            self.d_next[p] = nd
            self.d_prev[nd] = p
            self.d_next[nd] = ref
            self.d_prev[ref] = nd
        self.v_deg[u] += 1

    def add_edge_at(self, u: int, d_u: int | None, v: int,
                    d_v: int | None) -> int:
        """Insert edge u-v; new darts go immediately before d_u / d_v.

        A position of None is allowed only for an isolated endpoint.
        Returns the dart u->v.  The face holding both positions is split
        in two; positions on two different faces break the Euler formula,
        which ``validate`` reports.
        """
        if u == v:
            raise EmbeddingError(f"edge from vertex {u} to itself")
        for w in (u, v):
            if not self.v_alive[w]:
                raise EmbeddingError(f"dead vertex {w}")
        for w, ref in ((u, d_u), (v, d_v)):
            if ref is None:
                if self.v_deg[w] != 0:
                    raise EmbeddingError(f"position required at vertex {w}")
            elif not self.d_alive[ref] or self.d_origin[ref] != w:
                raise EmbeddingError(f"dart {ref} is dead or not at vertex {w}")
        n1 = self._new_dart(u)
        n2 = self._new_dart(v)
        self.d_twin[n1] = n2
        self.d_twin[n2] = n1
        self._insert_before(u, d_u, n1)
        self._insert_before(v, d_v, n2)
        self.m_alive += 1
        self.work += 1
        return n1

    def add_edge(self, d_u: int, d_v: int) -> int:
        """Split the face along d_u's walk with a new chord (spec surface)."""
        for d in (d_u, d_v):
            if not self.d_alive[d]:
                raise EmbeddingError(f"dead dart {d}")
        return self.add_edge_at(self.d_origin[d_u], d_u,
                                self.d_origin[d_v], d_v)

    def remove_isolated_vertex(self, v: int) -> None:
        if not self.v_alive[v]:
            raise EmbeddingError(f"dead vertex {v}")
        if self.v_deg[v] != 0:
            raise EmbeddingError(f"vertex {v} is not isolated")
        self.v_alive[v] = False
        self.v_dart[v] = -1
        self.n_alive -= 1
        self.work += 1

    def identify_across_face(self, a: int, b: int, d_a: int | None,
                             d_b: int | None) -> IdentifyResult:
        """Merge b into a across the face holding both given positions.

        b must be small: its darts get relabeled, so the absorbed side
        bounds the work.  b's rotation enters a's as one clockwise block
        in the corner before d_a; parallel pairs this creates bound
        2-faces (guaranteed by the callers' safety predicates) and lose
        their moved copy before return.
        """
        for w in (a, b):
            if not self.v_alive[w]:
                raise EmbeddingError(f"dead vertex {w}")
        if a == b:
            raise EmbeddingError(f"cannot identify vertex {a} with itself")
        deg_a, deg_b = self.v_deg[a], self.v_deg[b]
        if deg_b > DEGREE_CAP:
            raise EmbeddingError(f"absorbed vertex {b} is big")
        if deg_b and self.adjacent(a, b):
            raise EmbeddingError(f"cannot identify adjacent {a} and {b}")
        for w, deg, ref in ((a, deg_a, d_a), (b, deg_b, d_b)):
            if ref is None:
                if deg != 0:
                    raise EmbeddingError(f"position required at vertex {w}")
            elif not self.d_alive[ref] or self.d_origin[ref] != w:
                raise EmbeddingError(f"dart {ref} is dead or not at vertex {w}")

        origin, twin = self.d_origin, self.d_twin
        moved: list[tuple[int, int]] = []
        if deg_b:
            d = d_b
            for _ in range(deg_b):
                origin[d] = a
                moved.append((origin[twin[d]], d))
                d = self.d_next[d]
            if deg_a == 0:
                self.v_dart[a] = d_b
            else:
                pa = self.d_prev[d_a]
                pb = self.d_prev[d_b]
                self.d_next[pa] = d_b
                self.d_prev[d_b] = pa
                self.d_next[pb] = d_a
                self.d_prev[d_a] = pb
            self.v_deg[a] = deg_a + deg_b
            self.v_deg[b] = 0
            self.v_dart[b] = -1
        self.v_alive[b] = False
        self.n_alive -= 1
        self.work += deg_b + 1

        collapsed: list[tuple[int, tuple[int, ...]]] = []
        if deg_a and deg_b:
            moved_darts = {d for _, d in moved}
            for seam in (d_a, d_b):
                if not self.d_alive[seam]:
                    continue
                e = self.d_next[twin[seam]]
                if e == twin[seam] or self.d_next[twin[e]] != seam:
                    continue
                # 2-face {seam, e}: delete the moved copy of the pair
                seam_moved = seam in moved_darts or twin[seam] in moved_darts
                e_moved = e in moved_darts or twin[e] in moved_darts
                if seam_moved == e_moved:
                    raise EmbeddingCorruption(
                        f"parallel pair at identify({a},{b}) not one-per-side")
                doomed = seam if seam_moved else e
                w = a if origin[doomed] != a else origin[twin[doomed]]
                window = self.edge_window(doomed)
                self.remove_edge(doomed)
                collapsed.append((w, window))
        return IdentifyResult(a, b, moved, collapsed)


class RecordingGraph(PlaneGraph):
    """A PlaneGraph whose read primitives log what they read to ``reads``.

    Same slots as PlaneGraph, so ``g.__class__`` can be switched either
    way.  ``dart_between`` and ``adjacent`` reach ``darts_at`` and
    ``head`` through these overrides.
    """

    __slots__ = ()

    def head(self, d: int) -> int:
        w = self.d_origin[self.d_twin[d]]
        self.reads.append(w)
        return w

    def darts_at(self, v: int) -> Iterator[int]:
        self.reads.append(v)
        return PlaneGraph.darts_at(self, v)

    def neighbors(self, v: int) -> list[int]:
        origin, twin = self.d_origin, self.d_twin
        out = [origin[twin[d]] for d in self.darts_at(v)]
        self.reads.extend(out)
        return out

    def dart_between(self, u: int, v: int) -> int | None:
        self.reads.append(u)
        self.reads.append(v)
        return PlaneGraph.dart_between(self, u, v)

    def walk_face(self, d: int, limit: int) -> tuple[list[int], bool]:
        out, closed = PlaneGraph.walk_face(self, d, limit)
        origin = self.d_origin
        self.reads.extend([origin[e] for e in out])
        if not closed:
            # the rotation at the last dart's head was read to find that
            # the walk goes on
            self.reads.append(origin[self.d_twin[out[-1]]])
        return out, closed

def build(rotations: Sequence[Sequence[int]]) -> PlaneGraph:
    """Build a PlaneGraph from per-vertex clockwise neighbor lists.

    Vertex ids are the list indices.  Each unordered pair must appear in
    exactly the two matching lists; components must pass the genus-0
    Euler check.
    """
    g = PlaneGraph()
    n = len(rotations)
    for _ in range(n):
        g.new_vertex()
    pos: dict[tuple[int, int], int] = {}
    for u in range(n):
        rot = rotations[u]
        first = -1
        prev = -1
        for w in rot:
            if not 0 <= w < n:
                raise EmbeddingError(f"vertex {u} lists unknown {w}")
            if w == u:
                raise EmbeddingError(f"vertex {u} lists itself")
            if (u, w) in pos:
                raise EmbeddingError(f"vertex {u} lists {w} twice")
            d = g._new_dart(u)
            pos[(u, w)] = d
            if first < 0:
                first = d
            else:
                g.d_next[prev] = d
                g.d_prev[d] = prev
            prev = d
        if first >= 0:
            g.d_next[prev] = first
            g.d_prev[first] = prev
            g.v_dart[u] = first
            g.v_deg[u] = len(rot)
    for (u, w), d in pos.items():
        t = pos.get((w, u))
        if t is None:
            raise EmbeddingError(f"edge {u}-{w} missing from the rotation of {w}")
        g.d_twin[d] = t
    g.m_alive = len(pos) // 2
    _check_euler(g)
    return g


def _components(g: PlaneGraph) -> dict[int, int]:
    """Map each alive vertex to a component root (BFS over edges)."""
    comp: dict[int, int] = {}
    for s in g.vertex_ids():
        if s in comp:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp[w] = s
                    stack.append(w)
    return comp


def _check_euler(g: PlaneGraph) -> None:
    comp = _components(g)
    nv: dict[int, int] = {}
    ne: dict[int, int] = {}
    nf: dict[int, int] = {}
    for v, c in comp.items():
        nv[c] = nv.get(c, 0) + 1
        ne[c] = ne.get(c, 0) + g.v_deg[v]
    seen = [False] * len(g.d_origin)
    for d in range(len(g.d_origin)):
        if not g.d_alive[d] or seen[d]:
            continue
        c = comp[g.d_origin[d]]
        nf[c] = nf.get(c, 0) + 1
        e = d
        while not seen[e]:
            seen[e] = True
            e = g.d_next[g.d_twin[e]]
    for c, edges2 in ne.items():
        if edges2 == 0:
            continue
        euler = nv[c] - edges2 // 2 + nf.get(c, 0)
        if euler != 2:
            raise NonPlanarEmbedding(
                f"component of {c}: V-E+F = {euler}, want 2")


def validate(g: PlaneGraph) -> None:
    """Full-scan structural check; raises EmbeddingCorruption.

    Verifies twin involution, rotation consistency, degree counters,
    loop/parallel freedom and the per-component Euler formula.  Linear
    cost; run by tests, audit hooks and `tricolor color --validate`.
    """
    nd = len(g.d_origin)
    alive_darts = 0
    for d in range(nd):
        if not g.d_alive[d]:
            continue
        alive_darts += 1
        t = g.d_twin[d]
        if t == d or not g.d_alive[t] or g.d_twin[t] != d:
            raise EmbeddingCorruption(f"twin involution broken at dart {d}")
        if not g.v_alive[g.d_origin[d]]:
            raise EmbeddingCorruption(f"dart {d} rooted at dead vertex")
        if g.d_origin[t] == g.d_origin[d]:
            raise EmbeddingCorruption(f"loop at dart {d}")
        if g.d_next[g.d_prev[d]] != d or g.d_prev[g.d_next[d]] != d:
            raise EmbeddingCorruption(f"next/prev not inverse at dart {d}")
    if alive_darts != 2 * g.m_alive:
        raise EmbeddingCorruption("edge counter out of sync")
    n_alive = 0
    for v in range(len(g.v_alive)):
        if not g.v_alive[v]:
            if g.v_dart[v] != -1:
                raise EmbeddingCorruption(f"dead vertex {v} keeps a dart")
            continue
        n_alive += 1
        seen: list[int] = []
        for d in g.darts_at(v):
            if len(seen) > g.v_deg[v]:
                raise EmbeddingCorruption(f"rotation at {v} exceeds degree")
            if g.d_origin[d] != v or not g.d_alive[d]:
                raise EmbeddingCorruption(f"foreign dart {d} at vertex {v}")
            seen.append(g.head(d))
        if len(seen) != g.v_deg[v]:
            raise EmbeddingCorruption(f"degree counter wrong at {v}")
        if len(seen) != len(set(seen)):
            raise EmbeddingCorruption(f"parallel edges at vertex {v}")
    if n_alive != g.n_alive:
        raise EmbeddingCorruption("vertex counter out of sync")
    try:
        _check_euler(g)
    except NonPlanarEmbedding as exc:
        raise EmbeddingCorruption(str(exc)) from exc
