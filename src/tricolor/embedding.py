"""Mutable plane-graph kernel: doubly linked clockwise rotation lists.

A graph drawn in the plane (or on the sphere) is stored as a rotation
system.  Every edge contributes two *darts* (directed sides); darts and
vertices are dense integer ids into parallel arrays, and ids are never
reused, so stale references are detectably dead (a dart by ``d_origin``
-1).  Each vertex keeps the cyclic clockwise order of its outgoing
darts through ``d_next``/``d_prev`` and an exact degree counter.

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
tests can assert the constant-work contracts.  ``remove_vertex``
deletes a vertex with all its edges in one walk of its rotation.

``RecordingGraph(g)`` is a view of g that wraps g's arrays: each read
adds to the view's own ``reads`` the vertex whose degree, rotation or
identity as a dart's origin it reads, so PlaneGraph's methods and inline
array reads alike record on it.  ``multigram.footprint`` replays a
pivot search that found nothing on such a view, so only the footprint
of a failed search is recorded: the searches themselves, builds,
validation, generators and surgery run on the plain graph and pay
nothing for it.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, repeat
from operator import eq, ne
from typing import Iterator, Sequence

DEGREE_CAP = 59


class EmbeddingError(Exception):
    """A plane-graph structure error; the message names the fault."""


class NonPlanarEmbedding(EmbeddingError):
    """Some connected component fails the genus-0 Euler check."""


class EmbeddingCorruption(EmbeddingError):
    """Raised by the validator when an invariant is broken."""


class PlaneGraph:
    """Plane graph as id arrays, origin -1 at a dead dart; single-owner, mutable."""

    __slots__ = (
        "v_alive", "v_deg", "v_dart",
        "d_origin", "d_twin", "d_next", "d_prev",
        "n_alive", "m_alive", "work",
    )

    def __init__(self) -> None:
        self.v_alive: list[bool] = []
        self.v_deg: list[int] = []
        self.v_dart: list[int] = []     # some outgoing dart, -1 if isolated
        self.d_origin: list[int] = []   # -1 for a dead dart
        self.d_twin: list[int] = []
        self.d_next: list[int] = []
        self.d_prev: list[int] = []
        self.n_alive = 0
        self.m_alive = 0
        self.work = 0

    # ------------------------------------------------------------------
    # construction

    def new_vertex(self) -> int:
        v = len(self.v_alive)
        self.v_alive.append(True)
        self.v_deg.append(0)
        self.v_dart.append(-1)
        self.n_alive += 1
        return v

    def _new_dart(self, origin: int) -> int:
        d = len(self.d_origin)
        self.d_origin.append(origin)
        self.d_twin.append(-1)
        self.d_next.append(-1)
        self.d_prev.append(-1)
        return d

    def copy(self) -> "PlaneGraph":
        g = PlaneGraph()
        g.v_alive = list(self.v_alive)
        g.v_deg = list(self.v_deg)
        g.v_dart = list(self.v_dart)
        g.d_origin = list(self.d_origin)
        g.d_twin = list(self.d_twin)
        g.d_next = list(self.d_next)
        g.d_prev = list(self.d_prev)
        g.n_alive = self.n_alive
        g.m_alive = self.m_alive
        return g

    def clear(self) -> None:
        """Drop every vertex and dart, freeing the arrays; ``work`` stays."""
        work = self.work
        PlaneGraph.__init__(self)
        self.work = work

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

    def neighbors(self, v: int) -> list[int]:
        """Heads of v's darts in rotation order."""
        out: list[int] = []
        d0 = d = self.v_dart[v]
        if d0 >= 0:
            origin, twin, nxt = self.d_origin, self.d_twin, self.d_next
            while True:
                out.append(origin[twin[d]])
                d = nxt[d]
                if d == d0:
                    break
        return out

    def dart_between(self, u: int, v: int) -> int | None:
        """The dart u->v, or None.  One of u, v must be small; the scan
        runs from the end of smaller degree, u on a tie."""
        deg = self.v_deg
        a, b = (u, v) if deg[u] <= deg[v] else (v, u)
        if deg[a] > DEGREE_CAP:
            raise EmbeddingError(f"adjacency query between big {u} and {v}")
        self.work += deg[a]
        d0 = d = self.v_dart[a]
        if d0 >= 0:
            origin, twin, nxt = self.d_origin, self.d_twin, self.d_next
            while True:
                t = twin[d]
                if origin[t] == b:
                    return d if a == u else t
                d = nxt[d]
                if d == d0:
                    break
        return None

    def adjacent(self, u: int, v: int) -> bool:
        return self.dart_between(u, v) is not None

    # ------------------------------------------------------------------
    # face tracing

    def trace_face(self, d: int) -> list[int]:
        """Full sigma orbit of d (cost proportional to its length)."""
        return self.walk_face(d, len(self.d_origin))[0]

    def walk_face(self, d: int, limit: int) -> tuple[list[int], bool]:
        """Up to ``limit`` sigma steps from d: (darts, closed-within-limit)."""
        if self.d_origin[d] < 0:
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

    def face_cycle(self, d: int, limit: int) -> tuple[int, ...] | None:
        """The vertices of d's face in walk order from d's origin, when the
        face closes within ``limit`` sigma steps without repeating a
        vertex; else None."""
        walk, closed = self.walk_face(d, limit)
        if not closed:
            return None
        verts = tuple(self.d_origin[e] for e in walk)
        return verts if len(set(verts)) == len(verts) else None

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

    # ------------------------------------------------------------------
    # mutation

    def remove_edge(self, d: int) -> None:
        if self.d_origin[d] < 0:
            raise EmbeddingError(f"dead dart {d}")
        nxt, prv, v_dart, v_deg = self.d_next, self.d_prev, self.v_dart, self.v_deg
        for e in (d, self.d_twin[d]):
            # unlink e from its origin's rotation and kill it
            u = self.d_origin[e]
            n = nxt[e]
            if n == e:
                v_dart[u] = -1
            else:
                p = prv[e]
                nxt[p] = n
                prv[n] = p
                if v_dart[u] == e:
                    v_dart[u] = n
            self.d_origin[e] = -1
            v_deg[u] -= 1
        self.m_alive -= 1
        self.work += 1

    def remove_vertex(self, v: int) -> list[int]:
        """Delete v's edges in one walk of its rotation, each unlinked and
        counted in ``work`` as ``remove_edge`` does, then v through
        ``remove_isolated_vertex``; returns the heads in rotation order."""
        nxt, prv, v_dart, v_deg = self.d_next, self.d_prev, self.v_dart, self.v_deg
        origin, twin = self.d_origin, self.d_twin
        k = v_deg[v]
        heads = []
        d = v_dart[v]
        for _ in range(k):
            # unlink d from v's rotation, then its twin t from w's
            nxt[prv[d]] = nxt[d]
            prv[nxt[d]] = prv[d]
            t = twin[d]
            w = origin[t]
            heads.append(w)
            n = nxt[t]
            if n == t:
                v_dart[w] = -1
            else:
                p = prv[t]
                nxt[p] = n
                prv[n] = p
                if v_dart[w] == t:
                    v_dart[w] = n
            origin[d] = origin[t] = -1
            v_deg[w] -= 1
            d = nxt[d]
        v_deg[v] = 0
        self.m_alive -= k
        self.work += k
        self.remove_isolated_vertex(v)
        return heads

    def _check_position(self, w: int, ref: int | None) -> None:
        """w is alive and ref is a dart at w, or None at an isolated w."""
        if not self.v_alive[w]:
            raise EmbeddingError(f"dead vertex {w}")
        if ref is None:
            if self.v_deg[w] != 0:
                raise EmbeddingError(f"position required at vertex {w}")
        elif self.d_origin[ref] != w:
            raise EmbeddingError(f"dart {ref} is dead or not at vertex {w}")

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
        self._check_position(u, d_u)
        self._check_position(v, d_v)
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
                             d_b: int | None) -> tuple[list[int], list[int]]:
        """Merge b into a across the face holding both given positions.

        b must be small: its darts get relabeled, so the absorbed side
        bounds the work.  b's rotation enters a's as one clockwise block
        in the corner before d_a; parallel pairs this creates bound
        2-faces (guaranteed by the callers' safety predicates) and lose
        their moved copy before return.  Returns ``(moved, collapsed)``:
        the neighbors whose edge to b now ends at a, in b's rotation
        order, and those of them whose moved edge paralleled one at a
        and was deleted.
        """
        self._check_position(a, d_a)
        self._check_position(b, d_b)
        if a == b:
            raise EmbeddingError(f"cannot identify vertex {a} with itself")
        deg_a, deg_b = self.v_deg[a], self.v_deg[b]
        if deg_b > DEGREE_CAP:
            raise EmbeddingError(f"absorbed vertex {b} is big")
        if deg_b and self.adjacent(a, b):
            raise EmbeddingError(f"cannot identify adjacent {a} and {b}")

        origin, twin = self.d_origin, self.d_twin
        moved: list[int] = []
        moved_darts: set[int] = set()
        if deg_b:
            d = d_b
            for _ in range(deg_b):
                origin[d] = a
                moved.append(origin[twin[d]])
                moved_darts.add(d)
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

        collapsed: list[int] = []
        if deg_a and deg_b:
            for seam in (d_a, d_b):
                if origin[seam] < 0:
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
                u, w = origin[doomed], origin[twin[doomed]]
                self.remove_edge(doomed)
                collapsed.append(w if u == a else u)
        return moved, collapsed


class _LoggedArray:
    """A read-only view of one array: reading ``items[i]`` adds ``key[i]``
    to ``reads``."""

    __slots__ = ("items", "key", "reads")

    def __init__(self, items: list, key: Sequence[int],
                 reads: set[int]) -> None:
        self.items, self.key, self.reads = items, key, reads

    def __getitem__(self, i: int):
        self.reads.add(self.key[i])
        return self.items[i]


class RecordingGraph(PlaneGraph):
    """A read-only view of a PlaneGraph that logs to ``reads`` every
    vertex whose degree, rotation or identity as a dart's origin is read.

    The view keeps PlaneGraph's methods and wraps g's arrays: a read of
    ``v_deg[v]`` or ``v_dart[v]`` logs v, a read of ``d_next[d]`` or
    ``d_prev[d]`` logs d's origin, and a read of ``d_origin[d]`` logs the
    origin read.  A twin is a dart, not a vertex, so ``d_twin`` stays
    g's own, as does ``v_alive``, which no search reads.  The view keeps
    its own ``work``, so a search replayed on it, as
    ``multigram.footprint`` replays a failed one, leaves g's as it was.
    """

    __slots__ = ("reads",)

    def __init__(self, g: PlaneGraph) -> None:
        self.reads: set[int] = set()
        ids = range(len(g.v_deg))
        self.v_alive, self.d_twin = g.v_alive, g.d_twin
        self.v_deg = _LoggedArray(g.v_deg, ids, self.reads)
        self.v_dart = _LoggedArray(g.v_dart, ids, self.reads)
        self.d_origin = _LoggedArray(g.d_origin, g.d_origin, self.reads)
        self.d_next = _LoggedArray(g.d_next, g.d_origin, self.reads)
        self.d_prev = _LoggedArray(g.d_prev, g.d_origin, self.reads)
        self.work = 0


def build(rotations: Sequence[Sequence[int]]) -> PlaneGraph:
    """Build a PlaneGraph from per-vertex clockwise neighbor lists.

    Vertex ids are the list indices.  Each unordered pair must appear in
    exactly the two matching lists; components must pass the genus-0
    Euler check.  Dart ids follow the lists: vertex u's darts are one
    consecutive block in rotation order, and ``v_dart[u]`` is the first.

    The twin of dart u->w sits in w's block at u's position in w's
    rotation.  For a small w that position is ``list.index``, a scan of
    at most DEGREE_CAP entries; a big w would make those scans quadratic,
    so it gets one {neighbor: position} dict built from its own rotation.
    The dicts hold at most one entry per dart, so build stays linear and
    keeps no table keyed by dart.  Whole-list passes find range and
    self-loop faults before the pairing; a u that w's rotation lacks
    fails the lookup, and a repeated pair leaves twin no involution.
    On any fault ``_fault`` names the first one in dart order.
    """
    n = len(rotations)
    deg = list(map(len, rotations))
    heads = list(chain.from_iterable(rotations))
    nd = len(heads)
    ids = list(range(max(nd + 1, n)))   # the ints all arrays share
    origin = list(chain.from_iterable(map(repeat, ids, deg)))
    if (any(map(eq, origin, heads))
            or heads and (min(heads) < 0 or max(heads) >= n)):
        raise _fault(n, origin, heads)
    start = [0, *accumulate(deg)]
    big = {w: dict(zip(rotations[w], range(deg[w])))
           for w in range(n) if deg[w] > DEGREE_CAP}
    try:
        twin = [ids[start[w] + (rotations[w].index(u) if deg[w] <= DEGREE_CAP
                                else big[w][u])]
                for u, w in zip(origin, heads)]
    except (ValueError, KeyError):  # some u is missing from w's rotation
        raise _fault(n, origin, heads) from None
    if any(map(ne, map(twin.__getitem__, twin), ids)):     # a repeated pair
        raise _fault(n, origin, heads)
    del heads, start                # before the next/prev lists add to the peak
    # each block's darts point to their neighbors in the block, cyclically
    nxt = ids[1:nd + 1]
    prv = ids[nd - 1:nd] + ids[:nd - 1] if nd else []
    v_dart = [-1] * n
    for u, k, e in compress(zip(range(n), deg, accumulate(deg)), deg):
        first, last = ids[e - k], ids[e - 1]
        nxt[last] = first
        prv[first] = last
        v_dart[u] = first
    g = PlaneGraph()
    g.v_alive = [True] * n
    g.v_deg = deg
    g.v_dart = v_dart
    g.d_origin = origin
    g.d_twin = twin
    g.d_next = nxt
    g.d_prev = prv
    g.n_alive, g.m_alive = n, nd // 2
    _check_euler(g)
    return g


def _fault(n: int, origin: list[int], heads: list[int]) -> EmbeddingError:
    """The error naming the first unknown, self-listed or repeated
    neighbor in dart order or, if there is none, the first dart whose
    reverse is not listed."""
    listed: set[tuple[int, int]] = set()
    for u, w in zip(origin, heads):
        if not 0 <= w < n:
            return EmbeddingError(f"vertex {u} lists unknown {w}")
        if w == u:
            return EmbeddingError(f"vertex {u} lists itself")
        if (u, w) in listed:
            return EmbeddingError(f"vertex {u} lists {w} twice")
        listed.add((u, w))
    u, w = next((u, w) for u, w in zip(origin, heads)
                if (w, u) not in listed)
    return EmbeddingError(f"edge {u}-{w} missing from the rotation of {w}")


def _check_euler(g: PlaneGraph) -> None:
    """Every component with an edge has V - E + F = 2.

    A rotation system embeds each component in an orientable surface, so
    its V - E + F is 2 - 2 * genus <= 2; the totals over the components
    with an edge therefore reach twice their number only if each is 2.
    """
    origin, twin, nxt, v_dart = g.d_origin, g.d_twin, g.d_next, g.v_dart
    marked = [False] * len(v_dart)
    comps = verts = 0
    for s in range(len(v_dart)):
        if marked[s] or v_dart[s] < 0:     # seen, dead or isolated
            continue
        comps += 1
        marked[s] = True
        stack = [s]
        while stack:
            verts += 1
            d0 = d = v_dart[stack.pop()]
            while True:
                w = origin[twin[d]]
                if not marked[w]:
                    marked[w] = True
                    stack.append(w)
                d = nxt[d]
                if d == d0:
                    break
    faces = 0
    seen = [False] * len(origin)
    for d in range(len(origin)):
        if seen[d] or origin[d] < 0:
            continue
        faces += 1
        e = d
        while not seen[e]:
            seen[e] = True
            e = nxt[twin[e]]
    euler = verts - g.m_alive + faces
    if euler != 2 * comps:
        raise NonPlanarEmbedding(
            f"V-E+F = {euler} over the components with an edge, "
            f"want {2 * comps}")


def validate(g: PlaneGraph) -> None:
    """Full-scan structural check; raises EmbeddingCorruption.

    One walk of each alive vertex's rotation, in vertex order, checks
    every dart it reaches (alive and rooted at the vertex, twin
    involution, the twin rooted at an alive vertex, no loop, next/prev
    inverse) and then the vertex (degree counter, no parallel edges); a
    dead vertex must keep no dart.  The edge and vertex counters follow,
    then a check that the walks reached every alive dart, so none is in
    no rotation, and last the per-component Euler formula.  Linear cost;
    run by tests, audit hooks, ``generate`` and the benchmark.
    """
    v_alive, v_deg = g.v_alive, g.v_deg
    origin, twin, nxt, prv = g.d_origin, g.d_twin, g.d_next, g.d_prev
    walked = n_alive = 0
    for v, d0 in enumerate(g.v_dart):
        if not v_alive[v]:
            if d0 != -1:
                raise EmbeddingCorruption(f"dead vertex {v} keeps a dart")
            continue
        n_alive += 1
        deg = v_deg[v]
        heads = []
        if d0 != -1:
            d = d0
            while True:
                if len(heads) > deg:
                    raise EmbeddingCorruption(f"rotation at {v} exceeds degree")
                if origin[d] != v:
                    raise EmbeddingCorruption(f"foreign dart {d} at vertex {v}")
                t = twin[d]
                # origin[t] < 0 first: index -1 would read the last vertex
                if t == d or origin[t] < 0 or twin[t] != d:
                    raise EmbeddingCorruption(f"twin involution broken at dart {d}")
                w = origin[t]
                if not v_alive[w]:
                    raise EmbeddingCorruption(f"dart {t} rooted at dead vertex")
                if w == v:
                    raise EmbeddingCorruption(f"loop at dart {d}")
                if prv[nxt[d]] != d:
                    raise EmbeddingCorruption(f"next/prev not inverse at dart {d}")
                heads.append(w)
                d = nxt[d]
                if d == d0:
                    break
        if len(heads) != deg:
            raise EmbeddingCorruption(f"degree counter wrong at {v}")
        if len(set(heads)) != deg:
            raise EmbeddingCorruption(f"parallel edges at vertex {v}")
        walked += deg
    alive_darts = len(origin) - origin.count(-1)
    if alive_darts != 2 * g.m_alive:
        raise EmbeddingCorruption("edge counter out of sync")
    if n_alive != g.n_alive:
        raise EmbeddingCorruption("vertex counter out of sync")
    if walked != alive_darts:
        raise EmbeddingCorruption(
            f"{alive_darts - walked} alive darts are in no rotation")
    try:
        _check_euler(g)
    except NonPlanarEmbedding as exc:
        raise EmbeddingCorruption(str(exc)) from exc
