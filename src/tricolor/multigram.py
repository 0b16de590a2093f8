"""The six reducible configurations and their bounded security tests.

A multigram is a monogram (one vertex of degree <= 2) or a facial cycle
of length 4, 5 or 6 listed in walk order with the pivot first.  ``SHAPES``
states once each cycle kind's length and leading degree-3 vertices:

    tetragram   facial 4-cycle, v1 of degree 3
    octagram    tetragram with all four degrees exactly 3
    pentagram   facial 5-cycle with v1..v4 of degree exactly 3
    decagram    pentagram with v5 also of degree 3
    hexagram    facial 6-cycle, v1 of degree 3

Safety is the per-kind path-exclusion predicate that keeps the reduction
triangle-free; (C-)security adds degree and admissibility side
conditions.  Those side conditions are exactly what makes the safety
paths enumerable in bounded work: on every path that must be tested, all
vertices but at most one are small, so searches expand from small
endpoints only.  The one genuinely tricky spot is a tetragram whose v3
and some neighbor of x are both big; there the verified 4-face clause
already implies non-adjacency (a shared neighbor of v2 and v3 would form
a triangle), so the test is skipped rather than scanned.

The precolored facial cycle C is passed as the set of its vertex ids:
only membership in C is ever tested.  A plain run passes ``NO_CYCLE``.

Everything here is read-only on the graph.  ``footprint`` replays a
search that found nothing on a ``RecordingGraph``, whose arrays record
every vertex the search read.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple

from .embedding import DEGREE_CAP, EmbeddingError, PlaneGraph, RecordingGraph

MONOGRAM = "monogram"
TETRAGRAM = "tetragram"
OCTAGRAM = "octagram"
DECAGRAM = "decagram"
PENTAGRAM = "pentagram"
HEXAGRAM = "hexagram"

#: Detection order for find_secure_with_pivot (fixed for determinism).
KIND_ORDER = (MONOGRAM, TETRAGRAM, OCTAGRAM, DECAGRAM, PENTAGRAM, HEXAGRAM)

#: kind -> (cycle length, leading vertices of degree exactly 3, leading
#: vertices whose third neighbor goes into ``aux``)
SHAPES = {
    TETRAGRAM: (4, 1, 1),
    OCTAGRAM: (4, 4, 1),
    DECAGRAM: (5, 5, 4),
    PENTAGRAM: (5, 4, 4),
    HEXAGRAM: (6, 1, 1),
}

#: The longest face a cycle kind lies on: ``find_secure_with_pivot``
#: walks no further.
_LONGEST = max(k for k, _, _ in SHAPES.values())

#: The constraint cycle C of a plain run: no precolored vertex.
NO_CYCLE: frozenset[int] = frozenset()


class Multigram(NamedTuple):
    """One configuration instance.

    ``vertices`` lists the facial cycle in walk order starting at the
    pivot (just the vertex for a monogram).  ``darts[i]`` is the dart of
    the bounding face whose origin is ``vertices[i]`` -- note that for a
    reversed listing these are not the listing-order darts, they simply
    locate each vertex's corner on the face.  At a vertex of degree 3 the
    dart after ``darts[i]`` in its rotation goes to its neighbor off the
    cycle, in either listing: the dart before ``darts[i]`` is the twin of
    the face's dart into the vertex.  ``aux`` holds the off-cycle
    neighbors of the leading vertices ``SHAPES`` names: x of the pivot
    (tetragram, octagram, hexagram) or x1..x4 (pentagram, decagram).
    """

    kind: str
    vertices: tuple[int, ...]
    aux: tuple[int, ...] = ()
    darts: tuple[int, ...] = ()


def admissible(g: PlaneGraph, v: int, C: AbstractSet[int] = NO_CYCLE) -> bool:
    """Small and not on C."""
    return g.v_deg[v] <= DEGREE_CAP and v not in C


def _no_forbidden_neighbor(g: PlaneGraph, v: int, C) -> bool:
    # v is small; a forbidden neighbor is big or on C
    deg = g.v_deg
    g.work += deg[v]
    for w in g.neighbors(v):
        if deg[w] > DEGREE_CAP or w in C:
            return False
    return True


def pendant_darts(g: PlaneGraph, darts: tuple[int, ...], n: int) -> list[int]:
    """For each of the first n face darts of a listing, whose origins all
    have degree 3, the dart to that origin's neighbor off the cycle: the
    dart after it in the origin's rotation."""
    g.work += n
    return [g.d_next[d] for d in darts[:n]]


def _has_shape(g: PlaneGraph, kind: str, verts: tuple[int, ...]) -> bool:
    """verts has the length and the leading degree-3 vertices of kind."""
    if kind not in SHAPES:
        raise ValueError(kind)
    k, n3, _ = SHAPES[kind]
    deg = g.v_deg
    return len(verts) == k and all(deg[w] == 3 for w in verts[:n3])


# ----------------------------------------------------------------------
# safety

def _tetragram_safe(g: PlaneGraph, v1: int, v3: int, x: int) -> bool:
    # Requires x small; when v3 and a neighbor b of x are both big, the
    # caller has verified the 4-face clause for b, which forces b and v3
    # non-adjacent (a common neighbor with v2 or v4 would close a
    # triangle), so that pair is skipped instead of scanned.
    if g.adjacent(x, v3):
        return False
    deg = g.v_deg
    big_v3 = deg[v3] > DEGREE_CAP
    for b in g.neighbors(x):
        if b == v1 or b == v3:
            continue
        if big_v3 and deg[b] > DEGREE_CAP:
            continue
        if g.adjacent(b, v3):
            return False
    return True


def _path_len2_exists(g: PlaneGraph, s: int, t: int, excluded) -> bool:
    nt = {w for w in g.neighbors(t) if w not in excluded}
    g.work += g.v_deg[s] + g.v_deg[t]
    return any(w in nt for w in g.neighbors(s) if w not in excluded)


def _path_len3_exists(g: PlaneGraph, small_end: int, other: int, excluded) -> bool:
    # small_end's neighbors are all small (caller-established), so the
    # adjacency scans below are bounded.
    nbrs_other = [b for b in g.neighbors(other)
                  if b not in excluded and b != small_end]
    for a in g.neighbors(small_end):
        if a in excluded or a == other:
            continue
        for b in nbrs_other:
            if a != b and g.adjacent(a, b):
                return True
    return False


def _is_facial_cycle5(g: PlaneGraph, cyc: tuple[int, int, int, int, int]) -> bool:
    d = g.dart_between(cyc[0], cyc[1])
    if d is None:
        return False
    rev = (cyc[1], cyc[0], cyc[4], cyc[3], cyc[2])
    return g.face_cycle(d, 5) == cyc or g.face_cycle(g.d_twin[d], 5) == rev


def _pentagram_safe(g: PlaneGraph, verts, xs, side25: int, side34: int) -> bool:
    # side25 in {x2, v5} and side34 in {x3, x4} have only admissible
    # (hence small) neighbors; path searches expand from those ends.
    v1, v2, v3, v4, v5 = verts
    x1, x2, x3, x4 = xs
    if len({x1, x2, x3, x4}) != 4:
        return False
    for i in range(4):
        for j in range(i + 1, 4):
            if g.adjacent(xs[i], xs[j]):
                return False
    excluded = {v1, v2, v3, v4}
    other25 = v5 if side25 == x2 else x2
    if g.adjacent(x2, v5):
        return False
    if _path_len2_exists(g, x2, v5, excluded):
        return False
    if _path_len3_exists(g, side25, other25, excluded):
        return False
    other34 = x4 if side34 == x3 else x3
    if _path_len3_exists(g, side34, other34, excluded):
        return False
    n4 = {w for w in g.neighbors(x4) if w not in excluded}
    g.work += g.v_deg[x3] + g.v_deg[x4]
    for y in g.neighbors(x3):
        if y in excluded or y not in n4:
            continue
        if not _is_facial_cycle5(g, (x3, v3, v4, x4, y)):
            return False
    return True


def _decagram_safe(g: PlaneGraph, x1: int, x3: int) -> bool:
    # x1, x3 small (admissibility is checked first)
    if x1 == x3 or g.adjacent(x1, x3):
        return False
    return not _path_len2_exists(g, x1, x3, ())


# ----------------------------------------------------------------------
# security

def _four_face_thirds(g: PlaneGraph, v1: int, x: int) -> set[int]:
    """Vertices w with a facial 4-cycle through edge v1-x and w adjacent x."""
    d = g.dart_between(v1, x)
    out: set[int] = set()
    if d is None:
        return out
    for e, at in ((d, 2), (g.d_twin[d], 3)):
        verts = g.face_cycle(e, 4)
        if verts is not None and len(verts) == 4:
            out.add(verts[at])
    return out


def is_secure(g: PlaneGraph, m: Multigram,
              C: AbstractSet[int] = NO_CYCLE) -> bool:
    """Full per-kind (C-)security including safety: the shape gate
    (``_has_shape``) for a cycle kind, then ``_secure``.  An unknown kind
    raises ``ValueError``."""
    verts = m.vertices
    kind = m.kind
    if kind == MONOGRAM:
        return g.v_deg[verts[0]] <= 2 and verts[0] not in C
    return _has_shape(g, kind, verts) and _secure(g, kind, verts, m.aux, C)


def _secure(g: PlaneGraph, kind: str, verts: tuple[int, ...],
            aux: tuple[int, ...], C: AbstractSet[int]) -> bool:
    """(C-)security, safety included, of the cycle kind listed as verts
    with the pendants aux, once its shape is established: by
    ``_has_shape`` in ``is_secure``, by the finder's own length and
    degree tests on the listings it walks.  Every graph read, by a
    method of g or inline from its arrays, is logged on a
    ``RecordingGraph``."""
    deg = g.v_deg
    if kind == TETRAGRAM:
        v1, v3, x = verts[0], verts[2], aux[0]
        if not (admissible(g, v1, C) and admissible(g, x, C)):
            return False
        if not admissible(g, v3, C):
            thirds = _four_face_thirds(g, v1, x)
            g.work += deg[x]
            for w in g.neighbors(x):
                if not admissible(g, w, C) and w not in thirds:
                    return False
        return _tetragram_safe(g, v1, v3, x)

    if kind == OCTAGRAM:
        return all(admissible(g, w, C) for w in verts)

    if kind == DECAGRAM:
        x1, x3 = aux[0], aux[2]
        if not all(admissible(g, w, C) for w in (*verts, x1, x3)):
            return False
        return _decagram_safe(g, x1, x3)

    if kind == PENTAGRAM:
        if not all(admissible(g, w, C) for w in (*verts, *aux)):
            return False
        v5, x2, x3, x4 = verts[4], aux[1], aux[2], aux[3]
        if _no_forbidden_neighbor(g, v5, C):
            side25 = v5
        elif _no_forbidden_neighbor(g, x2, C):
            side25 = x2
        else:
            return False
        if _no_forbidden_neighbor(g, x3, C):
            side34 = x3
        elif _no_forbidden_neighbor(g, x4, C):
            side34 = x4
        else:
            return False
        return _pentagram_safe(g, verts, aux, side25, side34)

    # HEXAGRAM
    v1, v3, v6, x = verts[0], verts[2], verts[5], aux[0]
    if not all(admissible(g, w, C) for w in (v1, v3, v6, x)):
        return False
    # Paths through v2 are impossible in a triangle-free graph (v2, b
    # and v3 would close one), so v6 and x are the only useful first
    # steps; v3 is small, so _tetragram_safe skips no pair.
    return (_tetragram_safe(g, v1, v3, v6)
            and _tetragram_safe(g, v1, v3, x))


def find_secure_with_pivot(g: PlaneGraph, v: int,
                           C: AbstractSet[int] = NO_CYCLE) -> Multigram | None:
    """Some (C-)secure multigram with pivot v, or None; constant work.

    Kinds are tried in KIND_ORDER; within a kind, incident faces in
    rotation order.  The faces at v are walked here, straight from the
    dart arrays, with the reads, the dead-dart check and the ``work`` of
    ``PlaneGraph.walk_face(d, _LONGEST)``.  Tetragram is tried on each
    4-face as it closes, so a secure one ends the search before the
    later faces are walked.  Octagram then scans the 4-faces; decagram,
    pentagram and hexagram scan each 5- or 6-face's forward listing and
    then its reversed one (v1, vk, ..., v2).  Each listing carries its
    leading run of degree-3 vertices, counted once; a kind's shape from
    ``SHAPES`` matches a listing of its length when that run is long
    enough, so ``_secure`` is called directly.  Each pendant in ``aux``
    is read inline from the dart after its face dart, as
    ``pendant_darts`` reads it, and a ``Multigram`` is built only for
    the hit.  A run reads only degrees of face vertices, which the walk
    has read already, so a failed search reads what a search that lists
    every face first reads, and ``footprint`` records that.

    A 4-face needs only its forward listing.  The tetragram test reads
    v1, v3 and the pendant x of v1, read after v1's face dart, the same
    dart in both listings; the octagram test reads only the vertex set.
    So the reversed test would repeat the forward result with the same
    reads, and only ``work`` would differ.  The other kinds read
    positions that reversal moves.
    """
    deg = g.v_deg
    if deg[v] > 3 or v in C:
        return None
    if deg[v] <= 2:
        return Multigram(MONOGRAM, (v,), (), ())
    origin, twin, nxt = g.d_origin, g.d_twin, g.d_next
    # the tetragram's one leading degree-3 vertex is the pivot itself,
    # and its one pendant is the pivot's, after the face dart d
    k4, _, n_aux = SHAPES[TETRAGRAM]
    listings = []
    d0 = d = g.v_dart[v]
    while True:
        if origin[d] < 0:
            raise EmbeddingError(f"dead dart {d}")
        walk = [d]
        e = nxt[twin[d]]
        k = 1
        while e != d and k < _LONGEST:
            walk.append(e)
            k += 1
            e = nxt[twin[e]]
        g.work += k
        if e == d and k >= k4:
            verts = tuple(map(origin.__getitem__, walk))
            if len(set(verts)) == k:
                darts = tuple(walk)
                if k == k4:
                    aux = (origin[twin[nxt[d]]],)
                    g.work += n_aux
                    if _secure(g, TETRAGRAM, verts, aux, C):
                        return Multigram(TETRAGRAM, verts, aux, darts)
                    face = ((verts, darts),)
                else:
                    face = ((verts, darts),
                            ((v, *verts[:0:-1]), (d, *darts[:0:-1])))
                for lverts, ldarts in face:
                    run = 1
                    while run < k and deg[lverts[run]] == 3:
                        run += 1
                    listings.append((lverts, ldarts, run))
        d = nxt[d]
        if d == d0:
            break
    for kind in KIND_ORDER[2:]:
        k, n3, n_aux = SHAPES[kind]
        for verts, darts, run in listings:
            if len(verts) == k and run >= n3:
                aux = tuple([origin[twin[nxt[x]]] for x in darts[:n_aux]])
                g.work += n_aux
                if _secure(g, kind, verts, aux, C):
                    return Multigram(kind, verts, aux, darts)
    return None


def footprint(g: PlaneGraph, v: int, C: AbstractSet[int] = NO_CYCLE) -> set[int]:
    """The footprint of a search at pivot v that found nothing: v and
    every vertex whose degree, rotation or identity as a dart's origin
    it read.

    The search is replayed on a ``RecordingGraph`` view of g.  It is
    read-only and deterministic, so the replay reads what the search
    read.  Recording is bookkeeping: the replay counts its ``work`` on
    the view, and g's is left as it was.
    """
    view = RecordingGraph(g)
    find_secure_with_pivot(view, v, C)
    view.reads.add(v)
    return view.reads
