"""Checks of colorings and graphs, and brute-force references for the
fast paths.

``SimpleGraph``, ``is_triangle_free`` and ``is_proper`` are linear and
uncapped: ``tricolor color`` runs the triangle check and ``tricolor
check`` the properness check on every input.  The rest evaluates
definitions literally (unrestricted path enumeration, full face lists,
exhaustive coloring search) and is capped to small instances.
Exceeding a cap raises TooLarge instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import AbstractSet, Iterator

from .embedding import DEGREE_CAP, PlaneGraph
from .multigram import (
    DECAGRAM, HEXAGRAM, MONOGRAM, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    NO_CYCLE, Multigram,
)


ENUMERATE_CAP = 14   # vertices enumerate_3colorings takes
SLOW_CAP = 200       # vertices the literal multigram checks take


class TooLarge(Exception):
    pass


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise TooLarge(f"{n} vertices exceed the oracle's cap of {cap}")


@dataclass
class SimpleGraph:
    """Embedding-free adjacency view: each alive vertex id maps to an
    exact-size tuple of its neighbors.  Tuples, not sets, so the view
    costs about half the memory (136 bytes per vertex on a grid against
    281); a membership test scans the tuple, which the brute-force
    callers here can afford."""

    adj: dict[int, tuple[int, ...]]

    @classmethod
    def from_plane_graph(cls, g: PlaneGraph) -> "SimpleGraph":
        """The alive vertices, each with the heads of its rotation, read
        off the dart arrays in ``neighbors`` order."""
        origin, twin, nxt, v_dart = g.d_origin, g.d_twin, g.d_next, g.v_dart
        adj: dict[int, tuple[int, ...]] = {}
        for v in compress(range(len(v_dart)), g.v_alive):
            nbrs = []
            d0 = d = v_dart[v]
            if d0 >= 0:
                while True:
                    nbrs.append(origin[twin[d]])
                    d = nxt[d]
                    if d == d0:
                        break
            adj[v] = tuple(nbrs)
        return cls(adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        """Vertices 0..n-1; neighbors in order of first mention, a
        repeated edge kept once."""
        nbrs: dict[int, dict[int, None]] = {v: {} for v in range(n)}
        for u, w in edges:
            if u == w:
                raise ValueError("loop")
            nbrs[u][w] = nbrs[w][u] = None
        return cls({v: tuple(ws) for v, ws in nbrs.items()})

    def __len__(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self.adj.items():
            for w in nbrs:
                if u < w:
                    yield u, w


def is_proper(sg: SimpleGraph, coloring: dict[int, int]) -> bool:
    """All vertices colored in {0,1,2} and no edge monochromatic."""
    for v in sg.adj:
        if coloring.get(v) not in (0, 1, 2):
            return False
    return all(coloring[u] != coloring[w] for u, w in sg.edges())


def is_triangle_free(sg: SimpleGraph) -> bool:
    """No edge u-w whose ends share a neighbor.

    Each edge is tested once, at its end of higher rank, where the rank
    is (degree, id): that end u's neighbors become one set, built when
    u's turn comes and dropped after it, and ``isdisjoint`` scans the
    tuple of each lower neighbor w.  The reads are 2m for the sets plus
    the sum over edges of the smaller end-degree, which is O(m) on a
    plane graph (Chiba and Nishizeki, Arboricity and subgraph listing
    algorithms, SIAM J. Comput. 1985), hubs included.
    """
    adj = sg.adj
    for u, nbrs in adj.items():
        du = len(nbrs)
        s = set(nbrs)
        for w in s:
            nw = adj[w]
            dw = len(nw)
            if (dw < du or dw == du and w < u) and not s.isdisjoint(nw):
                return False
    return True


def _colorings(sg: SimpleGraph, order: list[int]) -> Iterator[dict[int, int]]:
    """Every proper 3-coloring, by depth-first search over ``order`` with
    colors 0, 1, 2 in turn; the stack is ``choice``, the next color to
    try at each depth, so no input size reaches the recursion limit."""
    adj, k = sg.adj, len(order)
    coloring: dict[int, int] = {}
    choice = [0] * k
    i = 0
    while i >= 0:
        if i == k:
            yield dict(coloring)
        else:
            used = set(map(coloring.get, adj[order[i]]))
            c = choice[i]
            while c in used:
                c += 1
            if c < 3:
                coloring[order[i]] = c
                choice[i] = c + 1
                i += 1
                continue
            choice[i] = 0
        # back up one depth and go on with its next color
        i -= 1
        if i >= 0:
            del coloring[order[i]]


def brute_force_3color(sg: SimpleGraph, cap: int = 30) -> dict[int, int] | None:
    """The first coloring most-constrained-first; None if uncolorable."""
    _check_cap(len(sg), cap)
    order = sorted(sg.adj, key=lambda v: -len(sg.adj[v]))
    return next(_colorings(sg, order), None)


def enumerate_3colorings(sg: SimpleGraph) -> Iterator[dict[int, int]]:
    """All proper 3-colorings, ids searched in ascending order (small
    instances only)."""
    _check_cap(len(sg), ENUMERATE_CAP)
    return _colorings(sg, sorted(sg.adj))


def all_paths_upto(sg: SimpleGraph, s: int, t: int, max_len: int,
                   excluded=frozenset()) -> list[list[int]]:
    """Simple paths s..t of length <= max_len avoiding excluded vertices."""
    if s in excluded or t in excluded:
        return []
    out: list[list[int]] = []
    path = [s]

    def rec(u: int) -> None:
        if u == t and len(path) > 1:
            out.append(list(path))
            return
        if len(path) > max_len:
            return
        for w in sorted(sg.adj[u]):
            if w in excluded or w in path:
                continue
            if w != t and len(path) == max_len:
                continue
            path.append(w)
            rec(w)
            path.pop()

    rec(s)
    return out


# ----------------------------------------------------------------------
# faces

def face_orbits(g: PlaneGraph) -> list[list[int]]:
    """Every sigma orbit (as dart lists), each alive dart in exactly one."""
    seen = [False] * len(g.d_origin)
    out = []
    for d in range(len(g.d_origin)):
        if g.d_origin[d] >= 0 and not seen[d]:
            orbit = g.trace_face(d)
            for e in orbit:
                seen[e] = True
            out.append(orbit)
    return out


def facial_cycles(g: PlaneGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Orbits that are simple cycles, as (vertex tuple, dart tuple)."""
    out = []
    for orbit in face_orbits(g):
        verts = tuple(g.d_origin[d] for d in orbit)
        if len(verts) >= 3 and len(set(verts)) == len(verts):
            out.append((verts, tuple(orbit)))
    return out


def _canon_cycle(verts: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    k = len(verts)
    for seq in (verts, (verts[0],) + tuple(reversed(verts[1:]))):
        for r in range(k):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


# ----------------------------------------------------------------------
# literal safety / security

def _small(g: PlaneGraph, v: int) -> bool:
    return g.v_deg[v] <= DEGREE_CAP


def _adm(g: PlaneGraph, v: int, C) -> bool:
    return _small(g, v) and v not in C


def _path_edges_in_cycle(path: list[int], verts: tuple[int, ...]) -> bool:
    k = len(verts)
    cyc_edges = set()
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        cyc_edges.add((a, b))
        cyc_edges.add((b, a))
    return all((path[i], path[i + 1]) in cyc_edges for i in range(len(path) - 1))


def is_safe_slow(g: PlaneGraph, m: Multigram,
                 sg: SimpleGraph | None = None,
                 cycles=None) -> bool:
    """Safety by unrestricted path enumeration (the definition, verbatim)."""
    if sg is None:
        sg = SimpleGraph.from_plane_graph(g)
    kind, verts = m.kind, m.vertices
    if kind in (MONOGRAM, OCTAGRAM):
        return True
    if kind in (TETRAGRAM, HEXAGRAM):
        v1, v3 = verts[0], verts[2]
        for path in all_paths_upto(sg, v1, v3, 3):
            if not _path_edges_in_cycle(path, verts):
                return False
        return True
    if kind == DECAGRAM:
        x1, x3 = m.aux[0], m.aux[2]
        if x1 == x3 or x3 in sg.adj[x1]:
            return False
        return not any(len(p) == 3 for p in all_paths_upto(sg, x1, x3, 2))
    if kind == PENTAGRAM:
        v1, v2, v3, v4, v5 = verts
        x1, x2, x3, x4 = m.aux
        if len({x1, x2, x3, x4}) != 4:
            return False
        for i in range(4):
            for j in range(i + 1, 4):
                if m.aux[j] in sg.adj[m.aux[i]]:
                    return False
        excluded = frozenset((v1, v2, v3, v4))
        if all_paths_upto(sg, x2, v5, 3, excluded):
            return False
        if cycles is None:
            cycles = facial_cycles(g)
        canon = {_canon_cycle(vs) for vs, _ in cycles}
        for path in all_paths_upto(sg, x3, x4, 3, excluded):
            if len(path) != 3:
                return False
            y = path[1]
            if _canon_cycle((x3, v3, v4, x4, y)) not in canon:
                return False
        return True
    raise ValueError(kind)


def is_secure_slow(g: PlaneGraph, m: Multigram,
                   C: AbstractSet[int] = NO_CYCLE,
                   sg: SimpleGraph | None = None,
                   cycles=None) -> bool:
    """Security clauses evaluated literally, no bounded-degree shortcuts."""
    if sg is None:
        sg = SimpleGraph.from_plane_graph(g)
    if cycles is None:
        cycles = facial_cycles(g)
    deg = {v: len(sg.adj[v]) for v in sg.adj}
    kind, verts = m.kind, m.vertices

    if kind == MONOGRAM:
        return deg[verts[0]] <= 2 and verts[0] not in C
    if kind == OCTAGRAM:
        return (all(deg[v] == 3 for v in verts)
                and all(_adm(g, v, C) for v in verts))
    if kind == TETRAGRAM:
        v1, v2, v3, v4 = verts
        if deg[v1] != 3 or not _adm(g, v1, C):
            return False
        (x,) = set(sg.adj[v1]) - {v2, v4}
        if not _adm(g, x, C):
            return False
        if not _adm(g, v3, C):
            four_faces = [set(vs) for vs, _ in cycles if len(vs) == 4]
            for w in sg.adj[x]:
                if _adm(g, w, C):
                    continue
                ok = any({v1, x, w, v2} == f or {v1, x, w, v4} == f
                         for f in four_faces)
                if not ok:
                    return False
        return is_safe_slow(g, m, sg, cycles)
    if kind == DECAGRAM:
        if not all(deg[v] == 3 for v in verts):
            return False
        if not all(_adm(g, v, C) for v in verts):
            return False
        if not (_adm(g, m.aux[0], C) and _adm(g, m.aux[2], C)):
            return False
        return is_safe_slow(g, m, sg, cycles)
    if kind == PENTAGRAM:
        if not all(deg[v] == 3 for v in verts[:4]):
            return False
        if not all(_adm(g, v, C) for v in verts):
            return False
        if not all(_adm(g, x, C) for x in m.aux):
            return False
        v5, x2, x3, x4 = verts[4], m.aux[1], m.aux[2], m.aux[3]

        def clean(v: int) -> bool:
            return all(_adm(g, w, C) for w in sg.adj[v])

        if not (clean(v5) or clean(x2)):
            return False
        if not (clean(x3) or clean(x4)):
            return False
        return is_safe_slow(g, m, sg, cycles)
    if kind == HEXAGRAM:
        v1, v2, v3, v6 = verts[0], verts[1], verts[2], verts[5]
        if deg[v1] != 3:
            return False
        (x,) = set(sg.adj[v1]) - {v2, v6}
        for w in (v1, v3, v6, x):
            if not _adm(g, w, C):
                return False
        return is_safe_slow(g, m, sg, cycles)
    raise ValueError(kind)


def multigram_shapes_slow(g: PlaneGraph, sg: SimpleGraph | None = None,
                          cycles=None) -> list[Multigram]:
    """Every multigram listing whose degrees fit its kind, secure or not.

    Enumerates every vertex of degree <= 2 and every facial cycle of
    length 4/5/6 in all rotations and both orientations, with pivots of
    any degree.
    """
    _check_cap(g.n_alive, SLOW_CAP)
    if sg is None:
        sg = SimpleGraph.from_plane_graph(g)
    if cycles is None:
        cycles = facial_cycles(g)
    deg = {v: len(sg.adj[v]) for v in sg.adj}
    out = [Multigram(MONOGRAM, (v,)) for v in sorted(sg.adj) if deg[v] <= 2]
    for verts, darts in cycles:
        k = len(verts)
        if k not in (4, 5, 6):
            continue
        listings = []
        for r in range(k):
            rot_v = verts[r:] + verts[:r]
            rot_d = darts[r:] + darts[:r]
            listings.append((rot_v, rot_d))
            rev_v = (rot_v[0],) + tuple(reversed(rot_v[1:]))
            rev_d = (rot_d[0],) + tuple(reversed(rot_d[1:]))
            listings.append((rev_v, rev_d))
        for lv, ld in listings:
            if k == 4:
                kinds = [TETRAGRAM]
                if all(deg[w] == 3 for w in lv):
                    kinds.append(OCTAGRAM)
            elif k == 5:
                kinds = []
                if all(deg[w] == 3 for w in lv[:4]):
                    kinds.append(PENTAGRAM)
                    if deg[lv[4]] == 3:
                        kinds.append(DECAGRAM)
            else:
                kinds = [HEXAGRAM]
            for kind in kinds:
                aux: tuple[int, ...] = ()
                if kind in (TETRAGRAM, HEXAGRAM):
                    if deg[lv[0]] == 3:
                        aux = tuple(set(sg.adj[lv[0]]) - {lv[1], lv[-1]})
                elif kind in (PENTAGRAM, DECAGRAM):
                    xs = []
                    for i in range(4):
                        prv = lv[i - 1] if i else lv[-1]
                        extra = set(sg.adj[lv[i]]) - {prv, lv[i + 1]}
                        xs.append(extra.pop())
                    aux = tuple(xs)
                out.append(Multigram(kind, lv, aux, ld))
    return out


def all_secure_multigrams_slow(g: PlaneGraph,
                               C: AbstractSet[int] = NO_CYCLE) -> list[Multigram]:
    """All (C-)secure multigrams, from the definitions: the secure
    listings of multigram_shapes_slow, first one per kind and vertex
    tuple."""
    _check_cap(g.n_alive, SLOW_CAP)
    sg = SimpleGraph.from_plane_graph(g)
    cycles = facial_cycles(g)
    out: list[Multigram] = []
    seen: set[tuple] = set()
    for m in multigram_shapes_slow(g, sg, cycles):
        key = (m.kind, m.vertices)
        if key not in seen and is_secure_slow(g, m, C, sg, cycles):
            seen.add(key)
            out.append(m)
    return out

