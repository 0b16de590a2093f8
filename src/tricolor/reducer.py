"""Applying multigram reductions and pulling 3-colorings back through them.

Each reduction shrinks the graph by a constant amount (at most 126 edge
deletions, 116 additions, and at least one vertex removed) and records
enough to recolor the original: neighbor snapshots of deleted vertices,
identification pairs, and added edges.  Coloring extension assigns each
absorbed vertex its survivor's color and then colors the deleted
vertices; a greedy pass or the pentagram proof order almost always
works, with a bounded exhaustive search (<= 3^5 assignments) as the
backstop.  Extension can only fail on a corrupted record, which raises.

``event_endpoints`` names, before a reduction, every vertex the
reduction will touch; the solver re-queues pivots from that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .embedding import DEGREE_CAP, PlaneGraph
from .multigram import (
    DECAGRAM, HEXAGRAM, MONOGRAM, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    Multigram, _third_dart,
)


class ExtensionFailure(Exception):
    pass


@dataclass(frozen=True)
class ReductionRecord:
    kind: str
    vertices: tuple[int, ...]
    aux: tuple[int, ...]
    # (vertex, its neighbors at deletion time), in coloring order
    removed: tuple[tuple[int, tuple[int, ...]], ...]
    # (survivor, absorbed), in application order
    identifications: tuple[tuple[int, int], ...]
    added_edges: tuple[tuple[int, int], ...]
    edges_deleted: int
    edges_added: int

    @property
    def vertices_removed(self) -> int:
        return len(self.removed) + len(self.identifications)


def _next_surviving(g: PlaneGraph, d: int, doomed: set[int]) -> int | None:
    """First dart after d in its rotation that will survive, else None."""
    e = g.d_next[d]
    while e != d and e in doomed:
        e = g.d_next[e]
    return None if e == d else e


def _pendant_darts(g: PlaneGraph, verts: tuple[int, ...], upto: int) -> list[int]:
    out = []
    k = len(verts)
    for i in range(upto):
        prv = verts[i - 1] if i else verts[k - 1]
        out.append(_third_dart(g, verts[i], prv, verts[i + 1]))
    return out


def _identified_ends(g: PlaneGraph, m: Multigram) -> tuple[int, int]:
    """Indices (survivor, absorbed) into m.vertices for a tetragram or
    hexagram, which identifies v1 and v3 across their face.  The absorbed
    side must be small; only a tetragram's v3 can be big."""
    return (2, 0) if g.v_deg[m.vertices[2]] > DEGREE_CAP else (0, 2)


def event_endpoints(g: PlaneGraph, m: Multigram) -> set[int]:
    """Every vertex whose degree, rotation, ``v_dart`` or dart heads the
    reduction of m will change: the endpoints of every edge it deletes,
    moves or adds, computed before it runs."""
    verts = m.vertices
    kind = m.kind
    out = set(verts)
    if kind == MONOGRAM:
        out.update(g.neighbors(verts[0]))
    elif kind in (TETRAGRAM, HEXAGRAM):
        out.update(g.neighbors(verts[_identified_ends(g, m)[1]]))
    elif kind in (OCTAGRAM, DECAGRAM):
        for v in verts:
            out.update(g.neighbors(v))
    elif kind == PENTAGRAM:
        for v in verts:
            out.update(g.neighbors(v))
        out.update(g.neighbors(m.aux[3]))
    return out


def reduce(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    """Apply the per-kind reduction of m, mutating g.

    m must be (C-)secure; the reduction does not re-check it.
    """
    kind = m.kind
    if kind == MONOGRAM:
        return _reduce_monogram(g, m)
    if kind in (TETRAGRAM, HEXAGRAM):
        return _reduce_identifying(g, m)
    if kind == OCTAGRAM:
        return _reduce_octagram(g, m)
    if kind == DECAGRAM:
        return _reduce_decagram(g, m)
    if kind == PENTAGRAM:
        return _reduce_pentagram(g, m)
    raise ValueError(kind)


def _reduce_monogram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    v = m.vertices[0]
    nbrs = tuple(g.neighbors(v))
    while g.v_deg[v]:
        g.remove_edge(g.v_dart[v])
    g.remove_isolated_vertex(v)
    return ReductionRecord(m.kind, m.vertices, m.aux, ((v, nbrs),),
                           (), (), len(nbrs), 0)


def _reduce_identifying(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    i, j = _identified_ends(g, m)
    a, b = m.vertices[i], m.vertices[j]
    res = g.identify_across_face(a, b, m.darts[i], m.darts[j])
    return ReductionRecord(
        m.kind, m.vertices, m.aux, (), ((a, b),), (),
        len(res.moved) + len(res.collapsed), len(res.moved))


def _reduce_octagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    removed = tuple((v, tuple(g.neighbors(v))) for v in verts)
    for d in m.darts:
        g.remove_edge(d)
    for v in verts:
        g.remove_edge(g.v_dart[v])
        g.remove_isolated_vertex(v)
    return ReductionRecord(m.kind, verts, m.aux, removed, (), (), 8, 0)


def _reduce_decagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    x1, x3 = m.aux[0], m.aux[2]
    pend = _pendant_darts(g, verts, 4)
    p5 = _third_dart(g, verts[4], verts[3], verts[0])
    doomed: set[int] = set()
    for d in (*m.darts, *pend, p5):
        doomed.add(d)
        doomed.add(g.d_twin[d])
    r1 = _next_surviving(g, g.d_twin[pend[0]], doomed)
    r3 = _next_surviving(g, g.d_twin[pend[2]], doomed)
    removed = tuple((v, tuple(g.neighbors(v))) for v in verts)
    for d in (*m.darts, *pend, p5):
        g.remove_edge(d)
    for v in verts:
        g.remove_isolated_vertex(v)
    g.add_edge_at(x1, r1, x3, r3)
    return ReductionRecord(m.kind, verts, m.aux, removed, (),
                           ((x1, x3),), 10, 1)


def _reduce_pentagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    v5 = verts[4]
    x1, x2, x3, x4 = m.aux
    pend = _pendant_darts(g, verts, 4)
    doomed: set[int] = set()
    for d in (*m.darts, *pend):
        doomed.add(d)
        doomed.add(g.d_twin[d])
    r_x2 = _next_surviving(g, g.d_twin[pend[1]], doomed)
    r_v5 = _next_surviving(g, m.darts[4], doomed)
    r_x3 = _next_surviving(g, g.d_twin[pend[2]], doomed)
    r_x4 = _next_surviving(g, g.d_twin[pend[3]], doomed)
    removed = tuple((v, tuple(g.neighbors(v))) for v in verts[:4])
    for d in (*m.darts, *pend):
        g.remove_edge(d)
    for v in verts[:4]:
        g.remove_isolated_vertex(v)
    res_a = g.identify_across_face(x2, v5, r_x2, r_v5)
    res_b = g.identify_across_face(x3, x4, r_x3, r_x4)
    deleted = 9
    added = 0
    for res in (res_a, res_b):
        deleted += len(res.moved) + len(res.collapsed)
        added += len(res.moved)
    return ReductionRecord(m.kind, verts, m.aux, removed,
                           ((x2, v5), (x3, x4)), (), deleted, added)


# ----------------------------------------------------------------------
# coloring extension

def _color_of(v: int, trial: dict[int, int], coloring: dict[int, int]) -> int | None:
    c = trial.get(v)
    return coloring.get(v) if c is None else c


def _greedy_assign(order, nbrs, coloring) -> dict[int, int] | None:
    trial: dict[int, int] = {}
    for v in order:
        forbidden = set()
        for w in nbrs[v]:
            c = _color_of(w, trial, coloring)
            if c is not None:
                forbidden.add(c)
        for c in (0, 1, 2):
            if c not in forbidden:
                trial[v] = c
                break
        else:
            return None
    return trial


def _valid_assignment(trial, nbrs, coloring) -> bool:
    for v, c in trial.items():
        for w in nbrs[v]:
            if _color_of(w, trial, coloring) == c:
                return False
    return True


def _pentagram_proof_order(record: ReductionRecord,
                           coloring: dict[int, int]) -> dict[int, int] | None:
    """The constructive case split on the colors of x1, x2=v5, x3=x4."""
    order = [v for v, _ in record.removed]        # v1, v2, v3, v4
    nbrs = dict(record.removed)
    x1 = record.aux[0]
    c1 = coloring.get(x1)
    c2 = coloring.get(record.aux[1])
    c3 = coloring.get(record.aux[2])
    if None in (c1, c2, c3):
        return None
    if c1 == c2:
        trial = _greedy_assign(list(reversed(order)), nbrs, coloring)
    elif c2 == c3:
        trial = _greedy_assign(order, nbrs, coloring)
    else:
        v1, v2, v3, v4 = order
        trial = {v2: c1, v3: c2,
                 v1: min({0, 1, 2} - {c1, c2}),
                 v4: min({0, 1, 2} - {c2, c3})}
    if trial is not None and _valid_assignment(trial, nbrs, coloring):
        return trial
    return None


def extend(record: ReductionRecord, coloring: dict[int, int]) -> dict[int, int]:
    """Pull a proper coloring of the reduced graph back one reduction.

    Mutates and returns ``coloring``.  Absorbed vertices copy their
    survivor; deleted vertices are recolored against their stored
    neighbor lists.
    """
    for survivor, absorbed in record.identifications:
        if survivor not in coloring:
            raise ExtensionFailure(f"survivor {survivor} uncolored")
        coloring[absorbed] = coloring[survivor]
    if not record.removed:
        return coloring
    if record.kind == PENTAGRAM:
        trial = _pentagram_proof_order(record, coloring)
        if trial is not None:
            coloring.update(trial)
            return coloring
    order = [v for v, _ in record.removed]
    nbrs = dict(record.removed)
    trial = _greedy_assign(order, nbrs, coloring)
    if trial is None:
        for combo in product((0, 1, 2), repeat=len(order)):
            cand = dict(zip(order, combo))
            if _valid_assignment(cand, nbrs, coloring):
                trial = cand
                break
        else:
            raise ExtensionFailure(record)
    coloring.update(trial)
    return coloring


def unwind(records: list[ReductionRecord],
           base: dict[int, int]) -> dict[int, int]:
    """Fold extend over the record stack, newest first."""
    coloring = dict(base)
    for record in reversed(records):
        extend(record, coloring)
    return coloring
