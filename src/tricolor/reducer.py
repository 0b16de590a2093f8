"""Applying multigram reductions and pulling 3-colorings back through them.

Each reduction shrinks the graph by a constant amount (at most 126 edge
deletions, 116 additions, and at least one vertex removed) and records
enough to recolor the original: neighbor snapshots of deleted vertices
and of absorbed ones, with their survivors.  Coloring extension assigns
each absorbed vertex its survivor's color and then colors the deleted
vertices with one bounded depth-first search (<= 3^5 assignments).
Extension can only fail on a corrupted record, which raises.

A reduction's record is also the one statement of what it changed:
``event_endpoints`` reads off it, after the reduction, every vertex the
reduction touched, and the solver re-queues pivots from that set.
"""

from __future__ import annotations

from typing import NamedTuple

from .embedding import DEGREE_CAP, PlaneGraph
from .multigram import (
    DECAGRAM, HEXAGRAM, MONOGRAM, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    Multigram, pendant_darts,
)


class ExtensionFailure(Exception):
    pass


class ReductionRecord(NamedTuple):
    kind: str
    vertices: tuple[int, ...]
    # (vertex, its neighbors at deletion time), in coloring order
    removed: tuple[tuple[int, tuple[int, ...]], ...]
    # (survivor, absorbed, absorbed's neighbors at identification time),
    # in application order
    identifications: tuple[tuple[int, int, tuple[int, ...]], ...]
    edges_deleted: int
    edges_added: int

    @property
    def vertices_removed(self) -> int:
        return len(self.removed) + len(self.identifications)


def event_endpoints(g: PlaneGraph, record: ReductionRecord) -> set[int]:
    """Every vertex whose degree, rotation, ``v_dart`` or dart heads the
    reduction that wrote ``record`` changed, read off the record: its
    multigram's vertices, each deleted vertex's neighbors, and each
    identification's survivor, absorbed vertex and moved neighbors.  g,
    the graph the record came from, is not read; it stays the first
    argument so that a tracer can read its ``work`` around the call, as
    ``bench/spans.py`` does."""
    out = set(record.vertices)
    for _, nbrs in record.removed:
        out.update(nbrs)
    for survivor, absorbed, moved in record.identifications:
        out.add(survivor)
        out.add(absorbed)
        out.update(moved)
    return out


def _next_surviving(g: PlaneGraph, d: int, gone: tuple) -> int | None:
    """First dart after d in its rotation whose head is not in gone, or
    None; the edges at gone are the ones a reduction deletes."""
    e = g.d_next[d]
    while e != d and g.head(e) in gone:
        e = g.d_next[e]
    return None if e == d else e


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
    nbrs = tuple(g.remove_vertex(v))
    return ReductionRecord(m.kind, m.vertices, ((v, nbrs),), (),
                           len(nbrs), 0)


def _reduce_identifying(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    """Identify v1 and v3 of a tetragram or hexagram across their face.
    The absorbed side must be small; only a tetragram's v3 can be big,
    and then it survives."""
    i, j = (2, 0) if g.v_deg[m.vertices[2]] > DEGREE_CAP else (0, 2)
    a, b = m.vertices[i], m.vertices[j]
    res = g.identify_across_face(a, b, m.darts[i], m.darts[j])
    return ReductionRecord(
        m.kind, m.vertices, (), ((a, b, tuple(res.moved)),),
        len(res.moved) + len(res.collapsed), len(res.moved))


def _reduce_octagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    removed = tuple((v, tuple(g.neighbors(v))) for v in verts)
    for v in verts:
        g.remove_vertex(v)
    return ReductionRecord(m.kind, verts, removed, (), 8, 0)


def _reduce_decagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    x1, x3 = m.aux[0], m.aux[2]
    pend = pendant_darts(g, verts, 5)
    r1 = _next_surviving(g, g.d_twin[pend[0]], verts)
    r3 = _next_surviving(g, g.d_twin[pend[2]], verts)
    removed = tuple((v, tuple(g.neighbors(v))) for v in verts)
    for v in verts:
        g.remove_vertex(v)
    g.add_edge_at(x1, r1, x3, r3)
    return ReductionRecord(m.kind, verts, removed, (), 10, 1)


def _reduce_pentagram(g: PlaneGraph, m: Multigram) -> ReductionRecord:
    verts = m.vertices
    v5 = verts[4]
    x1, x2, x3, x4 = m.aux
    pend = pendant_darts(g, verts, 4)
    gone = verts[:4]
    r_x2 = _next_surviving(g, g.d_twin[pend[1]], gone)
    r_v5 = _next_surviving(g, m.darts[4], gone)
    r_x3 = _next_surviving(g, g.d_twin[pend[2]], gone)
    r_x4 = _next_surviving(g, g.d_twin[pend[3]], gone)
    removed = tuple((v, tuple(g.neighbors(v))) for v in gone)
    for v in gone:
        g.remove_vertex(v)
    res_a = g.identify_across_face(x2, v5, r_x2, r_v5)
    res_b = g.identify_across_face(x3, x4, r_x3, r_x4)
    deleted = 9
    added = 0
    for res in (res_a, res_b):
        deleted += len(res.moved) + len(res.collapsed)
        added += len(res.moved)
    return ReductionRecord(m.kind, verts, removed,
                           ((x2, v5, tuple(res_a.moved)),
                            (x3, x4, tuple(res_b.moved))), deleted, added)


# ----------------------------------------------------------------------
# coloring extension

def extend(record: ReductionRecord, coloring: dict[int, int]) -> dict[int, int]:
    """Pull a proper coloring of the reduced graph back one reduction.

    Mutates and returns ``coloring``.  Absorbed vertices copy their
    survivor; deleted vertices are colored against their stored neighbor
    lists by a depth-first search in record order, colors 0, 1, 2 in
    turn, so the result is the lexicographically first proper
    extension.  At most five vertices are deleted, so at most 3^5
    assignments are tried; running out of them means a corrupted record
    and raises ``ExtensionFailure``.
    """
    for survivor, absorbed, _ in record.identifications:
        if survivor not in coloring:
            raise ExtensionFailure(f"survivor {survivor} uncolored")
        coloring[absorbed] = coloring[survivor]
    removed = record.removed
    k = len(removed)
    choice = [0] * k
    i = 0
    while i < k:
        v, nbrs = removed[i]
        used = set(map(coloring.get, nbrs))
        c = choice[i]
        while c in used:
            c += 1
        if c < 3:
            coloring[v] = c
            choice[i] = c + 1
            i += 1
        else:
            # no color left for v: uncolor the previous deleted vertex
            # and go on with its next color
            choice[i] = 0
            i -= 1
            if i < 0:
                raise ExtensionFailure(record)
            del coloring[removed[i][0]]
    return coloring


def unwind(records: list[ReductionRecord],
           base: dict[int, int]) -> dict[int, int]:
    """Fold extend over the record stack, newest first."""
    coloring = dict(base)
    for record in reversed(records):
        extend(record, coloring)
    return coloring
