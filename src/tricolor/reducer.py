"""Applying multigram reductions and pulling 3-colorings back through them.

Each reduction shrinks the graph by a constant amount (at most 126 edge
deletions, 116 additions, and at least one vertex removed) and records
enough to recolor the original: each deleted vertex with its neighbors
when it was deleted, and each absorbed one with its survivor and its
neighbors when it was identified.  Coloring extension assigns each
absorbed vertex its survivor's color and then colors the deleted ones
with one bounded depth-first search (<= 3^5 assignments).  Extension
can only fail on a corrupted record, which raises.

A reduction's record is also the one statement of what it changed:
``event_endpoints`` reads off it, after the reduction, every vertex the
reduction touched, as one tuple that may repeat a vertex, and the solver
re-queues pivots from it.

Records are built with ``tuple.__new__`` rather than the class call,
which runs a Python-level ``__new__``; a reduction pays only for the
tuple it keeps.  The class, its fields, equality and repr are the same
either way.
"""

from __future__ import annotations

from typing import NamedTuple

from .embedding import DEGREE_CAP, PlaneGraph
from .multigram import (
    DECAGRAM, HEXAGRAM, MONOGRAM, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    Multigram, pendant_darts,
)


_new = tuple.__new__


class ExtensionFailure(Exception):
    pass


class ReductionRecord(NamedTuple):
    kind: str
    vertices: tuple[int, ...]
    # (vertex, its neighbors when it was deleted), in coloring order
    removed: tuple[tuple[int, tuple[int, ...]], ...]
    # (survivor, absorbed, absorbed's neighbors at identification time),
    # in application order
    identifications: tuple[tuple[int, int, tuple[int, ...]], ...]
    edges_deleted: int
    edges_added: int

    @property
    def vertices_removed(self) -> int:
        return len(self.removed) + len(self.identifications)


def event_endpoints(g: PlaneGraph, record: ReductionRecord) -> tuple[int, ...]:
    """Every vertex whose degree, rotation, ``v_dart`` or dart heads the
    reduction that wrote ``record`` changed, read off the record as one
    tuple in which a vertex may repeat: its multigram's vertices, each
    deleted vertex's neighbors, and each identification's survivor,
    absorbed vertex and moved neighbors.  g, the graph the record came
    from, is not read; it stays the first argument so that a tracer can
    read its ``work`` around the call, as ``bench/spans.py`` does."""
    out = record.vertices
    for _, nbrs in record.removed:
        out += nbrs
    for survivor, absorbed, moved in record.identifications:
        out += (survivor, absorbed, *moved)
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

    Each kind states a plan, read off g before it changes: the vertices
    it deletes (``gone``), the decagram's added edge x1-x3 (``chord``)
    and the (survivor, absorbed) identifications across a face
    (``joins``).  One path applies it and counts the edges surgery
    deleted and added.  ``gone`` goes last-listed first, so each deleted
    vertex keeps every neighbor ``extend`` colors before it.  m must be
    (C-)secure; the reduction does not re-check it.
    """
    kind = m.kind
    verts = m.vertices
    chord = None
    joins = ()
    if kind == MONOGRAM or kind == OCTAGRAM:
        gone = verts
    elif kind in (TETRAGRAM, HEXAGRAM):
        # the absorbed side must be small; only a tetragram's v3 can be
        # big, and then it survives
        gone = ()
        i, j = (2, 0) if g.v_deg[verts[2]] > DEGREE_CAP else (0, 2)
        joins = ((verts[i], verts[j], m.darts[i], m.darts[j]),)
    elif kind == DECAGRAM:
        gone = verts
        pend = pendant_darts(g, verts, 5)
        chord = (m.aux[0], _next_surviving(g, g.d_twin[pend[0]], gone),
                 m.aux[2], _next_surviving(g, g.d_twin[pend[2]], gone))
    elif kind == PENTAGRAM:
        # x2 absorbs v5 and x3 absorbs x4 once v1..v4 are gone
        gone = verts[:4]
        _, x2, x3, x4 = m.aux
        pend = pendant_darts(g, verts, 4)
        joins = ((x2, verts[4], _next_surviving(g, g.d_twin[pend[1]], gone),
                  _next_surviving(g, m.darts[4], gone)),
                 (x3, x4, _next_surviving(g, g.d_twin[pend[2]], gone),
                  _next_surviving(g, g.d_twin[pend[3]], gone)))
    else:
        raise ValueError(kind)

    removed = ()
    deleted = added = 0
    for v in reversed(gone):
        nbrs = tuple(g.remove_vertex(v))
        removed = ((v, nbrs),) + removed
        deleted += len(nbrs)
    if chord is not None:
        g.add_edge_at(*chord)
        added = 1
    identifications = ()
    for a, b, d_a, d_b in joins:
        moved, collapsed = g.identify_across_face(a, b, d_a, d_b)
        identifications += ((a, b, tuple(moved)),)
        deleted += len(moved) + len(collapsed)
        added += len(moved)
    return _new(ReductionRecord, (kind, verts, removed, identifications,
                                  deleted, added))


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
