"""Applying multigram reductions and pulling 3-colorings back through them.

Each reduction shrinks the graph by a constant amount (at most 126 edge
deletions, 116 additions, and at least one vertex removed) and records
enough to recolor the original: the neighbors each deleted vertex had
when it was deleted, and each absorbed vertex with its survivor and its
neighbors when it was identified.  The deleted vertices are a prefix of
the multigram's vertices in coloring order (all of them, or a
pentagram's first four), so the record does not list them again.
Coloring extension gives a monogram's vertex its first free color; in
any other record it assigns each absorbed vertex its survivor's color
and then colors the deleted ones by one bounded depth-first search
(<= 3^5 assignments).  Extension can only fail on a corrupted record,
which raises.

A reduction's record is also the one statement of what it changed:
``event_endpoints`` reads off it, after the reduction, every vertex the
reduction touched, as one tuple that may repeat a vertex, and the solver
re-queues pivots from it.

Records are built with ``tuple.__new__`` rather than the class call,
which runs a Python-level ``__new__``; a reduction pays only for the
tuple it keeps.  The class, its fields, equality and repr are the same
either way.

A run keeps its reductions on one record stack, a flat list read from
its end, newest record first: ``unwind`` colors through it and
``decode`` rebuilds the records.  ``push_monogram`` is its one flat
writer: a monogram, one vertex of degree <= 2 off C, is never built as
a record, and it pushes the vertex, its neighbors and then its degree d
as a plain int, d + 2 slots that share their ids with the graph.  Any
record, a monogram's too, goes on the stack as itself with
``stack.append``, in one slot, so the top slot tells the two forms
apart: an int ends a flat monogram, anything else is a record.  A stack
holds only ints and records, so it pickles and reads in any process.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple

from .embedding import PlaneGraph
from .multigram import (
    DECAGRAM, HEXAGRAM, MONOGRAM, NO_CYCLE, OCTAGRAM, PENTAGRAM, TETRAGRAM,
    Multigram, admissible, pendant_darts,
)


_new = tuple.__new__


class ExtensionFailure(Exception):
    pass


class ReductionRecord(NamedTuple):
    kind: str
    vertices: tuple[int, ...]
    # removed[i]: the neighbors vertices[i] had when it was deleted; the
    # deleted vertices are vertices[:len(removed)], in coloring order
    removed: tuple[tuple[int, ...], ...]
    # (survivor, absorbed, absorbed's neighbors at identification time),
    # in application order
    identifications: tuple[tuple[int, int, tuple[int, ...]], ...]
    edges_deleted: int
    edges_added: int


def event_endpoints(g: PlaneGraph, record: ReductionRecord) -> tuple[int, ...]:
    """Every vertex whose degree, rotation, ``v_dart`` or dart heads the
    reduction that wrote ``record`` changed, read off the record as one
    tuple in which a vertex may repeat: its multigram's vertices, each
    deleted vertex's neighbors, and each identification's survivor,
    absorbed vertex and moved neighbors.  g, the graph the record came
    from, is not read; it stays the first argument so that a tracer can
    read its ``work`` around the call, as ``bench/spans.py`` does."""
    out = record.vertices
    for nbrs in record.removed:
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


def reduce(g: PlaneGraph, m: Multigram,
           C: AbstractSet[int] = NO_CYCLE) -> ReductionRecord:
    """Apply the per-kind reduction of m, mutating g.

    Each kind states a plan, read off g before it changes: the vertices
    it deletes (``gone``, a prefix of m's vertices), the decagram's
    added edge x1-x3 (``chord``) and the (survivor, absorbed)
    identifications across a face (``joins``).  One path applies it and
    counts the edges surgery deleted and added.  ``gone`` goes
    last-listed first, so each deleted vertex keeps every neighbor
    ``unwind`` colors before it.  m must be (C-)secure; the reduction
    does not re-check it.  A tetragram or hexagram absorbs v3 into v1 if
    v3 is admissible (small, off C), else v1 into v3; security makes
    every other deleted or absorbed vertex admissible, so none is on C.
    """
    kind = m.kind
    verts = m.vertices
    chord = None
    joins = ()
    if kind == MONOGRAM or kind == OCTAGRAM:
        gone = verts
    elif kind in (TETRAGRAM, HEXAGRAM):
        gone = ()
        i, j = (0, 2) if admissible(g, verts[2], C) else (2, 0)
        joins = ((verts[i], verts[j], m.darts[i], m.darts[j]),)
    elif kind == DECAGRAM:
        gone = verts
        pend = pendant_darts(g, m.darts, 3)   # x1 and x3 only
        chord = (m.aux[0], _next_surviving(g, g.d_twin[pend[0]], gone),
                 m.aux[2], _next_surviving(g, g.d_twin[pend[2]], gone))
    elif kind == PENTAGRAM:
        # x2 absorbs v5 and x3 absorbs x4 once v1..v4 are gone
        gone = verts[:4]
        _, x2, x3, x4 = m.aux
        pend = pendant_darts(g, m.darts, 4)
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
        removed = (nbrs,) + removed
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
# the record stack

def push_monogram(g: PlaneGraph, v: int, stack: list) -> tuple[int, ...]:
    """Delete v, a vertex of degree <= 2 off C, and push its monogram's
    record; return the record's body, ``(v, *neighbors)``.

    Such a v is a secure monogram with no search, so this does to g
    what ``find_secure_with_pivot`` and ``reduce`` do, ``work``
    included, without building the multigram or the record; the stack
    gets the record's flat form, which ``decode`` and ``unwind`` read as
    they read the record appended as itself."""
    body = (v, *g.remove_vertex(v))
    stack += body
    stack.append(len(body) - 1)
    return body


def decode(stack: list) -> list[ReductionRecord]:
    """The records pushed onto stack, oldest first."""
    records = []
    top = len(stack)
    while top:
        top -= 1
        record = stack[top]
        if type(record) is int:     # a monogram of degree d
            d = record
            top -= d + 1
            record = _new(ReductionRecord, (
                MONOGRAM, (stack[top],), (tuple(stack[top + 1:top + 1 + d]),),
                (), d, 0))
        records.append(record)
    records.reverse()
    return records


# ----------------------------------------------------------------------
# coloring extension

# used colors as a mask, bit c for color c -> the first color left free
_FIRST_FREE = (0, 1, 0, 2, 0, 1, 0, None)


def _extend_through(stack: list, coloring: dict[int, int]) -> None:
    """Pull ``coloring`` back through every record of the stack, newest
    first, mutating it.

    A monogram's vertex takes its first color not on a stored neighbor.
    In any other record, absorbed vertices copy their survivor and the
    deleted ones go to ``_backtrack``.  Either way the result is the
    lexicographically first proper extension.  Colors are 0, 1, 2, and
    an uncolored neighbor blocks no color.
    """
    get = coloring.get
    top = len(stack)
    while top:
        top -= 1
        record = stack[top]
        if type(record) is int:     # a monogram of degree d
            d = record
            used = 0
            for u in stack[top - d:top]:
                used |= 1 << get(u, 3)
            top -= d + 1
            c = _FIRST_FREE[used & 7]
            if c is None:
                raise ExtensionFailure(
                    f"no color left for vertex {stack[top]}")
            coloring[stack[top]] = c
        else:
            for survivor, absorbed, _ in record.identifications:
                if survivor not in coloring:
                    raise ExtensionFailure(f"survivor {survivor} uncolored")
                coloring[absorbed] = coloring[survivor]
            if record.removed:
                _backtrack(record.vertices, record.removed, coloring)


def _backtrack(verts, removed, coloring: dict[int, int]) -> None:
    """Color verts[i] against the colors of removed[i], in order, by a
    depth-first search over colors 0, 1, 2 in turn, so the result is the
    lexicographically first proper extension.  At most five vertices are
    deleted, so at most 3^5 assignments are tried; running out of them
    means a corrupted record, raises ``ExtensionFailure`` and leaves
    verts uncolored."""
    k = len(removed)
    choice = [0] * k
    i = 0
    while i < k:
        used = set(map(coloring.get, removed[i]))
        c = choice[i]
        while c in used:
            c += 1
        if c < 3:
            coloring[verts[i]] = c
            choice[i] = c + 1
            i += 1
        else:
            # no color left for verts[i]: uncolor the previous deleted
            # vertex and go on with its next color
            choice[i] = 0
            i -= 1
            if i < 0:
                raise ExtensionFailure(f"no coloring of vertices {verts}")
            del coloring[verts[i]]


def unwind(stack: list, base: dict[int, int]) -> dict[int, int]:
    """Extend a copy of base through the record stack, newest first."""
    coloring = dict(base)
    _extend_through(stack, coloring)
    return coloring
