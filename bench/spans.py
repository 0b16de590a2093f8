"""Span tracing from outside the library.

``Tracer.install`` replaces the public functions the timed path calls
(module attributes, the names ``tricolor.solver`` imported, and
``PlaneGraph`` methods) with wrappers that record one span per call:
layer, instance id, start, end, parent span, the graph's ``work``
counter delta, and a note on the result where one is useful
(close_set's returned size, "hit" when find returns a multigram, the
reduced kind).  ``uninstall`` puts the originals
back.  ``fold`` turns the spans of one coloring into per-layer totals;
the spans asked for stay in memory and ``write`` dumps them as TSV when
the run ends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from tricolor import embedding, graphio, oracle, solver

ROOT = "bench.pipeline"

_first = itemgetter(0)


def _kind(record) -> str:
    # the reducer absorbs the small side into v3 only when v3 is big
    if record.identifications and record.identifications[0][0] == record.vertices[2]:
        return record.kind + "_big"
    return record.kind


# (owner, attribute, layer, graph of the call's args, note on its result)
_TARGETS: list[tuple[Any, str, str, Callable | None, Callable | None]] = [
    (graphio, "parse_rotations", "graphio.parse_rotations", None, None),
    (embedding, "build", "embedding.build", None, None),
    (embedding, "validate", "embedding.validate", _first, None),
    (oracle.SimpleGraph, "from_plane_graph", "oracle.triangle_check", None, None),
    (oracle, "is_triangle_free", "oracle.triangle_check", None, None),
    (solver.Solver, "run", "solver.run", lambda args: args[0].graph, None),
    (graphio, "format_coloring", "graphio.format_coloring", None, None),
    (solver, "find_secure_with_pivot", "multigram.find", _first, lambda m: "hit"),
    (solver, "close_set", "solver.close_set", _first, len),
    (solver, "event_endpoints", "reducer.event_endpoints", _first, None),
    (solver, "reduce", "reducer.reduce", _first, _kind),
    (solver, "unwind", "reducer.unwind", None, None),
    (embedding.PlaneGraph, "edge_vicinity", "embedding.edge_vicinity", _first, None),
    *((embedding.PlaneGraph, name, "embedding.surgery", _first, None)
      for name in ("remove_edge", "add_edge_at", "identify_across_face",
                   "remove_isolated_vertex")),
]


@dataclass
class LayerTotal:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    self_work: int = 0
    notes: Counter = field(default_factory=Counter)


class Tracer:
    """Records spans while installed; ``fold`` after each traced coloring
    adds them to ``totals`` and clears the buffer, keeping the spans of
    the colorings asked for so that memory stays bounded."""

    def __init__(self) -> None:
        # span: (layer, instance, start ns, end ns, parent index, work delta
        # or None for calls that take no graph, note); the parent index
        # counts spans of the same instance, -1 for the root
        self.spans: list[tuple] = []
        self.kept: list[tuple] = []
        self.totals: dict[str, LayerTotal] = {}
        self.instance = -1
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []
        self._wrapped = [(owner, attr, self._wrap(layer, getattr(owner, attr),
                                                  graph_of, note))
                         for owner, attr, layer, graph_of, note in _TARGETS]
        self.pipeline = self._wrap(ROOT, _call, None, None)

    def _wrap(self, layer: str, fn: Callable, graph_of, note) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            g = graph_of(args) if graph_of is not None else None
            w0 = g.work if g is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, tracer.instance, t0, t1, parent,
                              g.work - w0 if g is not None else None,
                              note(result) if note is not None and
                              result is not None else None)
        return traced

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def fold(self, keep: bool) -> None:
        """Add the buffered spans to ``totals``: self time is a span's
        duration minus the time its child spans cover, and likewise for
        work.  Then clear the buffer, copying it to ``kept`` if asked."""
        spans = self.spans
        child_ns = [0] * len(spans)
        child_work = [0] * len(spans)
        for _, _, t0, t1, parent, work, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                child_work[parent] += work or 0
        totals = self.totals
        for i, (layer, _, t0, t1, _, work, note) in enumerate(spans):
            tot = totals.get(layer)
            if tot is None:
                tot = totals[layer] = LayerTotal()
            tot.calls += 1
            tot.total_ns += t1 - t0
            tot.self_ns += t1 - t0 - child_ns[i]
            if work is not None:    # calls that take no graph count none
                tot.self_work += work - child_work[i]
            if note is not None:
                tot.notes[note] += 1
        if keep:
            self.kept.extend(spans)
        spans.clear()

    def write(self, path: Path) -> None:
        """Write the kept spans as TSV; ``span`` numbers them per instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("layer\tinstance\tspan\tstart_ns\tend_ns\tparent\twork\tnote\n")
            instance, index = None, 0
            for layer, inst, *rest in self.kept:
                index = index + 1 if inst == instance else 0
                instance = inst
                f.write("\t".join(map(str, (layer, inst, index, *rest))) + "\n")


def _call(fn, *args):
    return fn(*args)
