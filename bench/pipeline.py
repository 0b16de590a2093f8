"""The timed path: graph text to coloring text.

It makes the same calls as ``tricolor color --validate``, each through
its module's attribute, so that the tracer in ``spans.py`` can wrap
them.  Correctness is checked by the caller after the clock stops.
"""

from __future__ import annotations

from time import perf_counter_ns

from tricolor import embedding, graphio, oracle, solver


def color(text: str):
    """Color one graph text.

    Returns ``(coloring text, SolverStats, total ns, solve ns)``; the
    solve interval covers ``Solver.run`` (find, reduce, re-insert,
    unwind) and nothing else.
    """
    t0 = perf_counter_ns()
    g = embedding.build(graphio.parse_rotations(text))
    embedding.validate(g)
    if not oracle.is_triangle_free(oracle.SimpleGraph.from_plane_graph(g)):
        raise solver.TriangleFound("input graph has a triangle")
    engine = solver.Solver(g)
    t1 = perf_counter_ns()
    coloring = engine.run()
    t2 = perf_counter_ns()
    out = graphio.format_coloring(coloring)
    t3 = perf_counter_ns()
    return out, engine.stats, t3 - t0, t2 - t1


def is_correct(reference: oracle.SimpleGraph, out: str) -> bool:
    """The coloring text colors every vertex of the input properly."""
    coloring = graphio.parse_coloring(out)
    return len(coloring) == len(reference) and oracle.is_proper(reference, coloring)
