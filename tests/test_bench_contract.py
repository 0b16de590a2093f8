"""The benchmark's tracer still finds and sees the library's hot layers.

``bench/spans.py`` wraps library functions by attribute name, so a
rename in ``src/`` would leave a layer empty or break ``--trace 1``.
This colors the cube through the benchmark's own pipeline with the
tracer installed; installing fails if any wrapped name is gone.
``solver.close_set`` is wrapped too but lies off the solve path, so its
layer records no calls.  A solver that inlined a wrapped call would
leave its layer short, so the test counts ``event_endpoints`` against
``reduce``.  A monogram skips the search, ``reduce`` and
``event_endpoints`` (``push_monogram`` does its work), so those layers
count only the cycle kinds; the cube, all of degree 3, starts with one.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import pipeline  # noqa: E402
import spans  # noqa: E402

from tricolor.graphio import serialize  # noqa: E402
from tricolor.instances import cube_graph  # noqa: E402
from tricolor.oracle import SimpleGraph  # noqa: E402


def test_tracer_records_hot_layers():
    g = cube_graph()
    reference = SimpleGraph.from_plane_graph(g)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out, _, _, _ = tracer.pipeline(pipeline.color, serialize(g))
    finally:
        tracer.uninstall()
    tracer.fold(keep=False)
    assert pipeline.is_correct(reference, out)
    calls = {layer: total.calls for layer, total in tracer.totals.items()}
    assert calls.get("multigram.find", 0) > 0
    # the solver reads the touched vertices of each reduction through the
    # wrapped name, once per reduction
    assert (calls.get("reducer.event_endpoints", 0)
            == calls.get("reducer.reduce", 0) > 0), calls
