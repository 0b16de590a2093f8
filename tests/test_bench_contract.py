"""The benchmark's tracer still finds and sees the library's hot layers.

``bench/spans.py`` wraps library functions by attribute name, so a
rename in ``src/`` would leave a layer empty or break ``--trace 1``.
This colors the cube through the benchmark's own pipeline with the
tracer installed; installing fails if any wrapped name is gone.
``solver.close_set`` is wrapped too but lies off the solve path, so its
layer records no calls.
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
    for layer in ("reducer.event_endpoints", "multigram.find",
                  "reducer.reduce"):
        assert tracer.totals[layer].calls > 0, layer
