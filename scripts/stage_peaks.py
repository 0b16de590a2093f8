#!/usr/bin/env python3
"""Print the traced memory peak of each stage of ``tricolor color``.

    python3 scripts/stage_peaks.py --seed N

Each set-up instance of the benchmark's grid, augmented and gadgets
workloads is serialized and then colored once through the calls
``tricolor color`` makes, in its order: parse (``parse_rotations``),
build, the triangle check, the solve and the format.  The line of an
instance gives, for each stage, the highest memory that ``tracemalloc``
saw allocated while the stage ran, in MB, and then, as ``peak_stage``,
the stage with the largest of the five.  Gadgets is the workload with
the most reductions kept on the stack as record objects.
Tracing starts just before the parse, so the input text is not counted;
what earlier stages left alive is.  The largest of the five is the
run's traced peak, so ``peak_stage`` is the one to shrink.
Run from the root of a checkout; the library is imported from its
``src/``.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stage_peaks(text: str) -> dict[str, float]:
    """The traced peak in MB of each stage of coloring ``text``."""
    from tricolor import embedding, graphio, oracle, solver

    peaks: dict[str, float] = {}

    def mark(stage: str) -> None:
        peaks[stage] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        rotations = graphio.parse_rotations(text)
        mark("parse")
        g = embedding.build(rotations)
        del rotations           # graphio.parse drops them when build returns
        mark("build")
        if not oracle.is_triangle_free(oracle.SimpleGraph.from_plane_graph(g)):
            raise solver.TriangleFound("input graph has a triangle")
        mark("triangle_check")
        engine = solver.Solver(g)   # kept, as the CLI keeps it for --stats
        coloring = engine.run()
        mark("solve")
        graphio.format_coloring(coloring)
        mark("format")
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from tricolor.graphio import serialize

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for name in ("grid", "augmented", "gadgets"):
        texts = [serialize(g) for g in workloads.WORKLOADS[name].graphs(args.seed)]
        for i, text in enumerate(texts):
            peaks = stage_peaks(text)
            print(f"{name} {i} peak_mb " + " ".join(
                f"{stage}={mb:.1f}" for stage, mb in peaks.items())
                + f" peak_stage={max(peaks, key=peaks.get)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
