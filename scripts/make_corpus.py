#!/usr/bin/env python3
"""Write a directory of sample instances in the text format.

Useful for eyeballing the format and for driving the CLI by hand:

    python3 scripts/make_corpus.py corpus/
    tricolor color corpus/quad_60_s0.graph | tricolor check corpus/quad_60_s0.graph -

The library is imported from the ``src/`` of the checkout the script
lives in.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from tricolor.generators import GenSpec, generate
    from tricolor.graphio import serialize
    from tricolor.instances import (
        cube_graph, cycle_graph, dodecahedron_graph, grid_graph, k23_graph,
    )

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    named = {
        "c4": cycle_graph(4), "c5": cycle_graph(5), "c6": cycle_graph(6),
        "k23": k23_graph(), "cube": cube_graph(),
        "dodecahedron": dodecahedron_graph(), "grid5": grid_graph(5),
    }
    for name, g in named.items():
        (args.outdir / f"{name}.graph").write_text(serialize(g))
    for kind in ("grid", "quad", "augmented"):
        for size in (60, 400):
            for seed in range(args.seeds):
                g = generate(GenSpec(kind, size, seed=seed))
                path = args.outdir / f"{kind}_{size}_s{seed}.graph"
                path.write_text(serialize(g))
    count = len(list(args.outdir.glob("*.graph")))
    print(f"wrote {count} instances to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
