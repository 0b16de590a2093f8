#!/usr/bin/env python3
"""Print one line per benchmark instance that pins what the solver did.

    python3 scripts/fingerprint.py --seed N [--workload grid|augmented|gadgets]

Each instance of the workload (all three when ``--workload`` is left
out) is colored once through ``bench/pipeline.color``, the benchmark's
own timed path.  The line holds the workload and instance number, a hash
of the input text, the solver's ``work``, pops and insertions, the
reductions by kind, and a hash of the coloring text.  Two builds run
the same program on these inputs exactly when their outputs are equal,
so diffing the output of two checkouts shows a behaviour change that the
benchmark's totals over a timed loop can hide.  Run from the root of a
checkout; the library is imported from its ``src/``.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import pipeline
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        graphs = workloads.WORKLOADS[name].graphs(args.seed)
        for i, inst in enumerate(workloads.prepare(graphs)):
            out, stats, _, _ = pipeline.color(inst.text)
            kinds = " ".join(f"{k}={n}" for k, n in stats.reductions.items())
            print(f"{name} {i} in={_digest(inst.text)} work={stats.work} "
                  f"pops={stats.pops} insertions={stats.insertions} {kinds} "
                  f"out={_digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
