"""Command-line driver.

Subcommands:

    color [--precolor FILE] [--stats] INPUT
    check [--precolor FILE] INPUT COLORING
    gen --kind K --size N --seed S [--delete P] [--out FILE]
    oracle [--cap N] INPUT

``color`` parses its input (rotation pairing, id ranges, Euler check)
and rejects a graph with a triangle before it solves.

Exit codes: 0 success, 1 check, input or solver failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .embedding import EmbeddingError
from .generators import GenSpec, InvalidSpec, generate
from .graphio import (
    GraphSyntaxError, format_coloring, parse, parse_coloring, serialize,
)
from .multigram import KIND_ORDER
from .oracle import SimpleGraph, TooLarge, brute_force_3color, is_proper, is_triangle_free
from .reducer import ExtensionFailure
from .solver import (
    ExhaustedQueueNonempty, ImproperPrecoloring, NotAFacialCycle, Solver,
    TriangleFound,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str):
    return parse(_read_text(path))


def _cmd_color(args) -> int:
    g = _load_graph(args.input)
    if not is_triangle_free(SimpleGraph.from_plane_graph(g)):
        raise TriangleFound("input graph has a triangle")
    phi = None
    if args.precolor is not None:
        phi = parse_coloring(_read_text(args.precolor))
    solver = Solver(g, precoloring=phi)
    coloring = solver.run()
    sys.stdout.write(format_coloring(coloring))
    if args.stats:
        _print_stats(solver.stats)
    return 0


def _print_stats(stats) -> None:
    kinds = " ".join(f"{k}={stats.reductions[k]}" for k in KIND_ORDER)
    sys.stderr.write(
        f"pops={stats.pops} insertions={stats.insertions} work={stats.work} "
        f"{kinds}\n")


def _cmd_check(args) -> int:
    g = _load_graph(args.input)
    coloring = parse_coloring(_read_text(args.coloring))
    phi = {}
    if args.precolor is not None:
        phi = parse_coloring(_read_text(args.precolor))
    sg = SimpleGraph.from_plane_graph(g)
    unknown = (coloring.keys() | phi.keys()) - sg.adj.keys()
    if unknown:
        sys.stderr.write(f"error: vertex {min(unknown)} is not in the graph\n")
        return 1
    if not is_proper(sg, coloring):
        sys.stderr.write("improper or incomplete coloring\n")
        return 1
    differ = [v for v, c in phi.items() if coloring[v] != c]
    if differ:
        v = min(differ)
        sys.stderr.write(f"vertex {v} has color {coloring[v]}, "
                         f"precolored {phi[v]}\n")
        return 1
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(kind=args.kind, size=args.size, seed=args.seed,
                   delete_prob=args.delete)
    g = generate(spec)
    text = serialize(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.input)
    sg = SimpleGraph.from_plane_graph(g)
    coloring = brute_force_3color(sg, cap=args.cap)
    if coloring is None:
        sys.stderr.write("not 3-colorable\n")
        return 1
    sys.stdout.write(format_coloring(coloring))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tricolor",
        description="3-color triangle-free plane graphs in linear time")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="3-color an embedded graph")
    p.add_argument("input")
    p.add_argument("--precolor", metavar="FILE",
                   help="'id color' lines covering one facial 4- or 5-cycle")
    p.add_argument("--stats", action="store_true",
                   help="print run statistics to stderr")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("check", help="verify a coloring file")
    p.add_argument("input")
    p.add_argument("coloring")
    p.add_argument("--precolor", metavar="FILE",
                   help="'id color' lines the coloring must agree with")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a triangle-free plane graph")
    p.add_argument("--kind", required=True,
                   choices=("grid", "quad", "augmented"))
    p.add_argument("--size", type=int, required=True,
                   help="target vertex count (grids round to a square)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delete", type=float, default=0.0,
                   help="edge deletion probability (grid only)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force 3-coloring (small inputs)")
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=30)
    p.set_defaults(func=_cmd_oracle)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmbeddingError, GraphSyntaxError, InvalidSpec, TooLarge,
            NotAFacialCycle, ImproperPrecoloring, ExhaustedQueueNonempty,
            ExtensionFailure, TriangleFound, OSError,
            UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
