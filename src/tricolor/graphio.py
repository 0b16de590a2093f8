"""Text format for embedded graphs and for colorings.

Graph files:

    # optional comments
    p <n> <m>
    v <id> <nbr> <nbr> ...      one line per vertex, clockwise order

Ids are 0-based and dense, written as plain decimals ("7", not "07" or
"+7").  serialize() emits vertices in ascending id order with each
rotation rotated to start at its smallest neighbor, so parse o
serialize is the identity on freshly built graphs.

Every vertex needs its own "v" line, an isolated one too ("v <id>").

Coloring files are lines of "<id> <color>".
"""

from __future__ import annotations

from .embedding import PlaneGraph, build


class GraphSyntaxError(Exception):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_rotations(text: str) -> list[tuple[int, ...]]:
    """Each vertex's rotation, as an exact-size tuple; ids are shared
    int objects, one per vertex id.

    A "v" line maps its tokens through one table from id text to id,
    so a range check, an integer check and the mapping are one lookup.
    A line the table refuses is an error, and ``_vertex_fault`` names
    its first fault.
    """
    n = m = -1
    rotations: list[tuple[int, ...] | None] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "p":
            if rotations is not None:
                raise GraphSyntaxError(lineno, "duplicate header")
            if len(tokens) != 3:
                raise GraphSyntaxError(lineno, "header must be 'p <n> <m>'")
            try:
                n, m = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphSyntaxError(lineno, "non-integer header") from None
            if n < 0 or m < 0:
                raise GraphSyntaxError(lineno, "negative counts")
            # one "v" line per vertex: a larger n cannot be listed, and
            # would be allocated below before any line is read
            if n > len(text):
                raise GraphSyntaxError(lineno, f"header claims {n} vertices "
                                               f"in {len(text)} characters")
            rotations = [None] * n
            id_of = {str(i): i for i in range(n)}.__getitem__
        elif tag == "v":
            if rotations is None:
                raise GraphSyntaxError(lineno, "vertex line before header")
            try:
                v = id_of(tokens[1])
                rot = tuple(map(id_of, tokens[2:]))
            except (IndexError, KeyError):
                raise _vertex_fault(lineno, tokens, rotations) from None
            if rotations[v] is not None:
                raise GraphSyntaxError(lineno, f"vertex {v} listed twice")
            rotations[v] = rot
        elif not tag.startswith("#"):
            raise GraphSyntaxError(lineno, f"unknown record '{tag}'")
    if rotations is None:
        raise GraphSyntaxError(0, "missing header")
    if None in rotations:
        raise GraphSyntaxError(0, f"vertex {rotations.index(None)} has no 'v' line")
    total = sum(map(len, rotations))
    if total != 2 * m:
        raise GraphSyntaxError(0, f"header claims {m} edges, found {total} darts")
    return rotations


def _vertex_fault(lineno: int, tokens: list[str],
                  rotations: list) -> GraphSyntaxError:
    """The error naming the first fault of a "v" line whose tokens are
    not all id texts."""
    n = len(rotations)
    try:
        nbrs = list(map(int, tokens[1:]))
    except ValueError:
        return GraphSyntaxError(lineno, "non-integer vertex id")
    if not nbrs:
        return GraphSyntaxError(lineno, "missing vertex id")
    v = nbrs[0]
    if not 0 <= v < n:
        return GraphSyntaxError(lineno, f"vertex id {v} out of range")
    if rotations[v] is not None:
        return GraphSyntaxError(lineno, f"vertex {v} listed twice")
    w = next((w for w in nbrs if not 0 <= w < n), None)
    if w is not None:
        return GraphSyntaxError(lineno, f"neighbor {w} out of range")
    # every token is an id that int() spells another way
    t = next(t for t in tokens[1:] if str(int(t)) != t)
    return GraphSyntaxError(lineno, f"id '{t}' is not a plain decimal")


def parse(text: str) -> PlaneGraph:
    return build(parse_rotations(text))


def serialize(g: PlaneGraph) -> str:
    """Canonical text form; requires dense ids (no dead vertices)."""
    n = len(g.v_alive)
    if g.n_alive != n:
        raise ValueError("cannot serialize a graph with dead vertex ids")
    lines = [f"p {n} {g.m_alive}"]
    for v in range(n):
        rot = list(g.neighbors(v))
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        lines.append("v " + " ".join(str(t) for t in (v, *rot)))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphSyntaxError(lineno, "expected '<id> <color>'")
        try:
            v, c = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphSyntaxError(lineno, "non-integer field") from None
        if v in out:
            raise GraphSyntaxError(lineno, f"vertex {v} colored twice")
        out[v] = c
    return out


def format_coloring(coloring: dict[int, int]) -> str:
    """One "<id> <color>" line per vertex, ids ascending."""
    return "".join([f"{v} {coloring[v]}\n" for v in sorted(coloring)])
