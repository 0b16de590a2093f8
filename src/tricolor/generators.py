"""Random triangle-free plane graph generators.

Three families:

    grid       k x k grid, optionally with random edge deletions
               (deletions cannot create triangles, may disconnect)
    quad       random quadrangulation-style growth from a 4-cycle; all
               faces stay even, so the graph stays bipartite and hence
               triangle-free
    augmented  quad plus random chords, each refused unless the
               endpoints are non-adjacent and share no neighbor; this
               introduces odd faces (pentagons, heptagons, ...)

``generate`` validates its output with the embedding validator and the
triangle-freeness checker rather than trusting the construction
argument; the family functions it calls do not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

from .embedding import PlaneGraph, build, validate
from .instances import grid_rotations
from .oracle import SimpleGraph, is_triangle_free


class InvalidSpec(Exception):
    pass


@dataclass(frozen=True)
class GenSpec:
    kind: str                  # grid | quad | augmented
    size: int                  # target vertex count
    seed: int = 0
    delete_prob: float = 0.0   # grid only

    def validate(self) -> None:
        if self.kind not in ("grid", "quad", "augmented"):
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.size < 1:
            raise InvalidSpec("size must be >= 1")
        if not 0.0 <= self.delete_prob < 1.0:
            raise InvalidSpec("delete_prob must be in [0, 1)")
        if self.delete_prob > 0.0 and self.kind != "grid":
            raise InvalidSpec(
                f"delete_prob applies to grid only, not {self.kind!r}")


def generate(spec: GenSpec) -> PlaneGraph:
    spec.validate()
    if spec.kind == "grid":
        k = max(2, isqrt(spec.size))
        g = grid(k, delete_prob=spec.delete_prob, seed=spec.seed)
    elif spec.kind == "quad":
        g = quad(max(4, spec.size), seed=spec.seed)
    else:
        g = augmented(max(4, spec.size), seed=spec.seed)
    _validate_output(g)
    return g


def _validate_output(g: PlaneGraph) -> None:
    validate(g)
    if not is_triangle_free(SimpleGraph.from_plane_graph(g)):
        raise InvalidSpec("generator produced a triangle")


def grid(k: int, delete_prob: float = 0.0, seed: int = 0) -> PlaneGraph:
    rot = grid_rotations(k)
    if delete_prob > 0.0:
        rng = random.Random(seed)
        adj = [set(r) for r in rot]
        for u in range(len(rot)):
            for w in sorted(adj[u]):
                if w > u and rng.random() < delete_prob:
                    adj[u].discard(w)
                    adj[w].discard(u)
        rot = [[w for w in r if w in adj[u]] for u, r in enumerate(rot)]
    return build(rot)


#: longest face walk the growth ops look at
FACE_CAP = 64


def _random_face(g: PlaneGraph, rng: random.Random) -> list[int] | None:
    for _ in range(32):
        d = rng.randrange(len(g.d_origin))
        if g.d_origin[d] < 0:
            continue
        walk, closed = g.walk_face(d, FACE_CAP)
        if closed:
            return walk
    return None


#: growth ops refuse to push a vertex's degree past this; keeps every
#: vertex small and the solver's per-vertex work moderate
DEGREE_SOFT_CAP = 10


def quad(size: int, seed: int = 0) -> PlaneGraph:
    """Grow a bipartite plane graph with all faces even, |V| = size."""
    if size < 4:
        raise InvalidSpec("quad needs size >= 4")
    g = build([[1, 3], [2, 0], [3, 1], [0, 2]])
    rng = random.Random(seed)
    while g.n_alive < size:
        walk = _random_face(g, rng)
        if walk is None:
            continue
        length = len(walk)
        roll = rng.random()
        if length >= 6 and roll < 0.3:
            _try_even_chord(g, rng, walk)
        elif length <= 6 and roll > 0.75 and size - g.n_alive >= 2:
            _double_subdivide(g, rng.choice(walk))
        else:
            _insert_degree2(g, rng, walk)
    return g


def _corner_pair(g: PlaneGraph, rng: random.Random, walk: list[int],
                 t: int) -> tuple[int, int] | None:
    """The darts of walk at a random i and at i + t, when their origins
    are two distinct, non-adjacent vertices below DEGREE_SOFT_CAP."""
    i = rng.randrange(len(walk))
    du, dv = walk[i], walk[(i + t) % len(walk)]
    u, w = g.d_origin[du], g.d_origin[dv]
    if (u == w or g.v_deg[u] >= DEGREE_SOFT_CAP
            or g.v_deg[w] >= DEGREE_SOFT_CAP or g.adjacent(u, w)):
        return None
    return du, dv


def _try_even_chord(g: PlaneGraph, rng: random.Random,
                    walk: list[int]) -> None:
    # split an even face into two even faces: offset must be odd >= 3
    offsets = [t for t in range(3, len(walk) - 2) if t % 2 == 1]
    if not offsets:
        return
    pair = _corner_pair(g, rng, walk, rng.choice(offsets))
    if pair is not None:
        g.add_edge(*pair)


def _insert_degree2(g: PlaneGraph, rng: random.Random,
                    walk: list[int]) -> None:
    # new vertex joined to two face vertices at even walk distance
    evens = [t for t in range(2, len(walk) - 1) if t % 2 == 0]
    if not evens:
        return
    pair = _corner_pair(g, rng, walk, rng.choice(evens))
    if pair is not None:
        du, dv = pair
        z = g.new_vertex()
        g.add_edge_at(g.d_origin[du], du, z, None)
        g.add_edge_at(z, g.v_dart[z], g.d_origin[dv], dv)


def _double_subdivide(g: PlaneGraph, d: int) -> None:
    # replace edge(d) by a path of three edges; both faces grow by 2
    u, w = g.d_origin[d], g.head(d)
    td = g.d_twin[d]
    ref_u = g.d_next[d] if g.d_next[d] != d else None
    ref_w = g.d_next[td] if g.d_next[td] != td else None
    g.remove_edge(d)
    s = g.new_vertex()
    t = g.new_vertex()
    g.add_edge_at(u, ref_u, s, None)
    g.add_edge_at(s, g.v_dart[s], t, None)
    g.add_edge_at(t, g.v_dart[t], w, ref_w)


def augmented(size: int, seed: int = 0) -> PlaneGraph:
    """quad() plus triangle-refusing random chords (odd faces appear)."""
    g = quad(size, seed=seed)
    rng = random.Random(seed ^ 0x9E3779B9)
    attempts = max(4, g.m_alive // 3)
    for _ in range(attempts):
        walk = _random_face(g, rng)
        if walk is None or len(walk) < 5:
            continue
        pair = _corner_pair(g, rng, walk, rng.randrange(2, len(walk) - 1))
        if pair is None:
            continue
        u, w = g.d_origin[pair[0]], g.d_origin[pair[1]]
        if set(g.neighbors(u)).isdisjoint(g.neighbors(w)):
            g.add_edge(*pair)
    return g
