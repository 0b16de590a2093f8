"""Hand-built embedded instances: cycles, polyhedra, flowers, grids.

Rotation systems are written out or come from a consistently oriented
face list (rotations_from_faces).  Either way build() re-verifies the
genus-0 Euler formula, so these constructions are self-checking.
"""

from __future__ import annotations

from .embedding import PlaneGraph, build


def cycle_rotations(n: int) -> list[list[int]]:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def cycle_graph(n: int) -> PlaneGraph:
    return build(cycle_rotations(n))


def path_graph(n: int) -> PlaneGraph:
    if n < 2:
        raise ValueError("path needs >= 2 vertices")
    rot = [[i - 1, i + 1] for i in range(n)]
    rot[0] = [1]
    rot[-1] = [n - 2]
    return build(rot)


def star_graph(leaves: int) -> PlaneGraph:
    rot = [list(range(1, leaves + 1))]
    rot.extend([0] for _ in range(leaves))
    return build(rot)


def rotations_from_faces(faces: list[tuple[int, ...]]) -> list[list[int]]:
    """Rotation system of a sphere embedding given by its face cycles.

    The faces must be consistently oriented: every edge is walked once in
    each direction.  Each corner (u, v, w) then pins w as the clockwise
    successor of u around v.
    """
    n = 1 + max(max(f) for f in faces)
    succ: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for face in faces:
        k = len(face)
        for i in range(k):
            u, v, w = face[i], face[(i + 1) % k], face[(i + 2) % k]
            if u in succ[v]:
                raise ValueError(f"edge {u}->{v} is walked twice")
            succ[v][u] = w
    for v, nbrs in succ.items():
        for u in nbrs:
            if v not in succ[u]:
                raise ValueError(f"edge {v}->{u} is never walked")
    rotations: list[list[int]] = []
    for v in range(n):
        nbrs = succ[v]
        if not nbrs:
            rotations.append([])
            continue
        start = min(nbrs)
        rot = [start]
        cur = nbrs[start]
        while cur != start:
            rot.append(cur)
            cur = nbrs[cur]
        if len(rot) != len(nbrs):
            raise ValueError(f"rotation at {v} does not close up")
        rotations.append(rot)
    return rotations


def graph_from_faces(faces: list[tuple[int, ...]]) -> PlaneGraph:
    return build(rotations_from_faces(faces))


def k23_graph() -> PlaneGraph:
    """K_{2,3} drawn with its three quadrilateral faces (parts {0,1}, {2,3,4})."""
    return graph_from_faces([(0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 2)])


def cube_graph() -> PlaneGraph:
    # written out rather than from faces: bench/workloads._hub_cubes keeps
    # the corner that starts vertex 0's rotation (4)
    return build([[4, 1, 2], [5, 3, 0], [6, 0, 3], [7, 2, 1],
                  [6, 5, 0], [4, 7, 1], [7, 4, 2], [5, 6, 3]])


def dodecahedron_graph() -> PlaneGraph:
    return graph_from_faces([
        (0, 8, 14, 2, 10), (0, 9, 15, 4, 8), (0, 10, 16, 1, 9),
        (1, 11, 5, 15, 9), (1, 16, 3, 17, 11), (2, 12, 3, 16, 10),
        (2, 14, 6, 18, 12), (3, 12, 18, 7, 17), (4, 13, 6, 14, 8),
        (4, 15, 5, 19, 13), (5, 11, 17, 7, 19), (6, 13, 19, 7, 18),
    ])


# ----------------------------------------------------------------------
# flowers: a short inner cycle, pendant spokes, and a subdivided outer
# ring, giving hand-checkable secure pentagrams / hexagrams.

def pentagram_flower() -> PlaneGraph:
    """Inner 5-cycle 0..4 with deg(0..3) = 3 and deg(4) = 4.

    (0,1,2,3,4) is a secure pentagram (not a decagram): its outside
    neighbors 5,6,7,8 are pairwise non-adjacent, and the one short
    x3-x4 connection 7-13-8 closes the facial pentagon (2,7,13,8,3).
    """
    faces = [
        (0, 1, 2, 3, 4),
        (0, 5, 11, 6, 1),
        (1, 6, 12, 7, 2),
        (2, 7, 13, 8, 3),
        (3, 8, 14, 9, 4),
        (4, 9, 15, 10),
        (4, 10, 16, 5, 0),
        (5, 16, 10, 15, 9, 14, 8, 13, 7, 12, 6, 11),
    ]
    return graph_from_faces(faces)


def hexagram_flower() -> PlaneGraph:
    """Inner 6-cycle 0..5, all of degree 3; (0,...,5) is a secure hexagram."""
    pockets = [(i, 6 + i, 12 + i, 6 + (i + 1) % 6, (i + 1) % 6)
               for i in range(6)]
    ring = (6, 17, 11, 16, 10, 15, 9, 14, 8, 13, 7, 12)
    faces = [tuple(range(6)), *pockets, ring]
    return graph_from_faces(faces)


def big_hub_graph(spokes: int = 60, pendant: bool = True) -> PlaneGraph:
    """A hub adjacent to every other vertex of a rim cycle of length
    2*spokes; all faces are quadrilaterals, so the graph is
    triangle-free, and with spokes >= 60 the hub is big.

    With ``pendant`` a leaf hangs off rim vertex 1, making
    (1, 2, hub, 2*spokes) a secure tetragram whose v3 is the big hub --
    the one configuration where the identification must absorb the
    small side into the big one.
    """
    if spokes < 3:
        raise ValueError("need >= 3 spokes")
    rim = 2 * spokes
    hub = rim
    faces = []
    for i in range(0, rim, 2):
        faces.append((i, i + 1, (i + 2) % rim, hub))
    outer = tuple(reversed(range(rim)))
    faces.append(outer)
    g = build(rotations_from_faces(faces))
    if pendant:
        leaf = g.new_vertex()
        d1 = g.v_dart[1]
        g.add_edge_at(1, d1, leaf, None)
    return g


def grid_rotations(k: int) -> list[list[int]]:
    """k x k grid; neighbor order N, E, S, W is a plane rotation."""
    if k < 1:
        raise ValueError("grid needs positive dimensions")
    rot: list[list[int]] = []
    for i in range(k):
        for j in range(k):
            nbrs = []
            if i > 0:
                nbrs.append((i - 1) * k + j)
            if j < k - 1:
                nbrs.append(i * k + j + 1)
            if i < k - 1:
                nbrs.append((i + 1) * k + j)
            if j > 0:
                nbrs.append(i * k + j - 1)
            rot.append(nbrs)
    return rot


def grid_graph(k: int) -> PlaneGraph:
    return build(grid_rotations(k))
