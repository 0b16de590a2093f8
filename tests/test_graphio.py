import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gadget_union
from tricolor.embedding import EmbeddingError, build, validate
from tricolor.generators import augmented, quad
from tricolor.graphio import (
    CHUNK, GraphSyntaxError, format_coloring, parse, parse_coloring,
    parse_rotations, serialize,
)
from tricolor.instances import big_hub_graph, cycle_graph


def test_c4_round_trip():
    # canonical form: each rotation starts at its smallest neighbor
    text = "p 4 4\nv 0 1 3\nv 1 0 2\nv 2 1 3\nv 3 0 2\n"
    g = parse(text)
    assert (g.n_alive, g.m_alive) == (4, 4)
    assert serialize(g) == text


def test_noncanonical_input_parses_same_graph():
    canon = "p 4 4\nv 0 1 3\nv 1 0 2\nv 2 1 3\nv 3 0 2\n"
    rotated = "p 4 4\nv 0 1 3\nv 1 2 0\nv 2 3 1\nv 3 0 2\n"
    assert serialize(parse(rotated)) == canon


def test_ids_spelled_another_way():
    # int() reads each of these as an id in range; the id table does not
    canon = "p 4 4\nv 0 1 3\nv 1 0 2\nv 2 1 3\nv 3 0 2\n"
    parse(canon)
    for line, token in [("v 00 1 3", "00"), ("v 0 1 +3", "+3"),
                        ("v 0 0_1 3", "0_1"), ("v \uff10 1 3", "\uff10"),
                        ("v 0 \u0661 3", "\u0661")]:
        with pytest.raises(GraphSyntaxError) as err:
            parse(canon.replace("v 0 1 3", line))
        assert str(err.value) == f"line 2: id '{token}' is not a plain decimal"


def test_comments_and_blank_lines():
    g = parse("# a comment\n\np 2 1\nv 0 1\nv 1 0\n")
    assert g.m_alive == 1


def test_isolated_vertex_line():
    g = parse("p 1 0\nv 0\n")
    assert g.n_alive == 1 and g.v_deg[0] == 0


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_parse_serialize_identity_on_generated(seed):
    g = augmented(15, seed)
    text = serialize(g)
    assert serialize(parse(text)) == text


def test_parsed_and_built_arrays_share_ints():
    # the layout the memory peak of parse and build depends on: rotations
    # as tuples, which are exact-size, one int object per vertex id, and
    # build's origins the same int objects as its dart ids
    rotations = parse_rotations(serialize(quad(600, 1)))
    assert all(type(r) is tuple for r in rotations)
    first = {}
    assert all(first.setdefault(w, w) is w for r in rotations for w in r)
    assert len(first) == 600
    g = build(rotations)
    dart = {d: d for d in g.d_next}
    assert len(g.d_origin) > 600
    assert all(dart[u] is u for u in g.d_origin)


def test_serializing_mutated_graph_rejected():
    g = cycle_graph(4)
    g.remove_edge(0)
    g.remove_edge(g.v_dart[0])
    g.remove_isolated_vertex(0)
    with pytest.raises(ValueError):
        serialize(g)


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with one to three rotation entries swapped, dropped,
    replaced or inserted, each drop, replace or insert mirrored at the
    other endpoint half the time, and the header's edge count redone."""
    rot = [line.split()[2:] for line in text.splitlines()[1:]]
    n = len(rot)

    def insert(v, w):
        rot[v].insert(rng.randint(0, len(rot[v])), str(w))

    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(n)
        r = rot[v]
        op = rng.choice(("swap", "drop", "replace", "insert"))
        mirror = rng.random() < 0.5
        if op == "swap" and len(r) >= 2:
            i, j = rng.sample(range(len(r)), 2)
            r[i], r[j] = r[j], r[i]
        elif op in ("drop", "replace") and r:
            w = int(r.pop(rng.randrange(len(r))))
            if mirror and str(v) in rot[w]:
                rot[w].remove(str(v))
            if op == "replace":
                x = rng.randrange(n)
                insert(v, x)
                if mirror:
                    insert(x, v)
        elif op == "insert":
            w = rng.randrange(n)
            insert(v, w)
            if mirror:
                insert(w, v)
    lines = [" ".join(["v", str(v), *r]) for v, r in enumerate(rot)]
    return "\n".join([f"p {n} {sum(map(len, rot)) // 2}", *lines]) + "\n"


def test_parse_accepts_only_valid_embeddings():
    # parse (pairing, ranges, the Euler check in build) establishes
    # everything validate checks, so validate never fails after it
    rng = random.Random(1)
    accepted = changed = 0
    for g in (quad(40, 1), augmented(40, 2), big_hub_graph(), gadget_union()):
        text = serialize(g)
        for _ in range(300):
            try:
                mutant = parse(_mutant(text, rng))
            except (GraphSyntaxError, EmbeddingError):
                continue
            validate(mutant)
            accepted += 1
            changed += serialize(mutant) != text
    # 213 of the 1200 mutants parse, 162 of them a different graph; the
    # floors keep the test from passing with nothing accepted
    assert accepted >= 150 and changed >= 100, (accepted, changed)


class TestSyntaxErrors:
    @pytest.mark.parametrize("text,line", [
        ("p 2 1\nv 0 x\nv 1 0\n", 2),
        ("v 0 1\n", 1),
        ("p 1 0\np 1 0\nv 0\n", 2),
        ("p 2 1\nv 0 1\nv 0 1\n", 3),
        ("p 2 1\nv 0 5\nv 1 0\n", 2),
        ("p 2 1\nq 0 1\n", 2),
    ])
    def test_line_numbers(self, text, line):
        with pytest.raises(GraphSyntaxError) as err:
            parse(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text,message", [
        ("p 2\n", "line 1: header must be 'p <n> <m>'"),
        ("p 2 x\n", "line 1: non-integer header"),
        ("p -1 0\n", "line 1: negative counts"),
        ("p 1000000000000 0", "line 1: header claims 1000000000000 vertices "
                              "in 17 characters"),
        ("p 1 0\np 1 0\n", "line 2: duplicate header"),
        ("v 0 1\n", "line 1: vertex line before header"),
        ("p 2 1\nv 0 x\n", "line 2: non-integer vertex id"),
        ("p 2 1\nv\n", "line 2: missing vertex id"),
        ("p 2 1\nv 2 0\n", "line 2: vertex id 2 out of range"),
        ("p 2 1\nv -1 0\n", "line 2: vertex id -1 out of range"),
        ("p 2 1\nv 0 1\nv 0 9\n", "line 3: vertex 0 listed twice"),
        ("p 3 1\nv 0 1 -2 7\n", "line 2: neighbor -2 out of range"),
        ("p 3 1\nv 0 1 3 -2\n", "line 2: neighbor 3 out of range"),
        # a line with two faults names the one the checks reach first
        ("p 2 1\nv 0 1\nv 0 x\n", "line 3: non-integer vertex id"),
        ("p 2 1\nv 0 1\nv 0 5\n", "line 3: vertex 0 listed twice"),
        ("p 2 1\nv 5 x\n", "line 2: non-integer vertex id"),
        ("p 2 1\nv 5 7\n", "line 2: vertex id 5 out of range"),
        ("p 2 1\n# v 0 1\nq 0 1\n", "line 3: unknown record 'q'"),
        ("# only a comment\n", "line 0: missing header"),
        ("p 2 3\nv 0 1\nv 1 0\n", "line 0: header claims 3 edges, found 2 darts"),
        ("p 3 0\n", "line 0: vertex 0 has no 'v' line"),
        ("p 3 0\nv 0\nv 2\n", "line 0: vertex 1 has no 'v' line"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(GraphSyntaxError) as err:
            parse(text)
        assert str(err.value) == message

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphSyntaxError):
            parse("p 2 3\nv 0 1\nv 1 0\n")


class TestColoringFiles:
    def test_round_trip(self):
        col = {0: 1, 5: 2, 3: 0}
        assert parse_coloring(format_coloring(col)) == col

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 7])
    def test_chunks_join_to_one_text(self, n):
        ids = list(range(n))
        random.Random(n).shuffle(ids)
        col = {v: v % 3 for v in ids}
        assert format_coloring(col) == "".join(
            f"{v} {col[v]}\n" for v in sorted(col))

    def test_duplicate_vertex(self):
        with pytest.raises(GraphSyntaxError):
            parse_coloring("0 1\n0 2\n")

    def test_bad_line(self):
        with pytest.raises(GraphSyntaxError) as err:
            parse_coloring("0 1 2\n")
        assert err.value.line == 1
