import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricolor.generators import augmented
from tricolor.graphio import (
    CHUNK, GraphSyntaxError, format_coloring, parse, parse_coloring,
    serialize,
)
from tricolor.instances import cycle_graph


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


def test_serializing_mutated_graph_rejected():
    g = cycle_graph(4)
    g.remove_edge(0)
    g.remove_edge(g.v_dart[0])
    g.remove_isolated_vertex(0)
    with pytest.raises(ValueError):
        serialize(g)


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
