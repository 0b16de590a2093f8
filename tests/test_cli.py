import io

import pytest

from tricolor.cli import main
from tricolor.graphio import format_coloring, parse, parse_coloring, serialize
from tricolor.instances import cube_graph, cycle_graph, graph_from_faces
from tricolor.multigram import KIND_ORDER
from tricolor.oracle import SimpleGraph, facial_cycles, is_proper
from tricolor.reducer import ExtensionFailure
from tricolor.solver import ExhaustedQueueNonempty, Solver


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.graph"
    path.write_text(serialize(cube_graph()))
    return path


def test_color_then_check(tmp_path, cube_file, capsys):
    assert main(["color", "--stats", str(cube_file)]) == 0
    out = capsys.readouterr()
    coloring = parse_coloring(out.out)
    assert len(coloring) == 8 and set(coloring.values()) <= {0, 1, 2}
    assert out.err.startswith("pops=") and "removed=" not in out.err
    stats = dict(field.split("=") for field in out.err.split())
    assert list(stats)[:3] == ["pops", "insertions", "work"]
    assert int(stats["work"]) > 0
    assert sum(int(stats[k]) for k in KIND_ORDER) > 0
    colfile = tmp_path / "cube.col"
    colfile.write_text(out.out)
    assert main(["check", str(cube_file), str(colfile)]) == 0
    sg = SimpleGraph.from_plane_graph(cube_graph())
    assert is_proper(sg, coloring)


def test_stdin_input(cube_file, capsys, monkeypatch):
    # "-" reads the graph for color, and the coloring for check, from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(cube_file.read_text()))
    assert main(["color", "-"]) == 0
    out = capsys.readouterr().out
    assert is_proper(SimpleGraph.from_plane_graph(cube_graph()),
                     parse_coloring(out))
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert main(["check", str(cube_file), "-"]) == 0
    one_color = format_coloring(dict.fromkeys(parse_coloring(out), 0))
    monkeypatch.setattr("sys.stdin", io.StringIO(one_color))
    assert main(["check", str(cube_file), "-"]) == 1


def test_check_rejects_corrupted(tmp_path, cube_file, capsys):
    main(["color", str(cube_file)])
    coloring = parse_coloring(capsys.readouterr().out)
    u = 0
    w = cube_graph().neighbors(u)[0]
    coloring[u] = coloring[w]
    bad = tmp_path / "bad.col"
    bad.write_text("".join(f"{v} {c}\n" for v, c in coloring.items()))
    assert main(["check", str(cube_file), str(bad)]) == 1


def test_check_rejects_unknown_vertex(tmp_path, capsys):
    # a proper coloring of the graph plus an id the graph lacks
    graph = tmp_path / "edge.graph"
    graph.write_text("p 2 1\nv 0 1\nv 1 0\n")
    col = tmp_path / "edge.col"
    col.write_text("0 0\n1 1\n999 2\n")
    assert main(["check", str(graph), str(col)]) == 1
    assert capsys.readouterr().err == "error: vertex 999 is not in the graph\n"


def test_precolor_flow(tmp_path, cube_file, capsys):
    g = cube_graph()
    cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 4)
    phi = dict(zip(cyc, (0, 1, 0, 1)))
    pre = tmp_path / "pre.col"
    pre.write_text("".join(f"{v} {c}\n" for v, c in phi.items()))
    assert main(["color", "--precolor", str(pre), str(cube_file)]) == 0
    coloring = parse_coloring(capsys.readouterr().out)
    assert all(coloring[v] == phi[v] for v in cyc)
    sg = SimpleGraph.from_plane_graph(cube_graph())
    assert is_proper(sg, coloring)


def test_check_precolor_agreement(tmp_path, cube_file, capsys):
    g = cube_graph()
    cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 4)
    pre = tmp_path / "pre.col"
    pre.write_text("".join(f"{v} {c}\n" for v, c in zip(cyc, (0, 1, 0, 1))))
    col = tmp_path / "cube.col"
    assert main(["color", "--precolor", str(pre), str(cube_file)]) == 0
    col.write_text(capsys.readouterr().out)
    assert main(["check", "--precolor", str(pre), str(cube_file), str(col)]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_precolor_disagreement_exits_one(tmp_path, cube_file, capsys):
    # a proper coloring that differs from the precoloring on one vertex
    assert main(["color", str(cube_file)]) == 0
    coloring = parse_coloring(capsys.readouterr().out)
    col = tmp_path / "cube.col"
    col.write_text("".join(f"{v} {c}\n" for v, c in coloring.items()))
    v = min(coloring)
    other = (coloring[v] + 1) % 3
    pre = tmp_path / "pre.col"
    pre.write_text(f"{v} {other}\n")
    assert main(["check", "--precolor", str(pre), str(cube_file), str(col)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"vertex {v} has color {coloring[v]}, precolored {other}\n"


def test_precolor_improper_exits_one(tmp_path, cube_file, capsys):
    g = cube_graph()
    cyc = next(vs for vs, _ in facial_cycles(g) if len(vs) == 4)
    pre = tmp_path / "pre.col"
    pre.write_text("".join(f"{v} 0\n" for v in cyc))
    assert main(["color", "--precolor", str(pre), str(cube_file)]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_writes_parseable_graph(tmp_path, capsys):
    out = tmp_path / "g.graph"
    assert main(["gen", "--kind", "quad", "--size", "30", "--seed", "4",
                 "--out", str(out)]) == 0
    g = parse(out.read_text())
    assert g.n_alive == 30


def test_gen_deterministic(capsys):
    assert main(["gen", "--kind", "augmented", "--size", "20", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "augmented", "--size", "20", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    path.write_text(serialize(cycle_graph(5)))
    assert main(["oracle", str(path)]) == 0
    coloring = parse_coloring(capsys.readouterr().out)
    sg = SimpleGraph.from_plane_graph(cycle_graph(5))
    assert is_proper(sg, coloring)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    k4 = graph_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    path.write_text(serialize(k4))
    return path


def test_validate_catches_triangle(tmp_path, k4_file, capsys):
    # K4 and a triangle with a pendant, which the solver would color
    tri = tmp_path / "tri.graph"
    tri.write_text("p 4 4\nv 0 1 2 3\nv 1 2 0\nv 2 0 1\nv 3 0\n")
    for path in (k4_file, tri):
        assert main(["color", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: input graph has a triangle\n"


def test_solver_failure_is_one_error_line(cube_file, capsys, monkeypatch):
    # the triangle check stops every input the solver is known to fail
    # on, so the failures are injected
    for exc in (ExhaustedQueueNonempty("worklist empty with 4 vertices left"),
                ExtensionFailure("survivor 3 uncolored")):
        def fail(self, exc=exc):
            raise exc
        monkeypatch.setattr(Solver, "run", fail)
        assert main(["color", str(cube_file)]) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_oracle_colors_large_grid(tmp_path, capsys):
    # one explicit stack: 1600 vertices is far past the recursion limit
    path = tmp_path / "grid40.graph"
    assert main(["gen", "--kind", "grid", "--size", "1600",
                 "--out", str(path)]) == 0
    assert main(["oracle", "--cap", "2000", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    coloring = parse_coloring(out.out)
    assert len(coloring) == 1600
    assert is_proper(SimpleGraph.from_plane_graph(parse(path.read_text())),
                     coloring)


def test_unlisted_vertex_exits_one(tmp_path, capsys):
    # the header claims three vertices and no line lists any of them
    path = tmp_path / "bare.graph"
    path.write_text("p 3 0\n")
    assert main(["color", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 0: vertex 0 has no 'v' line\n"


def test_id_not_plain_decimal_exits_one(tmp_path, capsys):
    path = tmp_path / "spelled.graph"
    path.write_text("p 2 1\nv 0 +1\nv 1 0\n")
    assert main(["color", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 2: id '+1' is not a plain decimal\n"


def test_usage_error_exit_code(cube_file):
    # color has no --validate: its one gate runs on every input
    for argv in (["color"], ["color", "--validate", str(cube_file)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "missing.graph",
    lambda tmp: tmp,
    lambda tmp: _write(tmp / "bad.graph", b"\xff\xfe 1 2\n"),
], ids=["missing", "directory", "undecodable"])
def test_unreadable_input_exit_one(tmp_path, cube_file, capsys, make):
    path = str(make(tmp_path))
    for argv in (["color", path], ["color", "--precolor", path, str(cube_file)],
                 ["check", str(cube_file), path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_empty_precolor_file_exits_one(tmp_path, cube_file, capsys):
    # an empty precoloring names no cycle; it is not a plain run
    pre = tmp_path / "empty.col"
    pre.write_text("")
    assert main(["color", "--precolor", str(pre), str(cube_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_precolor_unknown_vertex_message(tmp_path, cube_file, capsys):
    pre = tmp_path / "pre.col"
    pre.write_text("0 0\n1 1\n2 2\n999 0\n")
    assert main(["color", "--precolor", str(pre), str(cube_file)]) == 1
    assert capsys.readouterr().err == (
        "error: vertices [0, 1, 2, 999] do not bound a face of length 4 or 5\n")


def test_precolored_triangle_exits_one(tmp_path, capsys):
    # the library refuses a precolored 3-face too (tests/test_solver.py)
    graph = tmp_path / "c3.graph"
    graph.write_text(serialize(cycle_graph(3)))
    pre = tmp_path / "c3.col"
    pre.write_text("0 0\n1 1\n2 2\n")
    assert main(["color", "--precolor", str(pre), str(graph)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")
    assert out.err.count("\n") == 1, out.err


def test_oracle_cap_message(tmp_path, capsys):
    path = tmp_path / "c12.graph"
    path.write_text(serialize(cycle_graph(12)))
    assert main(["oracle", "--cap", "5", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: 12 vertices exceed the oracle's cap of 5\n")
