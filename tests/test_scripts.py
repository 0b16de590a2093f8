import importlib.util
from pathlib import Path

from tricolor.embedding import validate
from tricolor.graphio import parse
from tricolor.oracle import SimpleGraph, is_triangle_free

MAKE_CORPUS = Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"


def test_make_corpus_writes_valid_instances(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    monkeypatch.setattr("sys.argv", ["make_corpus.py", str(tmp_path), "--seeds", "1"])
    assert make_corpus.main() == 0
    paths = sorted(tmp_path.glob("*.graph"))
    # 7 named graphs plus 3 kinds x 2 sizes x 1 seed
    assert len(paths) == 13
    assert f"wrote 13 instances to {tmp_path}" in capsys.readouterr().out
    for path in paths:
        g = parse(path.read_text())
        validate(g)
        assert is_triangle_free(SimpleGraph.from_plane_graph(g)), path.name
