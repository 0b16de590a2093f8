import importlib.util
import subprocess
import sys
from pathlib import Path

from tricolor.embedding import validate
from tricolor.generators import grid
from tricolor.graphio import parse, serialize
from tricolor.oracle import SimpleGraph, is_triangle_free

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_corpus_writes_valid_instances(tmp_path, monkeypatch, capsys):
    make_corpus = _load("make_corpus")
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


def test_make_corpus_runs_isolated(tmp_path):
    # -I ignores PYTHONPATH: the script finds the library in its checkout
    done = subprocess.run(
        [sys.executable, "-I", str(SCRIPTS / "make_corpus.py"), str(tmp_path),
         "--seeds", "1"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.graph"))) == 13


def test_stage_peaks_augmented(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "bench"))
    import workloads

    stage_peaks = _load("stage_peaks").stage_peaks
    for g in workloads.WORKLOADS["augmented"].graphs(1):
        peaks = stage_peaks(serialize(g))
        assert list(peaks) == ["parse", "build", "triangle_check", "solve",
                               "format"]
        assert all(mb > 0 for mb in peaks.values()), peaks
        # formatting in one join pays only while build sets the peak
        assert peaks["format"] < peaks["build"], peaks


def test_stage_peaks_grid_format_below_build():
    peaks = _load("stage_peaks").stage_peaks(serialize(grid(100)))
    assert peaks["format"] < peaks["build"], peaks


def test_fingerprint_gadgets(capsys):
    # each gadget union fires its fixed reduction counts (see
    # bench/workloads.GADGET_UNION_KINDS) whatever the shuffle seed
    assert _load("fingerprint").main(["--seed", "1", "--workload", "gadgets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["gadgets", "0"], ["gadgets", "1"], ["gadgets", "2"]]
    for line in lines:
        assert ("monogram=4193 tetragram=602 octagram=30 decagram=200 "
                "pentagram=100 hexagram=300") in line, line
        fields = dict(f.split("=") for f in line.split()[2:])
        assert set(fields) >= {"in", "work", "pops", "insertions", "out"}
