#!/usr/bin/env python3
"""tricolor benchmark: graph text to coloring text, end to end and per layer.

    python3 bench/run.py --workload grid|augmented|gadgets --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process, one client, closed loop: an instance is colored only after
the previous one is done, cycling over the workload's instances in full
passes until ``--seconds`` have passed.  Every coloring is checked
against a reference graph after the clock stops.  The end-to-end times
are scaled to a fixed reference speed measured throughout the run (see
``REF_S``); the wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced coloring of every instance, reports per-layer
metrics from the spans (see ``spans.py``), the tracing overhead, the
solve-loop baseline table and a doubling row (solve time and ``work`` at
n vs 2n), and writes the spans of its first pass over the instances to
``.bench_out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is timed this many times before the coloring loop and as many
# after it, so that its median spans the run rather than one moment
SETUP_REPEATS = 3
DOUBLING_REPEATS = 5
KINDS = ("monogram", "tetragram", "octagram", "decagram", "pentagram", "hexagram")
# The end-to-end times are scaled by REF_S / (median time of the
# reference loop below over the run): seconds at the speed where the loop
# takes REF_S.  The loop runs just before and just after each timed
# interval.  On a shared host the machine's speed drifts by up to 1.6x
# over minutes; on a 2-vCPU VM of a shared Xeon host this scaling cut
# the spread of 30 s medians of one instance from 29% to 4.5%.  The wall
# seconds are printed with them.
REF_S = 0.025


def _reference_s() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 1023] = acc
        acc += i * i % 7
    return perf_counter() - t0


@dataclass(slots=True)
class Sample:
    """One coloring of one instance; ``stats`` is None if it raised."""

    instance: int
    total_ns: int = 0
    solve_ns: int = 0
    stats: Any = None
    ok: bool = False


class Run:
    """Samples of one run plus its correctness verdict."""

    def __init__(self, pipeline, insts, floor) -> None:
        self.pipeline = pipeline
        self.insts = insts
        self.floor = floor
        self.samples: list[Sample] = []
        self.refs: list[float] = []     # reference loop times, see REF_S
        self.correct = True

    def color(self, i: int, call=None) -> Sample:
        """Color instance i (through ``call`` when tracing) and check it."""
        inst = self.insts[i]
        gc.collect()
        self.refs.append(_reference_s())
        try:
            if call is None:
                out, stats, total, solve = self.pipeline.color(inst.text)
            else:
                out, stats, total, solve = call(self.pipeline.color, inst.text)
        except Exception:
            if all(s.ok for s in self.samples):
                traceback.print_exc(file=sys.stderr)
            sample = Sample(i)
        else:
            sample = Sample(i, total, solve, stats,
                            self.pipeline.is_correct(inst.reference, out))
            if not sample.ok:
                print(f"bench: improper coloring of instance {i}", file=sys.stderr)
                self.correct = False
            for kind, floor in self.floor.items():
                if stats.reductions[kind] < floor:
                    print(f"bench: instance {i} fired {stats.reductions[kind]} "
                          f"{kind}s, below the floor of {floor}", file=sys.stderr)
                    self.correct = False
        self.refs.append(_reference_s())
        self.samples.append(sample)
        return sample

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")


def _timing_summary(label: str, values_s: list[float]) -> None:
    """Median, and the highest percentile with >= 10 samples beyond it."""
    n = len(values_s)
    line = f"{label}: median {statistics.median(values_s):.6f} s, n={n}"
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values_s, n=1000, method="inclusive")
            line += f", p{p:g} {q[round(p * 10) - 1]:.6f} s"
            break
    print(line)


def _color_s(samples: list[Sample]) -> float:
    """Mean over the instances of each instance's median wall seconds, so
    that a workload of unlike instances does not jump between them."""
    by_instance: dict[int, list[int]] = {}
    for s in samples:
        by_instance.setdefault(s.instance, []).append(s.total_ns)
    return statistics.fmean(statistics.median(v) for v in by_instance.values()) / 1e9


def _setup_once(workload, seed, prepare, refs: list[float]):
    """The instances and the set-up's wall seconds; appends reference
    loop times from before and after to ``refs``."""
    gc.collect()
    refs.append(_reference_s())
    t0 = perf_counter()
    insts = prepare(workload.graphs(seed))
    wall = perf_counter() - t0
    refs.append(_reference_s())
    return insts, wall


def _warm_up(workload, prepare, pipeline) -> None:
    """Color a small graph of the family once, untimed; a failure here is
    reported and shows again, counted, in the timed loop."""
    Run(pipeline, prepare([workload.warmup()]), {}).color(0)


def _untraced(workload, seed, seconds, mods) -> tuple[Run, dict]:
    prepare, pipeline = mods.prepare, mods.pipeline
    setup_times = []
    refs: list[float] = []
    for _ in range(SETUP_REPEATS):
        insts = None                    # free the previous set first
        insts, t = _setup_once(workload, seed, prepare, refs)
        setup_times.append(t)
    _warm_up(workload, prepare, pipeline)
    run = Run(pipeline, insts, workload.kind_floor)
    deadline = perf_counter() + seconds
    while True:
        for i in range(len(insts)):
            run.color(i)
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPEATS):
        setup_times.append(_setup_once(workload, seed, prepare, refs)[1])
    refs += run.refs
    done = [s for s in run.samples if s.ok]
    kinds = {k: sum(s.stats.reductions[k] for s in done) for k in KINDS}
    print(f"workload {workload.name}: {len(insts)} instance(s), "
          f"{sum(x.vertices for x in insts)} vertices; "
          f"{len(run.samples)} colorings, {run.failed} failed")
    print("reductions: " + " ".join(f"{k}={kinds[k]}" for k in KINDS))
    ref_s = statistics.median(refs)
    scale = REF_S / ref_s
    print(f"reference loop: median {ref_s:.6f} s over {len(refs)} measurements; "
          f"the metrics' times are wall times x {scale:.4f}")
    if done:
        _timing_summary("color_s, wall", [s.total_ns / 1e9 for s in done])
        print(f"color_s, wall, mean of per-instance medians: {_color_s(done):.6f} s")
    print(f"setup_s, wall: median {statistics.median(setup_times):.6f} s")
    verts = sum(insts[s.instance].vertices for s in done)
    total_s = sum(s.total_ns for s in done) / 1e9
    work = sum(s.stats.work for s in done)
    attempted = len(run.samples)
    metrics = {
        "color_s": _metric(_color_s(done) * scale if done else 0.0, "s"),
        "vertices_per_s": _metric(verts / (total_s * scale) if done else 0.0,
                                  "vertex/s"),
        "work_per_vertex": _metric(work / verts if done else 0.0, "work/vertex"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setup_times) * scale, "s"),
        "ok_frac": _metric(1 - run.failed / attempted, "frac"),
    }
    print(f"failed_frac {run.failed / attempted:.6g}")
    return run, metrics


def _doubling(workload, seed, mods) -> tuple[float, float, Run]:
    """Solve-time and work ratios at n vs 2n (untraced, medians of
    DOUBLING_REPEATS alternating colorings), 0 if a coloring failed."""
    small, big = mods.prepare(list(workload.doubling(seed)))
    run = Run(mods.pipeline, [small, big], {})
    for _ in range(DOUBLING_REPEATS):
        run.color(0)
        run.color(1)
    if run.failed:
        return 0.0, 0.0, run
    solve = [statistics.median(s.solve_ns for s in run.samples if s.instance == i)
             for i in (0, 1)]
    work = [run.samples[i].stats.work for i in (0, 1)]
    n = [small.vertices, big.vertices]
    print(f"doubling: n={n[0]} -> {n[1]} (x{n[1] / n[0]:.3f}): "
          f"solve {solve[0] / n[0] / 1e3:.2f} -> {solve[1] / n[1] / 1e3:.2f} us/vertex, "
          f"work {work[0] / n[0]:.1f} -> {work[1] / n[1]:.1f} per vertex; "
          f"time x{solve[1] / solve[0]:.3f}, work x{work[1] / work[0]:.3f}")
    return solve[1] / solve[0], work[1] / work[0], run


def _traced(workload, seed, seconds, mods) -> tuple[Run, dict]:
    insts, setup_s = _setup_once(workload, seed, mods.prepare, [])
    print(f"set-up {setup_s:.3f} s (traced runs do not report it)")
    _warm_up(workload, mods.prepare, mods.pipeline)
    tracer = mods.spans.Tracer()
    untraced = Run(mods.pipeline, insts, workload.kind_floor)
    traced = Run(mods.pipeline, insts, workload.kind_floor)
    deadline = perf_counter() + seconds
    first_pass = True
    while True:
        for i in range(len(insts)):
            untraced.color(i)
            tracer.instance = len(traced.samples)
            tracer.install()
            try:
                traced.color(i, tracer.pipeline)
            finally:
                tracer.uninstall()
            tracer.fold(keep=first_pass)
        first_pass = False
        if perf_counter() >= deadline:
            break
    time_ratio, work_ratio, doubling = _doubling(workload, seed, mods)
    tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}.tsv")
    metrics = _layer_metrics(tracer.totals, mods.spans, insts, untraced, traced)
    metrics["solver.doubling_time_ratio"] = _metric(time_ratio, "ratio")
    metrics["solver.doubling_work_ratio"] = _metric(work_ratio, "ratio")
    _print_layers(workload.name, tracer.totals, mods.spans.ROOT, untraced, traced,
                  metrics)
    for other in (traced, doubling):
        untraced.samples += other.samples
        untraced.correct &= other.correct
    return untraced, metrics


def _layer_metrics(tot, spans, insts, untraced: Run, traced: Run) -> dict:
    """Per-layer metrics, per traced coloring unless stated otherwise."""
    nt = len(traced.samples)
    empty = spans.LayerTotal()

    def layer(name):
        return tot.get(name, empty)

    ok_t = [s for s in traced.samples if s.ok]
    ok_u = [s for s in untraced.samples if s.ok]
    verts = sum(insts[s.instance].vertices for s in ok_t)
    stats = [s.stats for s in ok_t]
    pops = sum(s.pops for s in stats)
    insertions = sum(s.insertions for s in stats)
    initial = sum(insts[s.instance].initial_queue for s in ok_t)
    close_set = layer("solver.close_set")
    returned = close_set.notes           # returned size -> calls
    returned_total = sum(size * k for size, k in returned.items())
    find = layer("multigram.find")
    run_ns = layer("solver.run").total_ns
    untraced_ns = sum(s.total_ns for s in ok_u)
    untraced_solve_ns = sum(s.solve_ns for s in ok_u)
    traced_ns = layer(spans.ROOT).total_ns

    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("graphio.parse_rotations", "graphio.format_coloring",
                 "embedding.build", "embedding.validate", "oracle.triangle_check",
                 "solver.close_set", "embedding.edge_vicinity", "multigram.find",
                 "reducer.reduce", "reducer.event_endpoints", "reducer.unwind",
                 "embedding.surgery"):
        put(name + "_s", layer(name).self_ns / nt / 1e9, "s")
    put("solver.close_set_calls", close_set.calls / nt, "count")
    put("solver.close_set_work", close_set.self_work / nt, "work")
    put("solver.close_set_returned_mean", ratio(returned_total, close_set.calls),
        "vertex")
    put("solver.close_set_returned_max", max(returned, default=0), "vertex")
    # insertions after the initial queue, per vertex close_set returned
    put("solver.reinsert_yield", ratio(insertions - initial, returned_total), "ratio")
    put("embedding.edge_vicinity_calls", layer("embedding.edge_vicinity").calls / nt,
        "count")
    put("multigram.find_calls", find.calls / nt, "count")
    put("multigram.find_hit_ratio", ratio(find.notes["hit"], find.calls), "ratio")
    put("multigram.find_work", find.self_work / nt, "work")
    put("embedding.surgery_calls", layer("embedding.surgery").calls / nt, "count")
    for kind in KINDS:
        put("reducer." + kind, sum(s.reductions[kind] for s in stats) / nt, "count")
    big = sum(k for note, k in layer("reducer.reduce").notes.items()
              if note.endswith("_big"))
    put("reducer.big_absorb", big / nt, "count")
    put("solver.run_s", run_ns / nt / 1e9, "s")
    put("solver.self_s", layer("solver.run").self_ns / nt / 1e9, "s")
    put("solver.pops", pops / nt, "count")
    put("solver.failed_pops",
        (pops - sum(sum(s.reductions.values()) for s in stats)) / nt, "count")
    put("solver.insertions", insertions / nt, "count")
    # the ROADMAP baseline table; solve times from the untraced colorings
    put("solver.solve_share", ratio(untraced_solve_ns, untraced_ns), "ratio")
    put("solver.close_set_share", ratio(close_set.self_ns, run_ns), "ratio")
    put("solver.us_per_vertex", ratio(untraced_solve_ns / 1e3,
                                      sum(insts[s.instance].vertices for s in ok_u)),
        "us/vertex")
    put("solver.work_per_vertex", ratio(sum(s.work for s in stats), verts),
        "work/vertex")
    put("solver.insertions_per_vertex", ratio(insertions, verts), "1/vertex")
    put("bench.untraced_color_s", ratio(untraced_ns, len(ok_u)) / 1e9, "s")
    put("bench.traced_color_s", traced_ns / nt / 1e9, "s")
    put("bench.trace_overhead",
        ratio(traced_ns * len(ok_u), untraced_ns * nt) - 1 if untraced_ns else 0.0,
        "ratio")
    put("bench.glue_s", layer(spans.ROOT).self_ns / nt / 1e9, "s")
    return metrics


def _print_layers(name, tot, root, untraced: Run, traced: Run, metrics) -> None:
    nt = len(traced.samples)
    traced_ns = tot[root].total_ns
    print(f"workload {name}: {len(untraced.samples)} untraced and {nt} traced "
          "colorings")
    print("layer self time per traced coloring (share of traced color_s):")
    for layer, t in sorted(tot.items(), key=lambda kv: -kv[1].self_ns):
        print(f"  {layer:26s} {t.self_ns / nt / 1e9:10.6f} s "
              f"{t.self_ns / traced_ns:7.1%}  calls {t.calls / nt:12.1f}  "
              f"work {t.self_work / nt:12.1f}")
    m = {k: v["value"] for k, v in metrics.items()}
    glue = m["bench.glue_s"]
    traced_s = m["bench.traced_color_s"]
    untraced_s = m["bench.untraced_color_s"]
    print(f"layer self times {traced_s - glue:.6f} s + glue {glue:.6f} s = traced "
          f"color_s {traced_s:.6f} s; untraced color_s {untraced_s:.6f} s; "
          f"tracing overhead {traced_s - untraced_s:.6f} s "
          f"({m['bench.trace_overhead']:.1%})")
    print("baseline: solve share {:.1%}, close_set share of solve {:.1%}, "
          "{:.1f} us and {:.1f} work per vertex, {:.3f} insertions per vertex, "
          "close_set returns {:.1f} mean / {:.0f} max".format(
              m["solver.solve_share"], m["solver.close_set_share"],
              m["solver.us_per_vertex"], m["solver.work_per_vertex"],
              m["solver.insertions_per_vertex"],
              m["solver.close_set_returned_mean"],
              m["solver.close_set_returned_max"]))


class _Modules:
    """The benchmark's own modules, imported once ``src`` is on the path."""

    def __init__(self) -> None:
        import pipeline
        import spans
        import workloads
        self.pipeline = pipeline
        self.spans = spans
        self.prepare = workloads.prepare
        self.workloads = workloads.WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tricolor" / "__init__.py").is_file():
        print(f"bench: no tricolor package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mods = _Modules()
    workload = mods.workloads.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(mods.workloads)}", file=sys.stderr)
        return 2
    measure = _traced if args.trace else _untraced
    run, metrics = measure(workload, args.seed, args.seconds, mods)
    _print_metrics(metrics)
    print(json.dumps({"correct": run.correct and run.failed < len(run.samples),
                      "attempted": len(run.samples), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
