#!/usr/bin/env python3
"""Benchmark for ancrystal: build, verify and analyze workloads.

    python3 perfbench/run.py --workload {build,verify,analyze} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree; the program is imported from ``src/``.
Each call runs one workload, single-process and single-threaded.

``--trace 0`` is the timed run.  It sets the workload up several times and
reports the median as ``setup_s``, then repeats passes of the workload's fixed
operation list while the next pass still fits in ``--seconds``, and reports the
median pass throughput and the process's peak RSS.  Its times are reference
seconds (see clock.py): wall seconds rescaled by a fixed kernel's speed, so
that the host's speed swings cancel out.  Plain wall figures are printed too.

``--trace 1`` is the traced run.  After one plain pass it wraps the program's
functions at the names their callers look up, runs one traced pass, unwraps,
and measures ``crystal.bytes_per_vertex`` in a separate tracemalloc pass.  It
reports the per-layer metrics, whose times are wall seconds of spans, and
writes every span to ``.perfbench-out/``.

Every operation of every pass is checked against the output gates (golden
hashes, pattern counts, verdicts).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an output is wrong and 2 when the program or the stored data
cannot be loaded, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

from clock import Clock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("build", "verify", "analyze")
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S is spent, so
# that even a set-up of a few milliseconds gets a steady median.
SETUP_REPEATS = 7
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 500

END_TO_END = (
    ("setup_s", "s"),
    ("vertices_per_s", "1/s"),
    ("edges_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

AXIOM_CHECKS = (
    ("check_nonempty_connected", "connected"),
    ("check_A1", "A1"),
    ("check_graded", "graded"),
    ("check_no_parallel_edges", "no-parallel-edges"),
    ("check_A2", "A2"),
    ("check_A3", "A3"),
    ("check_A4", "A4"),
    ("check_A5", "A5"),
    ("check_equal_criticals", "equal-criticals"),
    ("check_unique_source_sink", "unique-source-sink"),
)
# Verdict names a mutant can fail first: every check, plus "structure" for a
# graph the verifier cannot even index.
FIRST_FAIL = tuple(name for _, name in AXIOM_CHECKS) + ("structure",)


def metric_name(verdict_name):
    return verdict_name.replace("-", "_")


def import_program():
    """Import ``ancrystal`` from this tree's ``src/`` and nowhere else; return
    an error message when that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import ancrystal
    except ImportError as exc:
        return f"cannot import ancrystal from {SRC}: {exc}"
    if Path(ancrystal.__file__).resolve().parent != SRC / "ancrystal":
        return f"ancrystal was imported from {ancrystal.__file__}, not from {SRC}"
    return None


def quantile(values, q):
    """The q-th percentile (1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


# -- timed run -------------------------------------------------------------------


def timed_run(job, seconds):
    from workloads import Tally

    tally = Tally()
    passes = []
    setup_wall = 0.0
    count = 0
    with Clock() as clock:
        while count < SETUP_MAX_REPEATS and (count < SETUP_REPEATS or setup_wall < SETUP_MIN_S):
            setup_wall += clock.time(job.setup)[1]
            count += 1
        setups = clock.reference_seconds()
        start = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(job.run_pass(tally, clock))
            took = perf_counter() - t0
            if perf_counter() - start + took > seconds:
                break
    metrics = {
        "setup_s": statistics.median(setups),
        "vertices_per_s": statistics.median(p.vertices / p.ref_s for p in passes),
        "edges_per_s": statistics.median(p.edges / p.ref_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "setups": len(setups),
        "setup_wall_s_total": setup_wall,
        "passes": len(passes),
        "pass_wall_s": [p.busy_s for p in passes],
        "pass_reference_s": [p.ref_s for p in passes],
        "kernel_ms_median": statistics.median(clock.kernel_s) * 1000,
        "wall_vertices_per_s": statistics.median(p.vertices / p.busy_s for p in passes),
        "wall_edges_per_s": statistics.median(p.edges / p.busy_s for p in passes),
    }
    info.update(detect_summary(passes))
    return metrics, info, tally


def detect_summary(passes):
    """Early-exit latency over every mutant of the given passes, and the clean
    pass's edge rate; empty for workloads without them."""
    detect = [s * 1000 for p in passes for s in p.detect_s]
    out = {}
    if len(detect) >= 2:
        out["detect_ms_p50"] = quantile(detect, 50)
        out["detect_ms_p90"] = quantile(detect, 90)
        out["detect_samples"] = len(detect)
    clean = [p.clean_edges / p.clean_s for p in passes if p.clean_s > 0]
    if clean:
        out["clean_edges_per_s"] = statistics.median(clean)
    return out


# -- traced run ------------------------------------------------------------------


def wrap_program(tracer):
    """Wrap the program's layer entry points at the names their callers use."""
    from ancrystal import axioms, cli, crystal, gt, moves, structure

    counters = tracer.counters

    def generated(K):
        counters["crystal.vertices"] += K.num_vertices
        counters["crystal.edges"] += K.num_edges
        counters["crystal.dedup_hits"] += K.num_edges - (K.num_vertices - 1)

    def moved(outcome):
        if outcome is not None:
            counters["moves.forward_move_hits"] += 1

    def pieces(skel):
        counters["structure.skeleton_pieces"] += len(skel.pieces)

    def records(recs):
        counters["structure.subcrystal_records"] += len(recs)

    targets = [
        (cli, "cmd_build", "cli.build", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        (cli, "cmd_verify", "cli.verify", None),
        (cli, "generate", "crystal.generate", generated),
        (crystal, "build_supporting_graph", "support.build_graph", None),
        (crystal, "principal_function", "weights.principal_function", None),
        (crystal, "forward_move", "moves.forward_move", moved),
        (crystal, "string_lengths", "moves.string_lengths", None),
        (moves, "active_multinode", "moves.active_multinode", None),
        (moves, "level_slacks", "moves.level_slacks", None),
        (moves, "switch_node", "weights.switch_node", None),
        (crystal.CrystalGraph, "to_json", "crystal.to_json", None),
        (crystal, "_measured_strings", "crystal.measured_strings", None),
        (structure, "subgraph", "crystal.subgraph", None),
        (cli, "principal_lattice", "structure.principal_lattice", None),
        (cli, "skeleton", "structure.skeleton", pieces),
        (cli, "subcrystals", "structure.subcrystals", records),
        (cli, "branching_multiplicity", "structure.branching", None),
        (axioms, "from_edge_list_text", "axioms.parse", None),
        (axioms, "verify_graph", "axioms.verify_graph", None),
        (gt, "count_bounded_patterns", "gt.count", None),
    ]
    targets += [
        (axioms, fn, f"axioms.check.{metric_name(name)}", None) for fn, name in AXIOM_CHECKS
    ]
    for owner, attribute, name, on_result in targets:
        tracer.wrap(owner, attribute, name, on_result)


def bytes_per_vertex(job):
    """Bytes ``generate`` keeps per vertex on the workload's largest case, from
    a tracemalloc pass run apart from the timing spans; 0 without generation."""
    from ancrystal import crystal

    cases = getattr(job, "cases", ())
    if not cases:
        return 0.0
    n, c = max(cases, key=lambda nc: job.expected[nc])
    # Collecting first and last makes the figure the memory K keeps alive,
    # independent of when the collector happened to run.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = crystal.generate(n, c)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / K.num_vertices


def per_layer_spec():
    """(metric, unit, better, span names it needs, how to compute it)."""
    s = lambda span: (lambda t, x: t.total(span))  # noqa: E731
    calls = lambda span: (lambda t, x: t.calls(span))  # noqa: E731
    count = lambda key: (lambda t, x: t.counters.get(key, 0))  # noqa: E731
    spec = [
        ("moves.level_slacks_s", "s", "lower", ["moves.level_slacks"], s("moves.level_slacks")),
        ("moves.level_slacks_calls", "count", "lower", ["moves.level_slacks"], calls("moves.level_slacks")),
        ("moves.active_multinode_s", "s", "lower", ["moves.active_multinode"], s("moves.active_multinode")),
        ("moves.forward_move_s", "s", "lower", ["moves.forward_move"], s("moves.forward_move")),
        ("moves.forward_move_calls", "count", "lower", ["moves.forward_move"], calls("moves.forward_move")),
        ("moves.forward_move_hits", "count", "higher", ["moves.forward_move"], count("moves.forward_move_hits")),
        ("moves.forward_hit_ratio", "ratio", "higher", ["moves.forward_move"],
         lambda t, x: t.ratio(t.counters.get("moves.forward_move_hits", 0), t.calls("moves.forward_move"))),
        ("moves.string_lengths_s", "s", "lower", ["moves.string_lengths"], s("moves.string_lengths")),
        ("moves.string_lengths_calls", "count", "lower", ["moves.string_lengths"], calls("moves.string_lengths")),
        ("weights.switch_node_s", "s", "lower", ["weights.switch_node"], s("weights.switch_node")),
        ("weights.switch_node_calls", "count", "lower", ["weights.switch_node"], calls("weights.switch_node")),
        ("support.build_graph_s", "s", "lower", ["support.build_graph"], s("support.build_graph")),
        ("crystal.generate_s", "s", "lower", ["crystal.generate"], s("crystal.generate")),
        ("crystal.closure_self_s", "s", "lower",
         ["crystal.generate", "moves.forward_move", "moves.string_lengths",
          "support.build_graph", "weights.principal_function"],
         lambda t, x: t.own("crystal.generate")),
        ("crystal.vertices", "count", "higher", ["crystal.generate"], count("crystal.vertices")),
        ("crystal.edges", "count", "higher", ["crystal.generate"], count("crystal.edges")),
        ("crystal.dedup_hits", "count", "lower", ["crystal.generate"], count("crystal.dedup_hits")),
        ("crystal.bytes_per_vertex", "B", "lower", [], lambda t, x: x["bytes_per_vertex"]),
        ("crystal.measured_strings_s", "s", "lower", ["crystal.measured_strings"], s("crystal.measured_strings")),
        ("crystal.subgraph_s", "s", "lower", ["crystal.subgraph"], s("crystal.subgraph")),
        ("crystal.subgraph_calls", "count", "lower", ["crystal.subgraph"], calls("crystal.subgraph")),
        ("structure.principal_lattice_s", "s", "lower", ["structure.principal_lattice"], s("structure.principal_lattice")),
        ("structure.skeleton_s", "s", "lower", ["structure.skeleton"], s("structure.skeleton")),
        ("structure.skeleton_pieces", "count", "higher", ["structure.skeleton"], count("structure.skeleton_pieces")),
        ("structure.subcrystals_s", "s", "lower", ["structure.subcrystals"], s("structure.subcrystals")),
        ("structure.subcrystal_records", "count", "higher", ["structure.subcrystals"], count("structure.subcrystal_records")),
        ("structure.branching_s", "s", "lower", ["structure.branching"], s("structure.branching")),
        ("crystal.to_json_s", "s", "lower", ["crystal.to_json"], s("crystal.to_json")),
        ("cli.self_s", "s", "lower",
         ["cli.build", "cli.analyze", "cli.verify", "crystal.generate", "crystal.to_json",
          "structure.principal_lattice", "structure.skeleton", "structure.subcrystals",
          "structure.branching", "axioms.parse", "axioms.verify_graph"],
         lambda t, x: t.own("cli.build") + t.own("cli.analyze") + t.own("cli.verify")),
        ("cli.output_bytes", "B", "lower", [], count("cli.output_bytes")),
        ("axioms.parse_s", "s", "lower", ["axioms.parse"], s("axioms.parse")),
        ("axioms.verify_graph_s", "s", "lower", ["axioms.verify_graph"], s("axioms.verify_graph")),
    ]
    spec += [
        (f"axioms.check.{metric_name(name)}_s", "s", "lower", [f"axioms.check.{metric_name(name)}"],
         s(f"axioms.check.{metric_name(name)}"))
        for _, name in AXIOM_CHECKS
    ]
    spec += [
        ("axioms.digraph_build_s", "s", "lower", [], s("axioms.digraph_build")),
        ("axioms.checks_run", "count", "lower", ["axioms.verify_graph"], count("axioms.checks_run")),
    ]
    spec += [
        (f"axioms.first_fail.{metric_name(name)}", "count", "higher", ["axioms.verify_graph"],
         count(f"axioms.first_fail.{name}"))
        for name in FIRST_FAIL
    ]
    spec += [
        ("axioms.mutants_detected_ratio", "ratio", "higher", [],
         lambda t, x: t.ratio(t.counters.get("axioms.mutants_detected", 0), t.counters.get("axioms.mutants", 0))),
        ("axioms.detect_ms_p50", "ms", "lower", [], lambda t, x: x.get("detect_ms_p50", 0.0)),
        ("axioms.detect_ms_p90", "ms", "lower", [], lambda t, x: x.get("detect_ms_p90", 0.0)),
        ("axioms.detect_samples", "count", "higher", [], lambda t, x: x.get("detect_samples", 0)),
        ("axioms.clean_edges_per_s", "1/s", "higher", [], lambda t, x: x.get("clean_edges_per_s", 0.0)),
        ("gt.count_s", "s", "lower", ["gt.count"], s("gt.count")),
        ("trace.overhead_ratio", "ratio", "lower", [], lambda t, x: x["overhead_ratio"]),
        ("bench.error_rate", "ratio", "lower", [], lambda t, x: x["error_rate"]),
    ]
    return spec


class SpanTotals:
    """Per-name call counts, inclusive and self seconds of a tracer's spans."""

    def __init__(self, tracer):
        self.by_name = tracer.totals()
        self.counters = tracer.counters

    def calls(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[1]

    def own(self, name):
        return self.by_name.get(name, (0, 0.0, 0.0))[2]

    @staticmethod
    def ratio(part, whole):
        return part / whole if whole else 0.0


def traced_run(job, spans_path):
    from workloads import Tally

    tracer = Tracer()
    tally = Tally()
    wrap_program(tracer)
    try:
        job.setup()
    finally:
        tracer.unwrap()
    with Clock() as clock:
        plain = job.run_pass(tally, clock)
        wrap_program(tracer)
        try:
            traced = job.run_pass(tally, clock, tracer)
        finally:
            tracer.unwrap()
    extra = {
        "bytes_per_vertex": bytes_per_vertex(job),
        "overhead_ratio": traced.ref_s / plain.ref_s,
        "error_rate": tally.failed / tally.attempted,
    }
    extra.update(detect_summary([plain]))
    totals = SpanTotals(tracer)
    metrics = {}
    for name, _, _, deps, fn in per_layer_spec():
        if not tracer.missing.intersection(deps):
            metrics[name] = fn(totals, extra)
    tracer.write(spans_path)
    info = {"spans": len(tracer.names), "absent_targets": sorted(tracer.missing)}
    return metrics, info, tally


# -- reporting -------------------------------------------------------------------


def environment():
    from workloads import git_commit, sha256

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    sources = b"".join(p.read_bytes() for p in sorted((SRC / "ancrystal").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "src_sha256": sha256(sources),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        try:
            job = workloads.make_job(args.workload, tmp, args.seed)
            if args.trace:
                metrics, info, tally = traced_run(job, OUT / f"spans-{tag}.tsv.gz")
            else:
                metrics, info, tally = timed_run(job, args.seconds)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    units = dict(END_TO_END) if not args.trace else {m[0]: m[1] for m in per_layer_spec()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = environment()
    for key, value in env.items():
        print(f"# {key}: {value}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# error_rate: {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} ops)")
    for message in tally.messages:
        print(f"# FAILED {message}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']} {m['unit']}")
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "info": info, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
