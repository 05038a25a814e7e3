"""The benchmark's traced run (perfbench/run.py) wraps program functions by the
module attribute their callers look up.  A refactor that renames or stops
calling through one of those attributes must fail here, not only in the
benchmark, where the layer's metrics would silently go missing or read 0."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Spans a build must open.
BUILD_SPANS = (
    "crystal.generate",
    "support.build_graph",
    "moves.forward_move",
    "moves.string_lengths",
    "moves.active_multinode",
    "moves.level_slacks",
    "weights.switch_node",
    "crystal.to_json",
)

# Spans an analyze must open.
ANALYZE_SPANS = (
    "structure.principal_lattice",
    "structure.skeleton",
    "structure.subcrystals",
    "structure.branching",
)


def test_benchmark_wraps_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from tracer import Tracer

    tracer = Tracer()
    run.wrap_program(tracer)
    try:
        assert tracer.missing == set()
    finally:
        tracer.unwrap()


def traced_calls(monkeypatch, argv, spans):
    """Per span name, how often one ``cli.main(argv)`` under the benchmark's
    wrappers opened it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from tracer import Tracer

    from ancrystal import cli

    tracer = Tracer()
    run.wrap_program(tracer)
    try:
        rc = cli.main(argv)
    finally:
        tracer.unwrap()
    assert rc == 0
    totals = tracer.totals()
    return {name: totals.get(name, (0,))[0] for name in spans}


def test_a_build_calls_every_traced_generation_layer(monkeypatch, tmp_path):
    argv = ["build", "--n", "3", "--c", "1,0,1", "--out", str(tmp_path / "K.json")]
    calls = traced_calls(monkeypatch, argv, BUILD_SPANS)
    assert all(count > 0 for count in calls.values()), calls


def test_an_analyze_calls_every_traced_structure_layer(monkeypatch, tmp_path):
    argv = ["analyze", "--n", "2", "--c", "2,3", "--out", str(tmp_path / "report.json")]
    calls = traced_calls(monkeypatch, argv, ANALYZE_SPANS)
    assert all(count > 0 for count in calls.values()), calls


def test_an_analyze_builds_no_subgraph(monkeypatch, tmp_path):
    # the skeleton's pieces are vertex sets: the report reads only their union
    argv = ["analyze", "--n", "2", "--c", "2,3", "--out", str(tmp_path / "report.json")]
    calls = traced_calls(monkeypatch, argv, ("crystal.subgraph", "crystal.measured_strings"))
    assert calls == {"crystal.subgraph": 0, "crystal.measured_strings": 0}


def test_a_build_after_an_unwrapped_main_still_opens_cli_build(monkeypatch):
    # the parser is built once per process: it must not bind the command
    # handler that the first call saw, or the wrapped one would go unused
    from ancrystal import cli

    argv = ["build", "--n", "2", "--c", "1,0"]
    assert cli.main(argv) == 0
    assert traced_calls(monkeypatch, argv, ("cli.build",)) == {"cli.build": 1}
