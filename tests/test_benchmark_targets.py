"""The benchmark's traced run (perfbench/run.py) wraps program functions by the
module attribute their callers look up.  A refactor that renames or stops
calling through one of those attributes must fail here, not only in the
benchmark, where the layer's metrics would silently go missing."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
