"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from clock import Clock  # noqa: E402
import workloads  # noqa: E402
from ancrystal import cli  # noqa: E402


def smoke_job(workload, tmp_path, seed=3):
    return workloads.make_job(workload, tmp_path, seed, smoke=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_timed_and_traced(workload, tmp_path):
    metrics, info, tally = run.timed_run(smoke_job(workload, tmp_path), seconds=0)
    assert tally.attempted > 0 and tally.failed == 0, tally.messages
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(v > 0 for v in metrics.values())

    metrics, info, tally = run.traced_run(smoke_job(workload, tmp_path), tmp_path / "spans.tsv.gz")
    assert tally.failed == 0, tally.messages
    assert set(metrics) == {m[0] for m in run.per_layer_spec()}
    assert info["absent_targets"] == []
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0
    if workload == "verify":
        assert metrics["axioms.mutants_detected_ratio"] == 1.0
        assert metrics["moves.level_slacks_calls"] == 0
    else:
        n_times_v = sum(n * count for (n, _), count in _expected(workload).items())
        assert metrics["moves.level_slacks_calls"] == 2 * n_times_v
        assert metrics["moves.forward_move_hits"] == metrics["crystal.edges"]
        assert metrics["axioms.verify_graph_s"] == 0


def _expected(workload):
    from ancrystal import count_bounded_patterns, sigma_bound

    return {(n, c): count_bounded_patterns(n, sigma_bound(c)) for n, c in workloads.SMOKE_CASES[workload]}


def test_wrong_golden_hash_is_a_failed_op(tmp_path):
    job = smoke_job("build", tmp_path)
    n, c = job.cases[0]
    key = workloads.case_key("build", n, c)
    job.goldens = dict(job.goldens)
    job.goldens[key] = dict(job.goldens[key], sha256="0" * 64)
    job.setup()
    tally = workloads.Tally()
    with Clock() as clock:
        job.run_pass(tally, clock)
    assert (tally.attempted, tally.failed) == (len(job.cases), 1)
    assert "golden hash" in tally.messages[0]


def test_unmutated_graph_counts_as_undetected(tmp_path):
    job = smoke_job("verify", tmp_path)
    job.setup()
    _, _, edges, _ = job._load(job.inputs["mutants"])
    job.mutants = [("unmutated", edges)]
    tally = workloads.Tally()
    with Clock() as clock:
        job.run_pass(tally, clock)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "passed every check" in tally.messages[0]


def test_mutants_are_seeded_and_single_edge():
    edges = ((0, 1, 1), (1, 2, 2), (2, 3, 1))
    vertices = (0, 1, 2, 3)
    a = workloads.make_mutants(edges, vertices, 2, 6, seed=7)
    assert a == workloads.make_mutants(edges, vertices, 2, 6, seed=7)
    assert [kind for kind, _ in a].count("delete") == 3
    adjacent = {(u, w) for u, w, _ in edges} | {(w, u) for u, w, _ in edges}
    for kind, mutant in a:
        if kind == "delete":
            assert len(mutant) == len(edges) - 1 and set(mutant) < set(edges)
        else:
            (u, w, _), = set(mutant) - set(edges)
            assert u != w and (u, w) not in adjacent


def test_self_time_arithmetic():
    # root [0, 10] with children a [1, 4] and b [3, 6], which overlap, and
    # c [8, 12], which runs past its parent; a has a child [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_reference_seconds_arithmetic():
    import clock

    c = clock.Clock()
    c._starts, c._ends, c.kernel_s = [0.0, 1.0, 2.0], [0.01, 1.02, 2.01], [0.01, 0.02, 0.01]
    # An op over [0.5, 1.5] has the probe at 1.0 inside it: two stretches of
    # 0.5 s and 0.48 s, each between a 10 ms and a 20 ms kernel run.
    scale = (2 * clock.REFERENCE_KERNEL_S / 0.03) ** clock.SENSITIVITY
    assert c._reference(0.5, 1.5) == pytest.approx((0.5 + 0.48) * scale)
    assert c._reference(1.5, 1.9) == pytest.approx(0.4 * scale)


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(cli, "branching_multiplicity")
    metrics, info, tally = run.traced_run(smoke_job("build", tmp_path), tmp_path / "s.tsv.gz")
    assert tally.failed == 0
    assert info["absent_targets"] == ["structure.branching"]
    assert "structure.branching_s" not in metrics
    assert "moves.level_slacks_s" in metrics


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.per_layer_spec()
    ]
