import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ancrystal import (
    LOWER,
    UPPER,
    branching_multiplicity,
    build_supporting_graph,
    generate,
    principal_function,
    principal_lattice,
    skeleton,
    subcrystals,
    to_gt,
    zero_bounds,
)
from ancrystal import axioms, cli, crystal
from ancrystal.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, EXIT_VERDICT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_summary_line(capsys, tmp_path):
    out = tmp_path / "k.json"
    code, stdout, _ = run(
        capsys, "build", "--n", "2", "--c", "1,2", "--out", str(out)
    )
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "vertices=15 edges=18 length=6 principal=6"
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 15 and len(data["edges"]) == 18


def refuse(*args, **kwargs):
    raise AssertionError("rendered output that no --out asked for")


@pytest.mark.parametrize(
    "argv, renderer, stub, summary",
    [
        (["build", "--n", "2", "--c", "1,2"], "json_chunks", refuse,
         "vertices=15 edges=18 length=6 principal=6"),
        (["analyze", "--n", "3", "--c", "1,1,1"], "json_chunks", refuse,
         "principal=8 skeleton=40 upper=8 lower=8"),
    ],
    ids=["build", "analyze"],
)
def test_without_out_only_the_summary_is_made(capsys, monkeypatch, argv, renderer, stub, summary):
    monkeypatch.setattr(cli, renderer, stub)
    code, stdout, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert stdout == summary + "\n"


def test_build_dot_output(capsys, tmp_path):
    out = tmp_path / "k.dot"
    code, _, _ = run(
        capsys, "build", "--n", "2", "--c", "1,1", "--format", "dot", "--out", str(out)
    )
    assert code == EXIT_OK
    assert out.read_text().startswith("digraph crystal {")


def build_args(n, c, d):
    return ["build", "--n", str(n), "--c", ",".join(map(str, c)), "--d=" + ",".join(map(str, d))]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("n,c,d", [(1, (0,), (0,)), (2, (1, 2), (0, 0)), (3, (1, 2, 1), (-1, 0, -1))])
def test_build_out_across_chunk_boundaries(capsys, tmp_path, monkeypatch, chunk, n, c, d):
    K = generate(n, c, d)
    expected = {"json": json.dumps(K.to_json(), indent=2) + "\n", "dot": K.to_dot()}
    monkeypatch.setattr(crystal, "JSON_CHUNK", chunk)
    for fmt, text in expected.items():
        out = tmp_path / f"K.{fmt}"
        assert run(capsys, *build_args(n, c, d), "--format", fmt, "--out", str(out))[0] == EXIT_OK
        assert out.read_text() == text


class RecordingFile(io.TextIOWrapper):
    """A text file that records the length of every string written to it."""

    def __init__(self, path, sizes):
        super().__init__(open(path, "wb"))
        self.sizes = sizes

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_build_out_is_written_a_chunk_at_a_time(capsys, tmp_path, monkeypatch, fmt):
    sizes = []
    monkeypatch.setattr(cli, "open", lambda path, mode: RecordingFile(path, sizes), raising=False)
    monkeypatch.setattr(crystal, "JSON_CHUNK", 64)
    out = tmp_path / f"K.{fmt}"
    argv = build_args(4, (1, 1, 1, 1), (0, 0, 0, 0)) + ["--format", fmt, "--out", str(out)]
    assert run(capsys, *argv)[0] == EXIT_OK
    # 1 024 vertices: no single write holds more than an eighth of the text
    total = len(out.read_text())
    assert sum(sizes) == total
    assert max(sizes) <= total / 8, (max(sizes), total)


def test_build_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--n", "3", "--c", "1,1,1", "--out", str(a))
    run(capsys, "build", "--n", "3", "--c", "1,1,1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "build", "--n", "2", "--c", "1,2,3")
    assert code == EXIT_USAGE and "error:" in err
    # argparse rejects a non-integer entry itself
    with pytest.raises(SystemExit) as e:
        main(["build", "--n", "2", "--c", "1,x"])
    assert e.value.code == EXIT_USAGE
    assert "expected a comma-separated integer list, got '1,x'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ","])
def test_an_empty_field_in_an_integer_list_is_refused(capsys, text):
    # "1,,2" and "1,2," once dropped the empty field and built K(2; 1,2)
    for flag, args in (("--c", ["--c", text]), ("--d", ["--c", "1,2", f"--d={text}"])):
        with pytest.raises(SystemExit) as e:
            main(["build", "--n", "2", *args])
        assert e.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a comma-separated integer list, got {text!r}" in err


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["build", "analyze"])
@pytest.mark.parametrize("where, error", [
    ("missing/k.json", "[Errno 2] No such file or directory"),
    ("", "[Errno 21] Is a directory"),
    ("k.json/k.json", "[Errno 20] Not a directory"),
    (None, "[Errno 2] No such file or directory"),
], ids=["missing-directory", "a-directory", "under-a-file", "empty"])
def test_an_unwritable_out_is_refused_before_generation(capsys, tmp_path, monkeypatch, command, where, error):
    (tmp_path / "k.json").write_text("kept")
    out = "" if where is None else str(tmp_path / where)

    def generate(*args):
        raise AssertionError("generated before --out was checked")

    monkeypatch.setattr(cli, "generate", generate)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, command, "--n", "2", "--c", "1,1", "--out", out)
    assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {error}: {out!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert (tmp_path / "k.json").read_text() == "kept"


def test_build_cap_exit_code(capsys):
    code, _, err = run(capsys, "build", "--n", "2", "--c", "1,2", "--cap", "5")
    assert code == EXIT_CAP and "error:" in err
    code, _, err = run(capsys, "build", "--n", "2", "--c", "1,2", "--cap", "0")
    assert code == EXIT_USAGE and "vertex cap must be positive" in err


def test_verify_generated_crystal_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "2", "--c", "1,2", "--strict-a4")
    assert code == EXIT_OK
    lines = stdout.splitlines()
    assert len(lines) == 10
    assert all(line.endswith(": pass") for line in lines)


def test_verify_round_trips_through_json_and_edge_list(capsys, tmp_path):
    K = generate(2, (1, 2))
    j = tmp_path / "k.json"
    j.write_text(json.dumps(K.to_json()))
    assert run(capsys, "verify", "--in", str(j))[0] == EXIT_OK
    e = tmp_path / "k.edges"
    e.write_text(K.to_edge_list_text())
    assert run(capsys, "verify", "--in", str(e))[0] == EXIT_OK


@pytest.mark.parametrize("c,d", [((1, 1, 1), (0, 0, 0)), ((2, 1, 2), (1, 0, 1))])
def test_verify_from_parameters_prints_what_verify_of_the_json_prints(capsys, tmp_path, c, d):
    j = tmp_path / "k.json"
    j.write_text(json.dumps(generate(3, c, d).to_json()))
    from_file = run(capsys, "verify", "--in", str(j), "--strict-a4")
    bounds = [",".join(map(str, xs)) for xs in (c, d)]
    direct = run(capsys, "verify", "--n", "3", "--c", bounds[0], "--d", bounds[1], "--strict-a4")
    assert direct == from_file and direct[0] == EXIT_OK


def test_verify_flags_a_mutated_graph(capsys, tmp_path):
    K = generate(2, (1, 2))
    lines = K.to_edge_list_text().splitlines()
    e = tmp_path / "broken.edges"
    e.write_text("\n".join(lines[1:]) + "\n")
    code, stdout, _ = run(capsys, "verify", "--in", str(e))
    assert code == EXIT_VERDICT
    assert any(": fail" in line for line in stdout.splitlines())


def test_verify_usage_errors(capsys, tmp_path):
    assert run(capsys, "verify")[0] == EXIT_USAGE
    missing = tmp_path / "nope.json"
    assert run(capsys, "verify", "--in", str(missing))[0] == EXIT_USAGE
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n")
    assert run(capsys, "verify", "--in", str(bad))[0] == EXIT_USAGE


@pytest.mark.parametrize("model", [["--n", "2", "--c", "1,1"], ["--n", "2"], ["--d", "0,0"]])
def test_verify_takes_either_in_or_the_model(capsys, tmp_path, model):
    # the file's verdicts, printed with --n/--c/--d ignored, would read as theirs
    e = tmp_path / "k.edges"
    e.write_text(generate(2, (1, 1)).to_edge_list_text())
    assert run(capsys, "verify", "--in", str(e), *model) == (
        EXIT_USAGE, "", "error: verify takes either --in or --n/--c, not both\n"
    )
    assert run(capsys, "verify", "--in", str(e), "--cap", "100")[0] == EXIT_OK


def test_verify_reports_skipped_checks_and_fails(capsys, tmp_path):
    e = tmp_path / "fork.edges"
    e.write_text("0 1 1\n0 2 1\n")
    code, stdout, _ = run(capsys, "verify", "--in", str(e))
    assert code == EXIT_VERDICT
    lines = stdout.splitlines()
    assert "A2: skipped (needs A1)" in lines
    assert not any(line.endswith(": pass") for line in lines[4:9])


@pytest.mark.parametrize(
    "text,a2,a5,criticals",
    [
        ("0 1 300\n", "fail: 300-edge (0, 1) has an invalid (t_299, h_299) change", "pass",
         "fail: vertex 0: critical for color 299 w.r.t. 300 but not conversely"),
        ("0 1 1\n1 2 3\n", "fail: 1-edge (0, 1) has an invalid (t_2, h_2) change",
         "fail: colors 1,3 do not commute at vertex 1",
         "fail: no critical vertex on the 1-line through 0"),
        # A2's distant colors, A5 and graded visit only the colors with an
        # edge; scans over every color pair took seconds here
        ("0 1 3000\n", "fail: 3000-edge (0, 1) has an invalid (t_2999, h_2999) change", "pass",
         "fail: vertex 0: critical for color 2999 w.r.t. 3000 but not conversely"),
    ],
    ids=["one-edge-of-color-300", "colors-1-and-3", "one-edge-of-color-3000"],
)
def test_verify_next_to_colors_without_edges(capsys, tmp_path, text, a2, a5, criticals):
    e = tmp_path / "sparse.edges"
    e.write_text(text)
    code, stdout, _ = run(capsys, "verify", "--in", str(e))
    assert code == EXIT_VERDICT
    assert stdout.splitlines() == [
        "connected: pass", "A1: pass", "graded: pass", "no-parallel-edges: pass",
        f"A2: {a2}", "A3: pass", "A4: pass", f"A5: {a5}", f"equal-criticals: {criticals}",
        "unique-source-sink: pass",
    ]


@pytest.mark.parametrize(
    "graph,message",
    [
        ({"n": 1, "vertices": [{"id": 0}, {"id": 0}, {"id": 1}],
          "edges": [{"from": 0, "to": 1, "color": 1}]}, "vertex 0 is listed twice"),
        ({"n": 0, "vertices": [{"id": 0}], "edges": []}, "got 0"),
        ({"n": -2, "vertices": [{"id": 0}], "edges": []}, "got -2"),
        # int() would have read these as vertex 0, color 1 and n = 2
        ({"n": 2, "vertices": [{"id": 0.9}, {"id": 1}], "edges": [{"from": 0, "to": 1, "color": 1}]},
         "id 0.9 is not an integer"),
        ({"n": 2, "vertices": [{"id": 0}, {"id": 1}], "edges": [{"from": 0, "to": 1, "color": 1.7}]},
         "color 1.7 is not an integer"),
        ({"n": 2, "vertices": [{"id": "0"}, {"id": 1}], "edges": [{"from": 0, "to": 1, "color": 1}]},
         "id '0' is not an integer"),
        ({"n": 2.7, "vertices": [{"id": 0}, {"id": 1}], "edges": [{"from": 0, "to": 1, "color": 1}]},
         "n 2.7 is not an integer"),
        ({"n": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [{"from": False, "to": 1, "color": 1}]},
         "from False is not an integer"),
    ],
)
def test_verify_rejects_an_invalid_crystal_json(capsys, tmp_path, graph, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(graph))
    code, stdout, err = run(capsys, "verify", "--in", str(f))
    assert code == EXIT_USAGE and stdout == ""
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


def path_edges(vertices):
    """The path 0 -> 1 -> ... of color 1 on the given number of vertices."""
    return "".join(f"{k} {k + 1} 1\n" for k in range(vertices - 1))


@pytest.mark.parametrize(
    "name,text",
    [
        ("path.edges", path_edges(401)),
        ("path.json", json.dumps({
            "n": 1, "vertices": [{"id": k} for k in range(401)],
            "edges": [{"from": k, "to": k + 1, "color": 1} for k in range(400)],
        })),
    ],
)
def test_verify_in_refuses_a_graph_above_the_cap(capsys, tmp_path, monkeypatch, name, text):
    f = tmp_path / name
    f.write_text(text)
    assert run(capsys, "verify", "--in", str(f), "--cap", "401")[0] == EXIT_OK
    # refused before the digraph and its tables are built
    monkeypatch.setattr(axioms, "ColoredDigraph", refuse)
    code, stdout, err = run(capsys, "verify", "--in", str(f), "--cap", "10")
    assert code == EXIT_CAP and stdout == ""
    assert err == "error: vertex cap 10 exceeded: the graph has 401 vertices\n"
    code, stdout, err = run(capsys, "verify", "--in", str(f), "--cap", "0")
    assert code == EXIT_USAGE and stdout == ""
    assert err == "error: vertex cap must be positive, got 0\n"


def test_the_verify_cap_counts_distinct_vertex_ids(capsys, tmp_path):
    # three records of two ids: under a cap of 2 the duplicate is what fails
    f = tmp_path / "twice.json"
    f.write_text(json.dumps({"n": 1, "vertices": [{"id": 0}, {"id": 0}, {"id": 1}],
                             "edges": [{"from": 0, "to": 1, "color": 1}]}))
    code, _, err = run(capsys, "verify", "--in", str(f), "--cap", "2")
    assert code == EXIT_USAGE and "vertex 0 is listed twice" in err
    code, _, err = run(capsys, "verify", "--in", str(f), "--cap", "1")
    assert code == EXIT_CAP and err == "error: vertex cap 1 exceeded: the graph has 2 vertices\n"
    # an edge list's ids are the ends of its edges, each counted once
    e = tmp_path / "path.edges"
    e.write_text(path_edges(3) + "2 0 2\n")
    assert run(capsys, "verify", "--in", str(e), "--cap", "2")[0] == EXIT_CAP
    assert run(capsys, "verify", "--in", str(e), "--cap", "3")[0] == EXIT_VERDICT


@pytest.mark.parametrize("command", [["verify"], ["gt", "--direction", "to-pattern"]])
def test_malformed_json_input_is_a_usage_error(capsys, tmp_path, command):
    bad = tmp_path / "x.json"
    bad.write_text("{bad")
    code, _, err = run(capsys, *command, "--in", str(bad))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "malformed JSON" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["verify"], ["gt", "--direction", "to-pattern"]])
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, command):
    bad = tmp_path / "x.json"
    bad.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, *command, "--in", str(bad))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "not UTF-8" in err
    assert len(err.splitlines()) == 1


def test_analyze_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "analyze", "--n", "3", "--c", "1,1,1", "--out", str(out)
    )
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "principal=8 skeleton=40 upper=8 lower=8"
    report = json.loads(out.read_text())
    assert report["principal_lattice_size"] == 8
    assert len(report["subcrystals"]) == 16
    assert {row["side"] for row in report["subcrystals"]} == {"upper", "lower"}
    total = sum(m["multiplicity"] for m in report["branching"])
    assert total == 8


def test_analyze_with_lower_bounds(capsys, tmp_path):
    """The report of K(c, d) is that of K(c - d) with anchors shifted by d."""
    shifted, plain = tmp_path / "shifted.json", tmp_path / "plain.json"
    code, stdout, _ = run(
        capsys, "analyze", "--n", "2", "--c", "2,2", "--d", "1,1", "--out", str(shifted)
    )
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "principal=4 skeleton=8 upper=4 lower=4"
    assert run(capsys, "analyze", "--n", "2", "--c", "1,1", "--out", str(plain))[0] == EXIT_OK
    a, b = json.loads(shifted.read_text()), json.loads(plain.read_text())
    assert (a["c"], a["d"]) == ([2, 2], [1, 1])
    for row in b["subcrystals"]:
        row["anchor"] = [x + 1 for x in row["anchor"]]
    for key in ("subcrystals", "branching", "principal_lattice_size", "skeleton_size"):
        assert a[key] == b[key]


def restated_report(n, c, d):
    """The analyze report as a dict, built from the structure API."""
    K = generate(n, c, d)
    records = subcrystals(K, UPPER) + subcrystals(K, LOWER)
    upper = {r.parameter for r in records if r.side == UPPER}
    return {
        "n": n,
        "c": list(c),
        "d": list(d),
        "principal_lattice_size": principal_lattice(K).size,
        "skeleton_size": len(skeleton(K).vertex_ids),
        "subcrystals": [
            {"side": r.side, "anchor": list(r.anchor), "parameter": list(r.parameter),
             "size": r.size, "principal_vertex": r.principal_vertex}
            for r in records
        ],
        "branching": [
            {"parameter": list(q), "multiplicity": branching_multiplicity(K.bounds.width, q)}
            for q in sorted(upper)
        ],
    }


def analyze_text(path, n, c, d):
    argv = ["analyze", "--n", str(n), "--c=" + ",".join(map(str, c)),
            "--d=" + ",".join(map(str, d)), "--out", str(path)]
    assert main(argv) == EXIT_OK
    return path.read_text()


# n = 1 (every parameter empty) to 3, lower bounds in [-2, 2], widths in [0, 2]
analyzed_bounds = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


@settings(max_examples=10, deadline=None)
@given(analyzed_bounds)
def test_the_analyze_report_is_the_indented_dump(tmp_path_factory, params):
    d, width = params
    n, c = len(d), tuple(map(sum, zip(d, width)))
    text = analyze_text(tmp_path_factory.mktemp("analyze") / "report.json", n, c, d)
    assert text == json.dumps(restated_report(n, c, d), indent=2) + "\n"


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("n,c,d", [(1, (3,), (0,)), (3, (1, 2, 1), (-1, 0, -1))])
def test_the_analyze_report_across_chunk_boundaries(capsys, tmp_path, monkeypatch, chunk, n, c, d):
    monkeypatch.setattr(crystal, "JSON_CHUNK", chunk)
    text = analyze_text(tmp_path / "report.json", n, c, d)
    assert text == json.dumps(restated_report(n, c, d), indent=2) + "\n"
    # the writer checks analyze records too: an extra anchor entry in the last
    report = json.loads(text)
    report["subcrystals"][-1]["anchor"].append(0)
    last = len(report["subcrystals"]) - 1
    with pytest.raises(ValueError, match=rf"subcrystals\[{last}\] has {n + 1} 'anchor' entries"):
        crystal.json_text(report)


def test_analyze_csv(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "analyze", "--n", "2", "--c", "1,2", "--format", "csv", "--out", str(out)
    )
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "side,anchor,parameter,size,principal_vertex"
    assert len(rows) == 1 + 6 + 6  # header, upper parts, lower parts


def test_gt_count(capsys):
    code, stdout, _ = run(capsys, "gt", "--count", "--n", "2", "--c", "1,2")
    assert code == EXIT_OK and stdout.strip() == "15"
    assert run(capsys, "gt", "--count")[0] == EXIT_USAGE
    assert run(capsys, "gt")[0] == EXIT_USAGE


def test_gt_count_writes_to_out(capsys, tmp_path, monkeypatch):
    out = str(tmp_path / "n.txt")
    code, stdout, err = run(capsys, "gt", "--count", "--n", "2", "--c", "1,1", "--out", out)
    assert (code, stdout, err) == (EXIT_OK, "", "")
    assert (tmp_path / "n.txt").read_text() == "8\n"

    def count(*args):
        raise AssertionError("counted before --out was checked")

    monkeypatch.setattr(cli, "count_bounded_patterns", count)
    out = str(tmp_path / "missing" / "n.txt")
    code, stdout, err = run(capsys, "gt", "--count", "--n", "2", "--c", "1,1", "--out", out)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"


GT_COUNT = ["--count", "--n", "2", "--c", "1,1"]
GT_TO_PATTERN = ["--direction", "to-pattern", "--in", "f.json"]


@pytest.mark.parametrize("argv, message", [
    (GT_COUNT + ["--in", "f.json"], "gt --count takes no --direction or --in"),
    (GT_COUNT + ["--direction", "to-pattern"], "gt --count takes no --direction or --in"),
    (GT_COUNT + ["--direction", "from-pattern", "--in", "f.json"], "gt --count takes no --direction or --in"),
    (GT_TO_PATTERN + ["--n", "5", "--c", "9,9"], "gt --direction to-pattern takes no --n or --c"),
    (GT_TO_PATTERN + ["--n", "2"], "gt --direction to-pattern takes no --n or --c"),
    (GT_TO_PATTERN + ["--c", "1,2"], "gt --direction to-pattern takes no --n or --c"),
], ids=["count-in", "count-direction", "count-from-pattern", "to-pattern-n-c", "to-pattern-n", "to-pattern-c"])
def test_gt_refuses_options_it_would_ignore(capsys, tmp_path, monkeypatch, argv, message):
    # refused before any work: f.json holds a valid function, and nothing is counted
    f = principal_function(build_supporting_graph(2), (1, 1), zero_bounds((1, 2)))
    (tmp_path / "f.json").write_text(json.dumps(f.to_json()))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "count_bounded_patterns", None)
    code, stdout, err = run(capsys, "gt", *argv)
    assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_gt_count_names_the_bad_bounds(capsys):
    code, stdout, err = run(capsys, "gt", "--count", "--n", "2", "--c", "1,-1")
    assert code == EXIT_USAGE and stdout == ""
    assert "(1, -1)" in err and "(0, 1)" not in err
    code, _, err = run(capsys, "gt", "--count", "--n", "3", "--c", "1,2")
    assert code == EXIT_USAGE and "(1, 2)" in err
    code, _, err = run(capsys, "gt", "--count", "--n", "0", "--c", "1")
    assert code == EXIT_USAGE and "--n 0" in err


def test_gt_count_above_the_cap_fails_before_enumerating(capsys):
    # about 1.06e12 patterns: days of enumeration, refused from the Weyl dimension
    code, stdout, err = run(capsys, "gt", "--count", "--n", "3", "--c", "100,100,100")
    assert code == EXIT_CAP and stdout == ""
    assert err == "error: vertex cap 2000000 exceeded: the crystal has 1061520150601 vertices\n"
    code, stdout, _ = run(capsys, "gt", "--count", "--n", "3", "--c", "8,8,8")
    assert code == EXIT_OK and stdout == "531441\n"


def test_negative_lower_bounds_are_given_with_an_equals_sign(capsys):
    code, stdout, _ = run(capsys, "build", "--n", "3", "--c", "1,2,1", "--d=-1,0,-1")
    assert code == EXIT_OK
    assert stdout == "vertices=729 edges=1512 length=20 principal=27\n"


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--seed", "1", "gt", "--count", "--n", "2", "--c", "1,2"])
    assert e.value.code == 2


@pytest.mark.parametrize("flag", [["--d", "1,0"], ["--cap", "1"]])
def test_gt_rejects_the_generation_flags(flag, capsys):
    # gt never generates, so --d and --cap would be silently ignored; argparse
    # now reads --d as an abbreviation of --direction, which rejects "1,0"
    with pytest.raises(SystemExit) as e:
        main(["gt", "--count", "--n", "2", "--c", "1,2"] + flag)
    assert e.value.code == 2


def test_gt_conversion_round_trip(capsys, tmp_path):
    g = build_supporting_graph(2)
    f = principal_function(g, (1, 1), zero_bounds((1, 2)))
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(f.to_json()))
    pat = tmp_path / "p.json"
    code, _, _ = run(
        capsys, "gt", "--direction", "to-pattern", "--in", str(fin), "--out", str(pat)
    )
    assert code == EXIT_OK
    assert json.loads(pat.read_text()) == to_gt(f).to_json()
    back = tmp_path / "f2.json"
    code, _, _ = run(
        capsys, "gt", "--direction", "from-pattern", "--n", "2", "--c", "1,2",
        "--in", str(pat), "--out", str(back),
    )
    assert code == EXIT_OK
    assert json.loads(back.read_text()) == f.to_json()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data["values"].pop(), "has no value for NodeRef(k=1, i=2, j=2)"),
        (lambda data: data["values"].append([1, 3, 3, 0]), "names NodeRef(k=1, i=3, j=3), which is not a node"),
        (lambda data: data["values"][0].__setitem__(3, 1.5),
         "gives NodeRef(k=1, i=1, j=1) the non-integer value 1.5"),
        # 1.0 and True equal the coordinates of real nodes
        (lambda data: data["values"][0].__setitem__(0, 1.0),
         "names NodeRef(k=1.0, i=1, j=1), which is not a node"),
        (lambda data: next(e for e in data["values"] if e[:3] == [2, 1, 1]).__setitem__(1, True),
         "names NodeRef(k=2, i=True, j=1), which is not a node"),
        (lambda data: data.__setitem__("c", [1.5, 2]), "gives c[0] the non-integer value 1.5"),
        (lambda data: data.__setitem__("d", [0, False]), "gives d[1] the non-integer value False"),
        (lambda data: data.__setitem__("c", "12"), "gives c[0] the non-integer value '1'"),
        (lambda data: data.__setitem__("n", 2.7), "number of colors must be a positive integer, got 2.7"),
        # c and d agree with each other but not with n: no node is out of bounds
        (lambda data: data.update(c=[1], d=[0]), "has bound tuples of length 1, expected n=2"),
    ],
)
def test_gt_rejects_a_malformed_weight_function(capsys, tmp_path, edit, message):
    g = build_supporting_graph(2)
    data = principal_function(g, (1, 1), zero_bounds((1, 2))).to_json()
    edit(data)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(data))
    code, _, err = run(capsys, "gt", "--direction", "to-pattern", "--in", str(fin))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


def test_gt_rejects_a_node_given_twice(capsys, tmp_path):
    # the repeat would silently replace the first value of NodeRef(k=1, i=1, j=1)
    g = build_supporting_graph(2)
    data = principal_function(g, (1, 1), zero_bounds((1, 2))).to_json()
    k, i, j, value = data["values"][0]
    data["values"].append([k, i, j, value + 1])
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(data))
    code, stdout, err = run(capsys, "gt", "--direction", "to-pattern", "--in", str(fin))
    assert code == EXIT_USAGE and stdout == ""
    assert err.startswith("error:") and "gives NodeRef(k=1, i=1, j=1) a value twice" in err
    assert len(err.splitlines()) == 1


def test_gt_checks_the_pattern_rows_before_building_the_graph(capsys, tmp_path, monkeypatch):
    def refuse_to_build(n):
        raise AssertionError(f"built the supporting graph for n={n}")

    monkeypatch.setattr(cli, "build_supporting_graph", refuse_to_build)
    pat = tmp_path / "p.json"
    pat.write_text("[[1], [1, 0]]")
    code, stdout, err = run(
        capsys, "gt", "--direction", "from-pattern", "--n", "50", "--c", "1",
        "--in", str(pat),
    )
    assert code == EXIT_USAGE and stdout == ""
    assert err == "error: pattern has 2 rows, expected n=50\n"


def test_gt_from_pattern_needs_n_and_c(capsys, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text("[[1], [1, 0]]")
    code, stdout, err = run(capsys, "gt", "--direction", "from-pattern", "--c", "1,0", "--in", str(pat))
    assert code == EXIT_USAGE and stdout == ""
    assert err == "error: gt --direction from-pattern needs --n and --c\n"


def test_gt_to_pattern_without_out_writes_to_stdout(capsys, tmp_path):
    f = principal_function(build_supporting_graph(2), (1, 1), zero_bounds((1, 2)))
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(f.to_json()))
    code, stdout, err = run(capsys, "gt", "--direction", "to-pattern", "--in", str(fin))
    assert code == EXIT_OK and err == ""
    assert stdout == json.dumps(to_gt(f).to_json(), indent=2) + "\n"


def test_gt_rejects_an_unbounded_pattern(capsys, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text("[[9], [9, 0]]")
    code, _, err = run(
        capsys, "gt", "--direction", "from-pattern", "--n", "2", "--c", "1,2",
        "--in", str(pat),
    )
    assert code == EXIT_VERDICT and "error:" in err


def test_gt_from_pattern_names_a_negative_bound(capsys, tmp_path):
    pat = tmp_path / "p.json"
    pat.write_text("[[1], [1, 0]]")
    code, stdout, err = run(
        capsys, "gt", "--direction", "from-pattern", "--n", "2", "--c", "1,-1",
        "--in", str(pat),
    )
    assert code == EXIT_USAGE and stdout == ""
    assert "c=(1, -1)" in err and "(0, 1)" not in err


@pytest.mark.parametrize("text, entry", [('[[1], [2, "x"]]', "'x'"), ("[[1], [2, 0.5]]", "0.5")])
def test_gt_rejects_a_non_integer_pattern_entry(capsys, tmp_path, text, entry):
    pat = tmp_path / "p.json"
    pat.write_text(text)
    code, _, err = run(
        capsys, "gt", "--direction", "from-pattern", "--n", "2", "--c", "1,2",
        "--in", str(pat),
    )
    assert code == EXIT_USAGE
    assert err == f"error: pattern JSON gives rows[1][1] the non-integer value {entry}\n"


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
