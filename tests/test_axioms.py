import gc
import tracemalloc

import pytest

from ancrystal import GraphFormatError
from ancrystal.axioms import (
    ColoredDigraph,
    all_pass,
    check_A1,
    check_A2,
    check_A3,
    check_A4,
    check_A5,
    check_equal_criticals,
    check_graded,
    check_no_parallel_edges,
    check_nonempty_connected,
    check_unique_source_sink,
    critical_vertex,
    from_crystal_json,
    from_edge_list_text,
    verify_graph,
    _view,
)
from conftest import DESK_PARAMS


def digraph_of(K):
    return from_crystal_json(K.to_json())


def edge_count(g):
    """The edges of ``g``, counted from its per-color tables."""
    return sum(
        len(g.vertices) - g.nxt[c].count(None) + sum(map(len, g.more_out[c].values()))
        for c in g.edge_colors
    )


@pytest.mark.parametrize("n,c", [p for p in DESK_PARAMS if sum(p[1]) > 0])
def test_generated_crystals_pass_the_whole_battery(n, c, crystals):
    g = digraph_of(crystals(n, c))
    verdicts = verify_graph(g, strict_a4=True, fail_fast=False)
    assert all_pass(verdicts), [str(v) for v in verdicts if not v.ok]
    assert len(verdicts) == 10


def test_edge_list_parser():
    g = from_edge_list_text("0 1 1\n# comment\n\n1 2 2\n")
    assert g.vertices == (0, 1, 2)
    assert g.n == 2
    with pytest.raises(GraphFormatError):
        from_edge_list_text("0 1\n")
    with pytest.raises(GraphFormatError):
        from_edge_list_text("0 1 x\n")
    with pytest.raises(GraphFormatError):
        from_edge_list_text("0 1 0\n")


def test_crystal_json_parser_rejects_malformed_input():
    with pytest.raises(GraphFormatError):
        from_crystal_json({"n": 1, "vertices": [{"id": 0}]})
    with pytest.raises(GraphFormatError):
        from_crystal_json({"n": 1, "vertices": [{"id": 0}], "edges": [{"from": 0}]})
    # a field that is not an int, or is a bool, is named with its value, not truncated
    edge = {"from": 0, "to": 1, "color": 1}
    for key, value, where in (
        ("id", 0.9, "vertices"), ("id", "0", "vertices"), ("id", True, "vertices"),
        ("from", 0.5, "edges"), ("to", 1.0, "edges"), ("color", 1.7, "edges"), ("color", True, "edges"),
    ):
        data = {"n": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [edge]}
        data[where] = [dict(data[where][0], **{key: value}), *data[where][1:]]
        with pytest.raises(GraphFormatError, match=f"{key} {value!r} is not an integer"):
            from_crystal_json(data)
    for n in (2.7, "2", True):
        with pytest.raises(GraphFormatError, match=f"n {n!r} is not an integer"):
            from_crystal_json({"n": n, "vertices": [{"id": 0}], "edges": []})


def test_parsers_keep_one_int_object_per_vertex_id(crystals):
    K = crystals(2, (1, 2))
    # ids past CPython's cache of small ints, through both parsers
    text = "".join(f"{1000 + u} {1000 + v} {c}\n" for (u, v, c) in K.edges())
    data = K.to_json()
    data = {
        "n": data["n"],
        "vertices": [{"id": 1000 + v["id"]} for v in data["vertices"]],
        "edges": [dict(e, **{"from": 1000 + e["from"], "to": 1000 + e["to"]}) for e in data["edges"]],
    }
    for g in (from_edge_list_text(text), from_crystal_json(data)):
        assert g.vertices == tuple(range(1000, 1015)) and edge_count(g) == 18
        assert all_pass(verify_graph(g, strict_a4=True))


def test_verifier_peaks_under_700_bytes_per_vertex(crystals):
    """Parsing K(4;1^4) and a strict full verify of it, under tracemalloc: one
    int per vertex id, line tables without per-line lists and no whole-graph
    transients keep the peak near 500 bytes per vertex (about 1 000 without)."""
    text = crystals(4, (1, 1, 1, 1)).to_edge_list_text()
    gc.collect()
    tracemalloc.start()
    try:
        g = from_edge_list_text(text)
        verdicts = verify_graph(g, strict_a4=True, fail_fast=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 1024 and all_pass(verdicts)
    assert peak / len(g.vertices) <= 700


def test_verifier_retains_under_400_bytes_per_vertex(crystals):
    """What a parsed K(4;1^4) still holds after a strict full verify, under
    tracemalloc: the per-color tables, line tables and label cache, but not
    the edge triples (about 500 bytes per vertex with them)."""
    text = crystals(4, (1, 1, 1, 1)).to_edge_list_text()
    gc.collect()
    tracemalloc.start()
    try:
        g = from_edge_list_text(text)
        verdicts = verify_graph(g, strict_a4=True, fail_fast=False)
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 1024 and all_pass(verdicts)
    assert current / len(g.vertices) <= 400


def test_colors_without_edges_cost_no_tables():
    """Colors without an edge get no table: a 1 001-vertex path of color 1
    plus the one edge 0 -> 1000 of color 2000 took seconds and 130 MB with a
    table per color; the one edge ``0 1 1000000000`` and one vertex with
    n = 10**20 could not be built at all with an entry per color."""
    path = "".join(f"{k} {k + 1} 1\n" for k in range(1000)) + "0 1000 2000\n"
    cases = [
        (lambda: from_edge_list_text(path), [
            "connected: pass",
            "A1: pass",
            "graded: fail: inconsistent color counts on routes to 501",
            "no-parallel-edges: pass",
            "A2: fail: 1-edge (0, 1) has an invalid (t_2, h_2) change",
            "A3: pass",
            "A4: pass",
            "A5: fail: colors 1,2000 do not commute at vertex 0",
            "equal-criticals: fail: no critical vertex on the 1-line through 0",
            "unique-source-sink: pass",
        ]),
        (lambda: from_edge_list_text("0 1 1000000000\n"), [
            "connected: pass",
            "A1: pass",
            "graded: pass",
            "no-parallel-edges: pass",
            "A2: fail: 1000000000-edge (0, 1) has an invalid (t_999999999, h_999999999) change",
            "A3: pass",
            "A4: pass",
            "A5: pass",
            "equal-criticals: fail: vertex 0: critical for color 999999999 w.r.t. 1000000000 but not conversely",
            "unique-source-sink: pass",
        ]),
        (lambda: from_crystal_json({"n": 10**20, "vertices": [{"id": 0}], "edges": []}), None),
    ]
    for read, expected in cases:
        tracemalloc.start()
        try:
            g = read()
            verdicts = verify_graph(g, fail_fast=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = list(map(str, verdicts))
        assert lines == (expected or [f"{v.check}: pass" for v in verdicts]) and len(lines) == 10
        assert peak <= 5_000_000
        assert set(g.nxt) == set(g.prv) == set(g.more_out) == set(g.more_in) == set(g.lines) == set(g.edge_colors)


def test_round_trip_through_the_edge_list(crystals):
    K = crystals(2, (1, 2))
    g = from_edge_list_text(K.to_edge_list_text())
    assert edge_count(g) == 18 and len(g.vertices) == 15
    assert all_pass(verify_graph(g))


def test_a1_catches_cycles_and_branching():
    cyc = ColoredDigraph((0, 1), ((0, 1, 1), (1, 0, 1)), 1)
    assert not check_A1(cyc).ok
    fork = ColoredDigraph((0, 1, 2), ((0, 1, 1), (0, 2, 1)), 1)
    v = check_A1(fork)
    assert not v.ok and "outgoing" in v.message
    join = ColoredDigraph((0, 1, 2), ((0, 2, 1), (1, 2, 1)), 1)
    assert "incoming" in check_A1(join).message


def test_connectivity_and_degree_checks():
    g = ColoredDigraph((0, 1, 2, 3), ((0, 1, 1), (2, 3, 1)), 1)
    assert not check_nonempty_connected(g).ok
    assert not check_nonempty_connected(ColoredDigraph((), (), 1)).ok
    par = ColoredDigraph((0, 1), ((0, 1, 1), (0, 1, 2)), 2)
    assert not check_no_parallel_edges(par).ok
    two_sinks = ColoredDigraph((0, 1, 2), ((0, 1, 1), (0, 2, 2)), 2)
    assert not check_unique_source_sink(two_sinks).ok


def test_no_parallel_edges_names_the_least_repeated_pair_in_canonical_order():
    # past position 256 equal ints need not be one object: positions are
    # compared by value
    path = [(k, k + 1, 1) for k in range(300)]
    g = ColoredDigraph(tuple(range(301)), tuple(path + [(299, 300, 2)]), 2)
    assert str(check_no_parallel_edges(g)) == "no-parallel-edges: fail: two edges from 299 to 300"
    # of two repeats, the one with the least tail, though its second edge comes last
    g = ColoredDigraph((0, 1, 2), ((0, 1, 1), (1, 2, 1), (1, 2, 2), (0, 1, 2)), 2)
    assert str(check_no_parallel_edges(g)) == "no-parallel-edges: fail: two edges from 0 to 1"
    # of one tail's repeats, the least head; ids in canonical order are 2 < 5 < 7
    g = ColoredDigraph((7, 2, 5), ((2, 7, 1), (2, 7, 2), (2, 5, 1), (2, 5, 2)), 2)
    assert str(check_no_parallel_edges(g)) == "no-parallel-edges: fail: two edges from 2 to 5"
    # a fork overflows and an unbalanced square is uneven, yet neither repeats a pair
    assert check_no_parallel_edges(ColoredDigraph((0, 1, 2), ((0, 1, 1), (0, 2, 1)), 1)).ok
    square = ColoredDigraph((0, 1, 2, 3), ((0, 1, 1), (1, 3, 2), (0, 2, 2), (2, 3, 2)), 2)
    assert square.search[1] is not None and check_no_parallel_edges(square).ok


def test_graded_check_detects_unbalanced_squares():
    # path 0-1-3 uses colors (1, 2) but 0-2-3 uses (2, 2)
    g = ColoredDigraph(
        (0, 1, 2, 3), ((0, 1, 1), (1, 3, 2), (0, 2, 2), (2, 3, 2)), 2
    )
    assert not check_graded(g).ok


def test_a2_position_bookkeeping(crystals):
    g = digraph_of(crystals(2, (1, 2)))
    k = g.index[0]
    for c, (t, h) in ((1, (0, 1)), (2, (0, 2))):
        lines = g.lines[c]
        assert (lines.t[k], lines.h[k]) == (t, h)
        # k's line starts at start[k] and fills t + h + 1 entries of order
        first = lines.order.index(lines.start[k])
        line = lines.order[first:first + t + h + 1]
        assert line[t] == k and {lines.start[w] for w in line} == {line[0]}
        assert lines.prv[line[0]] is None and lines.nxt[line[-1]] is None
    assert check_A2(g).ok


def test_reversed_view_swaps_ends_and_flips_labels(crystals):
    # the 1-line 0 -> 1 -> 2 read backwards is the line 2 -> 1 -> 0
    g = ColoredDigraph((0, 1, 2), ((0, 1, 1), (1, 2, 1)), 1)
    back = ColoredDigraph((0, 1, 2), ((1, 0, 1), (2, 1, 1)), 1)
    lines, lines_back = g.lines[1], back.lines[1]
    assert (lines.nxt, lines.prv, lines.t, lines.h) == ([1, 2, None], [None, 0, 1], [0, 1, 2], [2, 1, 0])
    assert (lines_back.nxt, lines_back.prv, lines_back.t, lines_back.h) == (lines.prv, lines.nxt, lines.h, lines.t)
    # the reversed view of a crystal, and of a mutant with invalid labels, is
    # the forward view of the digraph with every edge reversed: prv in place
    # of nxt, and the label of the edge into u flipped, (1, 0, 2)[label[prv[u]]]
    K = crystals(2, (1, 2))
    mutant = tuple(e for e in K.edges() if e != (0, 1, 1))
    for edges, invalid in ((tuple(K.edges()), False), (mutant, True)):
        g = ColoredDigraph(tuple(range(K.num_vertices)), edges, 2)
        assert (2 in g.labels(2, 1)[0]) == invalid
        back = ColoredDigraph(g.vertices, tuple((v, u, c) for (u, v, c) in edges), 2)
        assert _view(g, 1, 2, back=True) == _view(back, 1, 2, back=False)
        for i, j in ((1, 2), (2, 1)):
            label, prv = g.labels(i, j)[0], g.lines[i].prv
            flipped = [3 if p is None else (1, 0, 2)[label[p]] for p in prv]
            assert list(back.labels(i, j)[0]) == flipped


def test_a2_detects_a_distant_color_shift():
    # a 3-edge that lengthens the 1-line would violate locality
    g = ColoredDigraph(
        (0, 1, 2), ((0, 1, 3), (1, 2, 1)), 3
    )
    assert not check_A2(g).ok


def test_critical_vertices_match_across_colors(crystals):
    g = digraph_of(crystals(2, (1, 2)))
    assert check_equal_criticals(g).ok
    for v in g.vertices:
        r = critical_vertex(g, v, 1, 2)
        assert r is not None
        assert critical_vertex(g, r, 2, 1) == r


def test_a4_strict_mode_checks_the_inverse_relation(crystals):
    g = digraph_of(crystals(2, (2, 2)))
    assert check_A4(g).ok and check_A4(g, strict=True).ok


def test_a5_commutation_failure():
    # colors 1 and 3 must commute; drop one closing edge of a square
    g = ColoredDigraph(
        (0, 1, 2, 3), ((0, 1, 1), (0, 2, 3), (1, 3, 3)), 3
    )
    assert not check_A5(g).ok


@pytest.mark.parametrize("n,c", [(2, (1, 2)), (3, (1, 1, 1))])
def test_every_single_edge_mutation_is_detected(n, c, crystals):
    K = crystals(n, c)
    base = list(K.edges())
    # deletions
    for p in range(len(base)):
        edges = base[:p] + base[p + 1 :]
        g = ColoredDigraph(tuple(range(K.num_vertices)), tuple(edges), n)
        assert not all_pass(verify_graph(g)), f"deleting {base[p]} went unnoticed"
    # insertions of one absent edge between existing vertices
    present = {(u, w) for (u, w, _) in base}
    import random

    rng = random.Random(11)
    tried = 0
    while tried < 60:
        u = rng.randrange(K.num_vertices)
        w = rng.randrange(K.num_vertices)
        col = rng.randint(1, n)
        if u == w or (u, w) in present:
            continue
        tried += 1
        g = ColoredDigraph(
            tuple(range(K.num_vertices)), tuple(base + [(u, w, col)]), n
        )
        assert not all_pass(verify_graph(g)), f"inserting ({u}, {w}, {col}) went unnoticed"


def test_fail_fast_stops_at_the_first_failure():
    cyc = ColoredDigraph((0, 1), ((0, 1, 1), (1, 0, 1)), 1)
    verdicts = verify_graph(cyc)
    assert not verdicts[-1].ok and all(v.ok for v in verdicts[:-1])
    full = verify_graph(cyc, fail_fast=False)
    assert len(full) == 10


def test_checks_that_need_a1_are_skipped_after_it_fails():
    g = ColoredDigraph((0, 1, 2), ((0, 1, 1), (0, 2, 1)), 1)
    full = [str(v) for v in verify_graph(g, fail_fast=False)]
    assert full[0] == "connected: pass"
    assert full[1].startswith("A1: fail:")
    assert full[4:9] == [
        f"{name}: skipped (needs A1)"
        for name in ("A2", "A3", "A4", "A5", "equal-criticals")
    ]
    assert not all_pass(verify_graph(g, fail_fast=False))
    fast = verify_graph(g)
    assert [v.check for v in fast] == ["connected", "A1"]


def test_verdict_string_form():
    g = ColoredDigraph((0,), (), 1)
    v = check_nonempty_connected(g)
    assert str(v) == "connected: pass"
    bad = check_unique_source_sink(ColoredDigraph((), (), 1))
    assert str(bad).startswith("unique-source-sink: fail:")


def test_graded_fails_an_empty_graph_by_its_own_guard():
    # the search of an empty graph finds no uneven position
    g = ColoredDigraph((), (), 1)
    assert g.search == (None, None)
    verdicts = verify_graph(g, fail_fast=False)
    assert [str(v) for v in verdicts[:4]] == [
        "connected: fail: graph has no vertices", "A1: pass", "graded: fail: graph has no vertices",
        "no-parallel-edges: pass",
    ]


def _mutant(K, n, old, new):
    """K's edges with ``old`` replaced by ``new`` (deleted when ``new`` is None)."""
    edges = [e for e in K.edges() if e != old]
    assert len(edges) == K.num_edges - 1
    if new is not None:
        edges.append(new)
    return ColoredDigraph(tuple(range(K.num_vertices)), tuple(edges), n)


# One single-edge mutant per failure message, with the exact verdict it gets.
PINNED_VERDICTS = [
    (3, (1, 1, 1), (0, 3, 3), None,
     "A2: fail: 1-edge (0, 1) changes the color-3 line position"),
    (2, (1, 2), (0, 1, 1), None,
     "A2: fail: 2-edge (0, 2) has an invalid (t_1, h_1) change"),
    (2, (1, 2), (5, 8, 1), (5, 6, 1),
     "A2: fail: labels along the 1-line through 5 are not monotone in color 2"),
    (2, (1, 2), (4, 7, 1), None,
     "A3: fail: at 2: 0-labeled 1-edge with non-1-labeled 2-edge"),
    (2, (1, 2), (0, 2, 2), None,
     "A3: fail: at 8: 1-labeled incoming 2-edge with non-0-labeled 1-edge"),
    (2, (1, 2), (4, 8, 2), (4, 11, 2),
     "A3: fail: square at 2 for colors 1,2 does not close"),
    (2, (1, 2), (6, 9, 1), None,
     "A4: fail: Verma relation fails at 0 for colors 1,2"),
    (2, (1, 2), (0, 1, 1), None,
     "A4: fail: inverse Verma relation fails at 9 for colors 1,2"),
    (3, (1, 1, 1), (0, 1, 1), None,
     "A5: fail: colors 1,3 do not commute at vertex 3"),
    (2, (1, 2), (0, 2, 2), None,
     "equal-criticals: fail: no critical vertex on the 1-line through 0"),
    (2, (1, 2), (0, 1, 1), None,
     "equal-criticals: fail: vertex 0: critical for color 1 w.r.t. 2 but not conversely"),
]


@pytest.mark.parametrize("n,c,old,new,expected", PINNED_VERDICTS)
def test_single_edge_mutants_get_the_pinned_verdict(n, c, old, new, expected, crystals):
    g = _mutant(crystals(n, c), n, old, new)
    verdicts = [str(v) for v in verify_graph(g, strict_a4=True, fail_fast=False)]
    assert expected in verdicts


def test_backward_square_verdict():
    # p -2-> u -2-> v', u -1-> v -2-> w, v' -1-> q -1-> r: the 0-labeled
    # 1-edge and the 1-labeled 2-edge out of u = 1 do not close a square.
    forward = ((0, 1, 2), (1, 3, 2), (1, 2, 1), (2, 4, 2), (3, 5, 1), (5, 6, 1))
    g = ColoredDigraph(tuple(range(7)), forward, 2)
    assert str(check_A3(g)) == "A3: fail: square at 1 for colors 1,2 does not close"
    # reversing every edge swaps the labels, so the square fails backward at 1
    backward = tuple((w, u, col) for (u, w, col) in forward)
    g = ColoredDigraph(tuple(range(7)), backward, 2)
    assert str(check_A3(g)) == "A3: fail: backward square at 1 for colors 1,2 does not close"
