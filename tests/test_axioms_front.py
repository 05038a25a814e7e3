"""The checks that read the digraph's per-color position arrays (connected, A1,
graded, no parallel edges, unique source and sink), and the line walk, against
plain restatements over per-vertex dicts, depth tuples and lists, on random
small multigraphs; and the digraph's one reading of its edges."""

from collections import deque
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancrystal import GraphFormatError, generate
from ancrystal.axioms import (
    ColoredDigraph,
    Lines,
    check_A1,
    check_graded,
    check_no_parallel_edges,
    check_nonempty_connected,
    check_unique_source_sink,
    verify_graph,
)


def adjacency(vertices, edges, n):
    """color -> vertex -> [heads] and color -> vertex -> [tails], in edge order."""
    out = {c: {v: [] for v in vertices} for c in range(1, n + 1)}
    inn = {c: {v: [] for v in vertices} for c in range(1, n + 1)}
    for (u, v, c) in edges:
        out[c][u].append(v)
        inn[c][v].append(u)
    return out, inn


def ref_connected(vertices, edges, n):
    if not vertices:
        return "connected: fail: graph has no vertices"
    undirected = {v: set() for v in vertices}
    for (u, v, _) in edges:
        undirected[u].add(v)
        undirected[v].add(u)
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        for w in undirected[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    for v in vertices:
        if v not in seen:
            return f"connected: fail: vertex {v} unreachable from {vertices[0]}"
    return "connected: pass"


def ref_A1(vertices, edges, n):
    out, inn = adjacency(vertices, edges, n)
    for c in range(1, n + 1):
        for v in vertices:
            if len(out[c][v]) > 1:
                return f"A1: fail: vertex {v} has two outgoing {c}-edges"
            if len(inn[c][v]) > 1:
                return f"A1: fail: vertex {v} has two incoming {c}-edges"
    for c in range(1, n + 1):
        # with single heads and tails, a vertex no walk from a line start
        # reaches lies on a cycle
        reached = set()
        for v in vertices:
            if not inn[c][v]:
                w = v
                while w not in reached:
                    reached.add(w)
                    if not out[c][w]:
                        break
                    w = out[c][w][0]
        if len(reached) != len(vertices):
            return f"A1: fail: color {c} contains a directed cycle"
    return "A1: pass"


def ref_graded(vertices, edges, n):
    if not vertices:
        return "graded: fail: graph has no vertices"
    out, inn = adjacency(vertices, edges, n)
    depth = {}
    for root in vertices:
        if root in depth:
            continue
        depth[root] = (0,) * n
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for c in range(1, n + 1):
                for w, sign in [(w, 1) for w in out[c][v]] + [(w, -1) for w in inn[c][v]]:
                    d = tuple(x + sign * (k == c - 1) for k, x in enumerate(depth[v]))
                    if w not in depth:
                        depth[w] = d
                        queue.append(w)
                    elif depth[w] != d:
                        return f"graded: fail: inconsistent color counts on routes to {w}"
    return "graded: pass"


def ref_no_parallel_edges(vertices, edges, n):
    """The least tail, then the least head, in canonical order, of a repeated pair."""
    out, _ = adjacency(vertices, edges, n)
    for u in vertices:
        heads = [w for c in range(1, n + 1) for w in out[c][u]]
        for w in vertices:
            if heads.count(w) > 1:
                return f"no-parallel-edges: fail: two edges from {u} to {w}"
    return "no-parallel-edges: pass"


def ref_unique_source_sink(vertices, edges, n):
    indeg = {v: 0 for v in vertices}
    outdeg = {v: 0 for v in vertices}
    for (u, v, _) in edges:
        outdeg[u] += 1
        indeg[v] += 1
    sources = sum(1 for v in vertices if indeg[v] == 0)
    sinks = sum(1 for v in vertices if outdeg[v] == 0)
    if sources != 1:
        return f"unique-source-sink: fail: expected one zero-indegree vertex, found {sources}"
    if sinks != 1:
        return f"unique-source-sink: fail: expected one zero-outdegree vertex, found {sinks}"
    return "unique-source-sink: pass"


PAIRS = [
    (check_nonempty_connected, ref_connected),
    (check_A1, ref_A1),
    (check_graded, ref_graded),
    (check_no_parallel_edges, ref_no_parallel_edges),
    (check_unique_source_sink, ref_unique_source_sink),
]


@st.composite
def multigraphs(draw):
    """Non-contiguous vertex ids with random edges among them: repeats,
    self-loops and several components all occur."""
    n = draw(st.integers(1, 4))
    vertices = draw(st.lists(st.integers(-20, 60), min_size=1, max_size=9, unique=True))
    edge = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices), st.integers(1, n))
    edges = draw(st.lists(edge, max_size=14))
    if draw(st.booleans()):
        # a line of color 1 through every vertex, then a few extra edges, so
        # that connected and graded graphs are common too
        order = draw(st.permutations(vertices))
        edges = [(a, b, 1) for a, b in zip(order, order[1:])] + edges[:3]
    return n, vertices, edges


@settings(max_examples=400, deadline=None)
@given(multigraphs())
def test_position_array_checks_match_the_dict_restatements(case):
    n, vertices, edges = case
    g = ColoredDigraph(tuple(vertices), tuple(edges), n)
    canonical = sorted(vertices)
    for check, ref in PAIRS:
        assert str(check(g)) == ref(canonical, edges, n), check.__name__


@st.composite
def multigraphs_with_repeats(draw):
    """``multigraphs``, half of them with a copy of one edge, in any color, put anywhere."""
    n, vertices, edges = draw(multigraphs())
    if edges and draw(st.booleans()):
        u, v, _ = draw(st.sampled_from(edges))
        k = draw(st.integers(0, len(edges)))
        edges = edges[:k] + [(u, v, draw(st.integers(1, n)))] + edges[k:]
    return n, vertices, edges


@settings(max_examples=400, deadline=None)
@given(multigraphs_with_repeats())
def test_a_repeat_leaves_an_overflow_or_an_uneven_position(case):
    # two edges with the same ends: of one color, the second overflows; of
    # two colors, the search reaches the head with two depth codes
    n, vertices, edges = case
    g = ColoredDigraph(tuple(vertices), tuple(edges), n)
    repeated = len({(u, v) for (u, v, _) in edges}) < len(edges)
    if repeated:
        assert any(g.more_out.values()) or g.search[1] is not None
    assert check_no_parallel_edges(g).ok is not repeated


@pytest.mark.parametrize("length", range(1, 7))
def test_graded_tells_a_long_line_from_a_step_of_the_next_color(length):
    # 0 -1-> 1 -1-> ... -1-> length, and 0 -2-> length: the two routes to the
    # end of the line count (length, 0) and (0, 1) edges of colors 1 and 2,
    # which a depth code with base `length` would take for equal
    edges = [(k, k + 1, 1) for k in range(length)] + [(0, length, 2)]
    g = ColoredDigraph(tuple(range(length + 1)), tuple(edges), 2)
    verdict = check_graded(g)
    assert not verdict.ok
    assert str(verdict) == ref_graded(list(range(length + 1)), edges, 2)


@pytest.mark.parametrize("edges, search", [
    # both components ungraded: component 0 is {0, 1, 2, 3, 5}, where routes
    # 0 -1-> 1 -1-> 2 and 0 -2-> 2 disagree and 3 and 5 lie past that fault;
    # in component 1, {4, 6, 7}, routes 4 -1-> 6 -1-> 7 and 4 -2-> 7 disagree
    ([(0, 1, 1), (1, 2, 1), (0, 2, 2), (2, 3, 1), (3, 5, 2), (4, 6, 1), (6, 7, 1), (4, 7, 2)], (4, 2)),
    # component 0 is the graded path 0 -1-> 2 -2-> 3; in component 1 the
    # routes 1 -1-> 4 -1-> 5 and 1 -2-> 5 disagree
    ([(0, 2, 1), (2, 3, 2), (1, 4, 1), (4, 5, 1), (1, 5, 2)], (1, 5)),
    # four components, {0, 3}, {1, 4}, {2, 5, 6, 7} and {8, 9}: the search
    # resumes at 1, then 2, where routes 2 -1-> 5 -1-> 6 and 2 -2-> 6
    # disagree, and stops at 8 with both answers known
    ([(0, 3, 1), (1, 4, 2), (2, 5, 1), (5, 6, 1), (2, 6, 2), (6, 7, 2), (8, 9, 1)], (1, 6)),
], ids=["both-ungraded", "graded-beside-ungraded", "four-components"])
def test_two_components_name_the_least_unreached_vertex_and_the_first_fault(edges, search):
    vertices = sorted({v for (u, w, _) in edges for v in (u, w)})
    g = ColoredDigraph(tuple(vertices), tuple(edges), 2)
    assert g.search == search
    unreached, uneven = search
    assert [str(check_nonempty_connected(g)), str(check_graded(g))] == [
        ref_connected(vertices, edges, 2), ref_graded(vertices, edges, 2)
    ] == [
        f"connected: fail: vertex {unreached} unreachable from 0",
        f"graded: fail: inconsistent color counts on routes to {uneven}",
    ]


def test_further_heads_are_searched_right_after_the_first_head_of_their_color():
    # 0 -1-> 1 and 0 -1-> 2 (a further head, in more_out), then 0 -2-> 3; both
    # 2 and 3 reach a vertex by a 1-edge and a 2-edge.  Visiting 2 right after
    # 1, before the 2-step, searches 2 before 3 and meets 4 first; a search
    # that visited further heads after all of a vertex's steps would meet 5
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 2), (2, 4, 1), (2, 4, 2), (3, 5, 1), (3, 5, 2)]
    g = ColoredDigraph(tuple(range(6)), tuple(edges), 2)
    assert g.more_out == {1: {0: [2]}, 2: {}}
    assert g.search == (None, 4)
    assert str(check_graded(g)) == ref_graded(list(range(6)), edges, 2) == (
        "graded: fail: inconsistent color counts on routes to 4"
    )


def ref_walk(nxt, prv):
    """Lines.walk restated: from each position without a predecessor,
    ascending, follow first heads until the line ends or meets a position
    an earlier walk took; a position no walk takes (on a cycle) keeps
    t = h = 0 and start None."""
    size = len(nxt)
    t, h, start, order = [0] * size, [0] * size, [None] * size, []
    starts = [k for k in range(size) if prv[k] is None]
    for k in starts:
        line = []
        w = k
        while w is not None and start[w] is None:
            start[w] = k
            line.append(w)
            w = nxt[w]
        for pos, w in enumerate(line):
            t[w], h[w] = pos, len(line) - 1 - pos
        order += line
    return t, h, start, order, starts


@settings(max_examples=400, deadline=None)
@given(multigraphs())
@example((2, [0, 1, 2], [(0, 1, 1), (1, 0, 1), (2, 2, 2)]))  # a 1-cycle beside a start; a 2-loop
@example((1, [0, 1, 2, 3], [(0, 2, 1), (1, 2, 1), (2, 3, 1)]))  # the walks from 0 and 1 merge at 2
def test_line_walk_matches_a_plain_restatement(case):
    n, vertices, edges = case
    g = ColoredDigraph(tuple(vertices), tuple(edges), n)
    none = [None] * len(g.vertices)
    for c in range(1, n + 1):
        nxt, prv = g.nxt.get(c, none), g.prv.get(c, none)
        lines = Lines.walk(nxt, prv, g.index.values())
        assert (lines.t, lines.h, lines.start, lines.order, lines.starts) == ref_walk(nxt, prv), c


def test_connected_and_graded_read_one_search():
    g = ColoredDigraph((0, 1, 2), ((0, 1, 1),), 1)
    assert g.search is g.search
    assert g.search == (2, None)
    # a planted result is all that either check reads
    g.__dict__["search"] = (1, 2)
    assert str(check_nonempty_connected(g)) == "connected: fail: vertex 1 unreachable from 0"
    assert str(check_graded(g)) == "graded: fail: inconsistent color counts on routes to 2"


def test_a1_reports_the_least_faulty_vertex_whatever_the_direction():
    # vertex 0 has two incoming 1-edges, vertex 3 two outgoing ones
    g = ColoredDigraph((0, 1, 2, 3), ((1, 0, 1), (2, 0, 1), (3, 1, 1), (3, 2, 1)), 1)
    assert str(check_A1(g)) == "A1: fail: vertex 0 has two incoming 1-edges"
    # at one vertex with both faults the outgoing one comes first
    g = ColoredDigraph((0, 1, 2, 3), ((1, 0, 1), (2, 0, 1), (0, 3, 1), (0, 1, 1)), 1)
    assert str(check_A1(g)) == "A1: fail: vertex 0 has two outgoing 1-edges"


def test_further_heads_and_tails_overflow_in_edge_order():
    g = ColoredDigraph((5, 7, 9), ((5, 9, 1), (5, 7, 1), (5, 5, 1), (7, 9, 2)), 2)
    assert g.nxt == {1: [2, None, None], 2: [None, 2, None]}
    assert g.prv == {1: [0, 0, 0], 2: [None, None, 1]}
    assert g.more_out == {1: {0: [1, 0]}, 2: {}}
    assert g.more_in == {1: {}, 2: {}}


def test_repeated_vertex_is_a_format_error():
    with pytest.raises(GraphFormatError, match="vertex 0 is listed twice"):
        ColoredDigraph((0, 0, 1), ((0, 1, 1),), 1)


@pytest.mark.parametrize("n", [0, -2, 2.5, 1.0, True])
def test_color_count_below_one_is_a_format_error(n):
    # a non-int or bool n is no color count either
    with pytest.raises(GraphFormatError, match=f"got {n}"):
        ColoredDigraph((0,), (), n)


@pytest.mark.parametrize("color", [1.0, True, 2.5, "1", 0, 3])
def test_a_color_that_is_no_int_in_1_to_n_is_unknown(color):
    # 1.0 and True equal color 1 and would have read its tables
    with pytest.raises(GraphFormatError, match=rf"edge \(0, 1, {color}\) references unknown vertex or color"):
        ColoredDigraph((0, 1), ((0, 1, color),), 2)
    # also after an edge of color 1 itself, and reported at the first bad edge
    with pytest.raises(GraphFormatError, match=rf"edge \(1, 0, {color}\) references"):
        ColoredDigraph((0, 1), ((0, 1, 1), (1, 0, color), (0, 1, 4)), 2)


def test_label_tables_are_built_once():
    # 0 -1-> 1 -2-> 2: the 1-edge keeps t_2 and lengthens the 2-line (label
    # 1), the 2-edge walks down the 1-line (label 0); 3 marks no edge
    g = ColoredDigraph((0, 1, 2), ((0, 1, 1), (1, 2, 2)), 2)
    assert g.labels(1, 2) is g.labels(1, 2)
    label, split = g.labels(1, 2)
    assert (label, list(split)) == (bytes([1, 3, 3]), [0, 0, 0])
    label, split = g.labels(2, 1)
    # the 2-line 1 -> 2 opens with one 0-label; 0 is a line of its own
    assert (label, list(split)) == (bytes([3, 0, 3]), [0, 1, 0])


@cache
def crystal_graph(n, c):
    K = generate(n, c)
    return tuple(K.vertex_ids()), tuple(K.edges())


@st.composite
def crystal_mutants(draw):
    """A small generated crystal with one or two edges deleted or added, the
    added ones with any ends and color, put anywhere."""
    n, c = draw(st.sampled_from([(1, (3,)), (2, (1, 1)), (2, (1, 2)), (3, (1, 0, 1)), (3, (1, 1, 1))]))
    vertices, edges = crystal_graph(n, c)
    edges = list(edges)
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            del edges[draw(st.integers(0, len(edges) - 1))]
        else:
            edge = (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)), draw(st.integers(1, n)))
            edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, vertices, edges


graphs = st.one_of(multigraphs_with_repeats(), crystal_mutants())


def one_shot(edges, pulled):
    """The edges as a generator, which can be read only once; each edge it
    hands out is appended to ``pulled``."""
    for edge in edges:
        pulled.append(edge)
        yield edge


@settings(max_examples=300, deadline=None)
@given(graphs)
@example((2, [], []))
def test_edges_from_a_one_shot_generator_build_the_digraph_of_their_tuple(case):
    n, vertices, edges = case
    pulled = []
    streamed = ColoredDigraph(tuple(vertices), one_shot(edges, pulled), n)
    stored = ColoredDigraph(tuple(vertices), tuple(edges), n)
    assert pulled == edges
    for name in ("nxt", "prv", "more_out", "more_in", "edge_colors"):
        assert getattr(streamed, name) == getattr(stored, name), name
    for strict_a4, fail_fast in product((False, True), repeat=2):
        assert [str(v) for v in verify_graph(streamed, strict_a4, fail_fast)] == [
            str(v) for v in verify_graph(stored, strict_a4, fail_fast)
        ]


@st.composite
def graphs_with_a_bad_edge(draw):
    """A graph of ``graphs`` with one edge put anywhere that names an unknown
    vertex, a color outside 1..n, or 1.0 or True for color 1; and its index."""
    n, vertices, edges = draw(graphs)
    u, v, c = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)), draw(st.integers(1, n))
    kind = draw(st.sampled_from(["tail", "head", "color", 1.0, True]))
    if kind == "tail":
        u = max(vertices) + 1
    elif kind == "head":
        v = min(vertices) - 1
    elif kind == "color":
        c = draw(st.sampled_from([0, -1, n + 1]))
    else:
        c = kind
    k = draw(st.integers(0, len(edges)))
    return n, vertices, edges[:k] + [(u, v, c)] + edges[k:], k


@settings(max_examples=300, deadline=None)
@given(graphs_with_a_bad_edge())
# 1.0 and True before any edge of color 1, and after one
@example((1, [0, 1], [(0, 1, 1.0), (0, 1, 1)], 0))
@example((1, [0, 1], [(0, 1, 1), (1, 0, True)], 1))
def test_a_bad_edge_is_refused_when_it_is_pulled(case):
    n, vertices, edges, k = case
    pulled = []
    with pytest.raises(GraphFormatError) as streamed:
        ColoredDigraph(tuple(vertices), one_shot(edges, pulled), n)
    with pytest.raises(GraphFormatError) as stored:
        ColoredDigraph(tuple(vertices), tuple(edges), n)
    u, v, c = edges[k]
    assert str(streamed.value) == str(stored.value) == f"edge ({u}, {v}, {c}) references unknown vertex or color"
    assert pulled == edges[:k + 1]
