"""The checks that read the digraph's label tables (A2, A3, A4, equal criticals
and ``critical_vertex``), and A5, against a restatement that labels every edge
on its own, on random mutants of small generated crystals that pass A1.

The restatement reads only the line tables, each color in ``1..n`` through
``ColoredDigraph.line``: it labels an edge by the change of ``(t, h)`` along
it, finds a line's critical vertex by labeling the whole line, and gets the
incoming-edge halves of A3 and A4 by running the outgoing-edge checks on line
tables with every edge reversed.  It visits every color, and A5's restatement
every vertex, so the mutants that sit among colors without an edge check
which color pairs and positions the checks may skip."""

from dataclasses import dataclass

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ancrystal import generate
from ancrystal.axioms import (
    ColoredDigraph,
    check_A1,
    check_A2,
    check_A3,
    check_A4,
    check_A5,
    check_equal_criticals,
    critical_vertex,
)


@dataclass
class Reversed:
    """The successors and line positions of one color with every edge reversed."""

    nxt: list
    t: list
    h: list


def every_line(g):
    return {c: g.line(c) for c in range(1, g.n + 1)}


def backward(g):
    return {c: Reversed(ln.prv, ln.h, ln.t) for c, ln in every_line(g).items()}


def ref_label(lines, u, v):
    t, h = lines.t, lines.h
    if t[v] == t[u] - 1 and h[v] == h[u]:
        return 0
    if t[v] == t[u] and h[v] == h[u] + 1:
        return 1
    return None


def ref_zeros(lines, line):
    labels = [ref_label(lines, line[p], line[p + 1]) for p in range(len(line) - 1)]
    zeros = labels.count(0)
    if labels != [0] * zeros + [1] * (len(labels) - zeros):
        return None
    return zeros


def ref_line(lines, k):
    """The positions of the line through k, walked back along ``prv`` to its
    start and then forward along ``nxt``."""
    while lines.prv[k] is not None:
        k = lines.prv[k]
    line = [k]
    while lines.nxt[line[-1]] is not None:
        line.append(lines.nxt[line[-1]])
    return line


def ref_critical_vertex(g, v, i, j):
    line = ref_line(g.line(i), g.index[v])
    zeros = ref_zeros(g.line(j), line)
    return None if zeros is None else g.vertices[line[zeros]]


def ref_A2(g):
    lines = every_line(g)
    for i in range(1, g.n + 1):
        for u, v in enumerate(lines[i].nxt):
            if v is None:
                continue
            for j in range(1, g.n + 1):
                lj = lines[j]
                if abs(i - j) >= 2 and (lj.t[u], lj.h[u]) != (lj.t[v], lj.h[v]):
                    fault = f"changes the color-{j} line position"
                elif abs(i - j) == 1 and ref_label(lj, u, v) is None:
                    fault = f"has an invalid (t_{j}, h_{j}) change"
                else:
                    continue
                return f"A2: fail: {i}-edge ({g.vertices[u]}, {g.vertices[v]}) {fault}"
        for j in (i - 1, i + 1):
            if not 1 <= j <= g.n:
                continue
            for k in range(len(g.vertices)):
                if lines[i].prv[k] is None and ref_zeros(lines[j], ref_line(lines[i], k)) is None:
                    return (
                        f"A2: fail: labels along the {i}-line through {g.vertices[k]}"
                        f" are not monotone in color {j}"
                    )
    return "A2: pass"


def ref_A3(g):
    views = (
        (every_line(g), "0-labeled {}-edge with non-1-labeled {}-edge", "square"),
        (backward(g), "1-labeled incoming {}-edge with non-0-labeled {}-edge", "backward square"),
    )
    for i in range(1, g.n):
        j = i + 1
        for u, name_u in enumerate(g.vertices):
            for lines, mismatch, square in views:
                for (a, b) in ((i, j), (j, i)):
                    la, lb = lines[a], lines[b]
                    v, vp = la.nxt[u], lb.nxt[u]
                    if v is None or vp is None:
                        continue
                    if ref_label(lb, u, v) == 0:
                        if ref_label(la, u, vp) != 1:
                            return f"A3: fail: at {name_u}: " + mismatch.format(a, b)
                        w = lb.nxt[v]
                        if w is None or w != la.nxt[vp]:
                            return f"A3: fail: {square} at {name_u} for colors {a},{b} does not close"
    return "A3: pass"


def ref_chain(lines, v, colors):
    for c in colors:
        if v is None:
            return None
        v = lines[c].nxt[v]
    return v


def ref_A4(g, strict):
    views = [(every_line(g), "Verma")]
    if strict:
        views.append((backward(g), "inverse Verma"))
    for i in range(1, g.n):
        j = i + 1
        for u, name_u in enumerate(g.vertices):
            for lines, relation in views:
                li, lj = lines[i], lines[j]
                v, vp = li.nxt[u], lj.nxt[u]
                if v is None or vp is None:
                    continue
                if ref_label(lj, u, v) == 1 and ref_label(li, u, vp) == 1:
                    w = ref_chain(lines, u, (i, j, j, i))
                    if w is None or w != ref_chain(lines, u, (j, i, i, j)):
                        return f"A4: fail: {relation} relation fails at {name_u} for colors {i},{j}"
    return "A4: pass"


def ref_A5(g):
    lines = every_line(g)
    for i in range(1, g.n + 1):
        for j in range(i + 2, g.n + 1):
            for u, name_u in enumerate(g.vertices):
                for fi in (lines[i].nxt, lines[i].prv):
                    for fj in (lines[j].nxt, lines[j].prv):
                        if fi[u] is None or fj[u] is None:
                            continue
                        w = fj[fi[u]]
                        if w is None or w != fi[fj[u]]:
                            return f"A5: fail: colors {i},{j} do not commute at vertex {name_u}"
    return "A5: pass"


def ref_equal_criticals(g):
    for i in range(1, g.n):
        j = i + 1
        done = set()
        for v, k in g.index.items():
            line = ref_line(g.line(i), k)
            if line[0] in done:
                continue
            done.add(line[0])
            r = ref_critical_vertex(g, v, i, j)
            if r is None:
                return (
                    f"equal-criticals: fail: no critical vertex on the {i}-line"
                    f" through {g.vertices[line[0]]}"
                )
            if ref_critical_vertex(g, r, j, i) != r:
                return f"equal-criticals: fail: vertex {r}: critical for color {i} w.r.t. {j} but not conversely"
    return "equal-criticals: pass"


CASES = [(2, (1, 1)), (2, (1, 2)), (2, (2, 1)), (3, (1, 0, 1)), (3, (1, 1, 1)), (3, (0, 2, 1)), (4, (1, 0, 0, 1))]
EDGES = {}


def crystal_edges(n, c):
    if (n, c) not in EDGES:
        data = generate(n, c).to_json()
        vertices = tuple(v["id"] for v in data["vertices"])
        EDGES[n, c] = vertices, [(e["from"], e["to"], e["color"]) for e in data["edges"]]
    return EDGES[n, c]


@st.composite
def mutants(draw):
    """A crystal with one or two edits: delete, insert, retarget or recolor an
    edge; sometimes at a color offset inside a larger n, so that colors
    without an edge come before its colors, after them or both.  Drawn as the
    arguments of ``ColoredDigraph``, which a failing example prints."""
    n, c = draw(st.sampled_from(CASES))
    vertices, edges = crystal_edges(n, c)
    edges = list(edges)
    vertex = st.sampled_from(vertices)
    color = st.integers(1, n)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["delete", "insert", "retarget", "recolor"]))
        if kind == "insert":
            edges.append((draw(vertex), draw(vertex), draw(color)))
            continue
        k = draw(st.integers(0, len(edges) - 1))
        u, v, col = edges.pop(k)
        if kind == "retarget":
            edges.insert(k, (u, draw(vertex), col))
        elif kind == "recolor":
            edges.insert(k, (u, v, draw(color)))
    before, after = draw(st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 3)]))
    edges = [(u, v, col + before) for (u, v, col) in edges]
    return vertices, tuple(edges), before + n + after


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_label_table_checks_match_the_per_edge_restatement(mutant):
    g = ColoredDigraph(*mutant)
    assume(check_A1(g).ok)
    assert str(check_A2(g)) == ref_A2(g)
    assert str(check_A3(g)) == ref_A3(g)
    for strict in (False, True):
        assert str(check_A4(g, strict=strict)) == ref_A4(g, strict)
    assert str(check_A5(g)) == ref_A5(g)
    assert str(check_equal_criticals(g)) == ref_equal_criticals(g)
    for i in range(1, g.n + 1):
        for j in (i - 1, i + 1):
            if 1 <= j <= g.n:
                for v in g.vertices:
                    assert critical_vertex(g, v, i, j) == ref_critical_vertex(g, v, i, j), (v, i, j)
