"""Independent verifier for the local axioms of n-colored crystal digraphs.

Works on a bare edge-list representation on purpose: it shares no code with the
generator it is used to check.  All checks return verdicts with a first
counterexample in canonical vertex order instead of raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from .errors import GraphFormatError


@dataclass(frozen=True)
class Verdict:
    ok: Optional[bool]  # None: not run, because a check it needs failed
    check: str
    message: str = ""

    def __str__(self):
        if self.ok is None:
            return f"{self.check}: skipped ({self.message})"
        status = "pass" if self.ok else "fail"
        tail = f": {self.message}" if self.message else ""
        return f"{self.check}: {status}{tail}"


def _ok(check):
    return Verdict(True, check)


def _fail(check, message):
    return Verdict(False, check, message)


@dataclass(frozen=True)
class Lines:
    """The maximal paths of one color, over vertex positions in canonical order.

    ``nxt[k]``/``prv[k]`` is the single successor/predecessor of vertex ``k``
    (None at an end), ``t[k]``/``h[k]`` its distance to the start/end of its
    line, and ``path[k]`` that line as a list of positions.  Only meaningful
    once A1 holds.
    """

    nxt: list
    prv: list
    t: list
    h: list
    path: list

    @staticmethod
    def walk(nxt: list, prv: list) -> "Lines":
        """Lines of the given successors and predecessors, walked from every
        vertex without a predecessor; a vertex on a cycle keeps path None."""
        size = len(nxt)
        t = [0] * size
        h = [0] * size
        path = [None] * size
        for k in range(size):
            if prv[k] is not None:
                continue
            line = []
            w = k
            while w is not None and path[w] is None:
                path[w] = line
                line.append(w)
                w = nxt[w]
            for pos, w in enumerate(line):
                t[w] = pos
                h[w] = len(line) - 1 - pos
        return Lines(nxt, prv, t, h, path)

    def reversed(self) -> "Lines":
        """The same lines with every edge reversed: successor and predecessor,
        t and h trade places, and so do edge labels 0 and 1.  Each line's path
        is reversed once, from the vertex that starts it."""
        path = list(self.path)
        for k, line in enumerate(self.path):
            if line[0] == k:
                back = line[::-1]
                for w in line:
                    path[w] = back
        return Lines(self.prv, self.nxt, self.h, self.t, path)


@dataclass
class ColoredDigraph:
    """Vertices plus per-color edge sets; nothing about it is assumed valid.

    Edges are kept over vertex positions in canonical order, per color: the
    first head of tail ``k`` is ``nxt[c][k]`` and the first tail of head ``k``
    is ``prv[c][k]`` (None without one); any further heads and tails go, in
    edge order, to ``more_out[c][k]`` and ``more_in[c][k]``, which stay empty
    exactly when A1's degree conditions hold.
    """

    vertices: tuple
    edges: tuple  # (tail, head, color) triples, possibly with repeats
    n: int
    index: dict = field(init=False, repr=False)  # vertex -> position in ``vertices``
    nxt: dict = field(init=False, repr=False)  # color -> [first head position]
    prv: dict = field(init=False, repr=False)  # color -> [first tail position]
    more_out: dict = field(init=False, repr=False)  # color -> tail position -> [further heads]
    more_in: dict = field(init=False, repr=False)  # color -> head position -> [further tails]

    def __post_init__(self):
        if self.n < 1:
            raise GraphFormatError(f"color count n must be at least 1, got {self.n}")
        try:
            order = sorted(self.vertices)
        except TypeError:
            order = sorted(self.vertices, key=str)
        self.vertices = tuple(order)
        self.edges = tuple(self.edges)
        self.index = index = {v: k for k, v in enumerate(self.vertices)}
        if len(index) != len(order):
            seen = set()
            for v in order:
                if v in seen:
                    raise GraphFormatError(f"vertex {v} is listed twice")
                seen.add(v)
        size = len(order)
        colors = range(1, self.n + 1)
        self.nxt = nxt = {c: [None] * size for c in colors}
        self.prv = prv = {c: [None] * size for c in colors}
        self.more_out = {c: {} for c in colors}
        self.more_in = {c: {} for c in colors}
        for (u, v, c) in self.edges:
            a, b, heads = index.get(u), index.get(v), nxt.get(c)
            if a is None or b is None or heads is None:
                raise GraphFormatError(f"edge ({u}, {v}, {c}) references unknown vertex or color")
            if heads[a] is None:
                heads[a] = b
            else:
                self.more_out[c].setdefault(a, []).append(b)
            tails = prv[c]
            if tails[b] is None:
                tails[b] = a
            else:
                self.more_in[c].setdefault(b, []).append(a)

    @cached_property
    def lines(self) -> dict:
        """color -> Lines, built on first use; a color with a cycle raises."""
        table = {}
        for c in range(1, self.n + 1):
            table[c] = Lines.walk(self.nxt[c], self.prv[c])
            if None in table[c].path:
                raise GraphFormatError(f"color {c} contains a directed cycle")
        return table

    @cached_property
    def reversed_lines(self) -> dict:
        """color -> the Lines of that color with every edge reversed."""
        return {c: lines.reversed() for c, lines in self.lines.items()}


def from_edge_list_text(text: str, n: Optional[int] = None) -> ColoredDigraph:
    """Parse the plain "tail head color" one-edge-per-line format."""
    edges = []
    vertices = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {ln}: expected 'tail head color', got {raw!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer field in {raw!r}")
        if c < 1:
            raise GraphFormatError(f"line {ln}: color must be >= 1, got {c}")
        edges.append((u, v, c))
        vertices.update((u, v))
    if n is None:
        n = max((c for (_, _, c) in edges), default=1)
    return ColoredDigraph(tuple(sorted(vertices)), tuple(edges), n)


def from_crystal_json(data: dict) -> ColoredDigraph:
    try:
        n = int(data["n"])
        vertices = tuple(int(v["id"]) for v in data["vertices"])
        edges = tuple(
            (int(e["from"]), int(e["to"]), int(e["color"])) for e in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed crystal JSON: {exc}") from exc
    return ColoredDigraph(vertices, edges, n)


# -- individual checks ---------------------------------------------------------


def check_nonempty_connected(g: ColoredDigraph) -> Verdict:
    name = "connected"
    size = len(g.vertices)
    if not size:
        return _fail(name, "graph has no vertices")
    # the neighbors of a position: its first head and tail in every color,
    # then whatever the overflow holds
    firsts = list(zip(*g.nxt.values(), *g.prv.values()))
    extra = {}
    for more in (*g.more_out.values(), *g.more_in.values()):
        for k, ends in more.items():
            extra.setdefault(k, []).extend(ends)
    seen = [False] * size
    seen[0] = True
    todo = [0]
    while todo:
        k = todo.pop()
        for w in (*firsts[k], *extra[k]) if k in extra else firsts[k]:
            if w is not None and not seen[w]:
                seen[w] = True
                todo.append(w)
    if not all(seen):
        missing = g.vertices[seen.index(False)]
        return _fail(name, f"vertex {missing} unreachable from {g.vertices[0]}")
    return _ok(name)


def check_A1(g: ColoredDigraph) -> Verdict:
    """Each monochromatic component must be a finite simple directed path."""
    name = "A1"
    for c in range(1, g.n + 1):
        more_out, more_in = g.more_out[c], g.more_in[c]
        if more_out or more_in:
            k = min([*more_out, *more_in])
            direction = "outgoing" if k in more_out else "incoming"
            return _fail(name, f"vertex {g.vertices[k]} has two {direction} {c}-edges")
    try:
        g.lines
    except GraphFormatError as exc:
        return _fail(name, str(exc))
    return _ok(name)


def _label(lines: Lines, u: int, v: int) -> Optional[int]:
    """Label of the edge (u, v) with respect to the color whose ``lines`` these are.

    0 when t drops by one and h is unchanged, 1 when t is unchanged and h grows
    by one; None when neither pattern holds (an A2 violation).
    """
    t, h = lines.t, lines.h
    if t[v] == t[u] - 1 and h[v] == h[u]:
        return 0
    if t[v] == t[u] and h[v] == h[u] + 1:
        return 1
    return None


def _zeros(lines: Lines, line: list) -> Optional[int]:
    """How many 0-labels, with respect to the color whose ``lines`` these are,
    open the path ``line`` when its labels are 0s followed by 1s; None otherwise."""
    labels = [_label(lines, line[p], line[p + 1]) for p in range(len(line) - 1)]
    zeros = labels.count(0)
    if labels != [0] * zeros + [1] * (len(labels) - zeros):
        return None
    return zeros


def check_A2(g: ColoredDigraph) -> Verdict:
    name = "A2"
    lines = g.lines
    for i in range(1, g.n + 1):
        for u, v in enumerate(lines[i].nxt):
            if v is None:
                continue
            for j in range(1, g.n + 1):
                lj = lines[j]
                if abs(i - j) >= 2 and (lj.t[u], lj.h[u]) != (lj.t[v], lj.h[v]):
                    fault = f"changes the color-{j} line position"
                elif abs(i - j) == 1 and _label(lj, u, v) is None:
                    fault = f"has an invalid (t_{j}, h_{j}) change"
                else:
                    continue
                return _fail(name, f"{i}-edge ({g.vertices[u]}, {g.vertices[v]}) {fault}")
        # convexity: along any i-line the labels must be 0s followed by 1s
        for j in (i - 1, i + 1):
            if not 1 <= j <= g.n:
                continue
            for k, line in enumerate(lines[i].path):
                if line[0] == k and _zeros(lines[j], line) is None:
                    return _fail(
                        name,
                        f"labels along the {i}-line through {g.vertices[k]} are not monotone in color {j}",
                    )
    return _ok(name)


def critical_vertex(g: ColoredDigraph, v, i: int, j: int):
    """Critical vertex of the i-line through v with respect to color j, i.e. the
    vertex where the 0-labeled prefix ends; None when the labels are not split."""
    line = g.lines[i].path[g.index[v]]
    zeros = _zeros(g.lines[j], line)
    return None if zeros is None else g.vertices[line[zeros]]


def check_A3(g: ColoredDigraph) -> Verdict:
    """Squares on 0-labeled outgoing edges; the same on the reversed digraph
    covers 1-labeled incoming edges and backward squares."""
    name = "A3"
    views = (
        (g.lines, "0-labeled {}-edge with non-1-labeled {}-edge", "square"),
        (g.reversed_lines, "1-labeled incoming {}-edge with non-0-labeled {}-edge", "backward square"),
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
                    if _label(lb, u, v) == 0:
                        if _label(la, u, vp) != 1:
                            return _fail(name, f"at {name_u}: " + mismatch.format(a, b))
                        w = lb.nxt[v]
                        if w is None or w != la.nxt[vp]:
                            return _fail(
                                name, f"{square} at {name_u} for colors {a},{b} does not close"
                            )
    return _ok(name)


def _chain(lines: dict, v, colors):
    """Follow single successors for the given color sequence; None when a step is missing."""
    for c in colors:
        if v is None:
            return None
        v = lines[c].nxt[v]
    return v


def check_A4(g: ColoredDigraph, strict: bool = False) -> Verdict:
    """Degree-4 Verma relation at vertices whose two outgoing neighboring-color
    edges both carry label 1; in strict mode also on the reversed digraph, the
    inverse relation (it is derivable from the other axioms)."""
    name = "A4"
    views = [(g.lines, "Verma")]
    if strict:
        views.append((g.reversed_lines, "inverse Verma"))
    for i in range(1, g.n):
        j = i + 1
        for u, name_u in enumerate(g.vertices):
            for lines, relation in views:
                li, lj = lines[i], lines[j]
                v, vp = li.nxt[u], lj.nxt[u]
                if v is None or vp is None:
                    continue
                if _label(lj, u, v) == 1 and _label(li, u, vp) == 1:
                    w = _chain(lines, u, (i, j, j, i))
                    if w is None or w != _chain(lines, u, (j, i, i, j)):
                        return _fail(
                            name, f"{relation} relation fails at {name_u} for colors {i},{j}"
                        )
    return _ok(name)


def check_A5(g: ColoredDigraph) -> Verdict:
    """Full commutation of the operators of colors at distance two or more."""
    name = "A5"
    lines = g.lines
    for i in range(1, g.n + 1):
        for j in range(i + 2, g.n + 1):
            li, lj = lines[i], lines[j]
            for v, name_v in enumerate(g.vertices):
                for fi in (li.nxt, li.prv):
                    for fj in (lj.nxt, lj.prv):
                        a, b = fi[v], fj[v]
                        if a is None or b is None:
                            continue
                        w = fj[a]
                        if w is None or w != fi[b]:
                            return _fail(name, f"colors {i},{j} do not commute at vertex {name_v}")
    return _ok(name)


def check_equal_criticals(g: ColoredDigraph) -> Verdict:
    """The critical vertex of an i-line w.r.t. j must be critical on its own
    j-line w.r.t. i, for neighboring i, j."""
    name = "equal-criticals"
    for i in range(1, g.n):
        j = i + 1
        # lines in the order of their first vertex in canonical order
        done = set()
        for v, line in zip(g.vertices, g.lines[i].path):
            if line[0] in done:
                continue
            done.add(line[0])
            r = critical_vertex(g, v, i, j)
            if r is None:
                return _fail(name, f"no critical vertex on the {i}-line through {g.vertices[line[0]]}")
            if critical_vertex(g, r, j, i) != r:
                return _fail(name, f"vertex {r}: critical for color {i} w.r.t. {j} but not conversely")
    return _ok(name)


def check_graded(g: ColoredDigraph) -> Verdict:
    """Consistent per-color edge counts along all routes; implies acyclicity.

    A breadth-first search from each not yet reached vertex in canonical order
    gives every vertex its depth vector: how many edges of each color, counted
    forward minus backward, lead to it from the root.  The vector is stored as
    one int, ``sum(d_c * B**(c - 1))`` with ``B = 2|V| + 3``, so one step is a
    single add.  A search path has fewer than |V| edges, so every coordinate
    met, even one step past a stored vector, lies in ``[-|V|, |V|]``.  Two such
    vectors differ in each coordinate by at most 2|V| < B, so equal codes mean
    equal vectors.
    """
    name = "graded"
    size = len(g.vertices)
    if not size:
        return _fail(name, "graph has no vertices")
    base = 2 * size + 3
    # at each vertex: colors ascending, out-heads before in-tails
    steps = []
    for c in range(1, g.n + 1):
        unit = base ** (c - 1)
        steps += [(g.nxt[c], g.more_out[c], unit), (g.prv[c], g.more_in[c], -unit)]
    depth = [None] * size
    for root in range(size):
        if depth[root] is not None:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            k = queue.popleft()
            here = depth[k]
            for first, more, unit in steps:
                w = first[k]
                if w is None:
                    continue
                step = here + unit
                for w in (w, *more[k]) if k in more else (w,):
                    there = depth[w]
                    if there is None:
                        depth[w] = step
                        queue.append(w)
                    elif there != step:
                        return _fail(name, f"inconsistent color counts on routes to {g.vertices[w]}")
    return _ok(name)


def check_no_parallel_edges(g: ColoredDigraph) -> Verdict:
    name = "no-parallel-edges"
    size = len(g.vertices)
    index = g.index
    seen = set()
    for (u, v, _) in g.edges:
        key = index[u] * size + index[v]
        if key in seen:
            return _fail(name, f"two edges from {u} to {v}")
        seen.add(key)
    return _ok(name)


def check_unique_source_sink(g: ColoredDigraph) -> Verdict:
    """Exactly one vertex without incoming and one without outgoing edges; a
    position has an edge of color c exactly when its first one is recorded."""
    name = "unique-source-sink"
    sources = sum(1 for tails in zip(*g.prv.values()) if tails.count(None) == g.n)
    sinks = sum(1 for heads in zip(*g.nxt.values()) if heads.count(None) == g.n)
    if sources != 1:
        return _fail(name, f"expected one zero-indegree vertex, found {sources}")
    if sinks != 1:
        return _fail(name, f"expected one zero-outdegree vertex, found {sinks}")
    return _ok(name)


# Checks that follow single successors and predecessors, which mean something
# only once A1 holds.
NEEDS_A1 = ("A2", "A3", "A4", "A5", "equal-criticals")


def verify_graph(g: ColoredDigraph, strict_a4: bool = False, fail_fast: bool = True) -> List[Verdict]:
    """Run the whole battery in dependency order; later checks assume earlier
    ones, so with fail_fast the list ends at the first failure.  Without it,
    the checks in NEEDS_A1 are reported as skipped once A1 has failed."""
    verdicts = []
    checks = [
        ("connected", check_nonempty_connected),
        ("A1", check_A1),
        ("graded", check_graded),
        ("no-parallel-edges", check_no_parallel_edges),
        ("A2", check_A2),
        ("A3", check_A3),
        ("A4", lambda gr: check_A4(gr, strict=strict_a4)),
        ("A5", check_A5),
        ("equal-criticals", check_equal_criticals),
        ("unique-source-sink", check_unique_source_sink),
    ]
    a1_ok = True
    for name, chk in checks:
        if not a1_ok and name in NEEDS_A1:
            verdicts.append(Verdict(None, name, "needs A1"))
            continue
        try:
            v = chk(g)
        except GraphFormatError as exc:
            v = _fail("structure", str(exc))
        verdicts.append(v)
        if fail_fast and not v.ok:
            break
        if name == "A1":
            a1_ok = v.ok
    return verdicts


def all_pass(verdicts) -> bool:
    return all(v.ok for v in verdicts)
