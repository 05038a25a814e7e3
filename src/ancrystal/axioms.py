"""Independent verifier for the local axioms of n-colored crystal digraphs.

Works on a bare edge-list representation on purpose: it shares no code with the
generator it is used to check.  All checks return verdicts with a first
counterexample in canonical vertex order instead of raising.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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
    line, ``path[k]`` that line as a list of positions, and ``starts`` the
    first positions of the lines, ascending.  Only meaningful once A1 holds.
    """

    nxt: list
    prv: list
    t: list
    h: list
    path: list
    starts: list

    @staticmethod
    def walk(nxt: list, prv: list) -> "Lines":
        """Lines of the given successors and predecessors, walked from every
        vertex without a predecessor; a vertex on a cycle keeps path None."""
        size = len(nxt)
        t = [0] * size
        h = [0] * size
        path = [None] * size
        starts = [k for k in range(size) if prv[k] is None]
        for k in starts:
            line = []
            w = k
            while w is not None and path[w] is None:
                path[w] = line
                line.append(w)
                w = nxt[w]
            for pos, w in enumerate(line):
                t[w] = pos
                h[w] = len(line) - 1 - pos
        return Lines(nxt, prv, t, h, path, starts)


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
    _labels: dict = field(init=False, repr=False, default_factory=dict)  # (i, j) -> labels()

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

    def labels(self, i: int, j: int) -> tuple:
        """Per position, the label w.r.t. color j of its i-edge: 0 when t_j drops
        by one and h_j is unchanged, 1 when t_j is unchanged and h_j grows by
        one, 2 when neither holds (an A2 violation) and 3 without an i-edge;
        and, at the start of each i-line, how many 0-labels open it when its
        labels are 0s followed by 1s, else -1.  Built on first use."""
        if (i, j) not in self._labels:
            li, lj = self.lines[i], self.lines[j]
            t, h = lj.t, lj.h
            label = bytes([
                3 if v is None else 0 if t[v] == t[u] - 1 and h[v] == h[u]
                else 1 if t[v] == t[u] and h[v] == h[u] + 1 else 2
                for u, v in enumerate(li.nxt)
            ])
            split = array("i", [0]) * len(label)
            # every line's labels in turn, each closed by the 3 of its last vertex
            in_turn = chain.from_iterable(map(li.path.__getitem__, li.starts))
            along = bytes(map(label.__getitem__, in_turn))
            for k, run in zip(li.starts, along.split(b"\3")):
                ones = run.lstrip(b"\0")
                split[k] = -1 if ones.lstrip(b"\1") else len(run) - len(ones)
            self._labels[i, j] = (label, split)
        return self._labels[i, j]


def from_edge_list_text(text: str) -> ColoredDigraph:
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
    # ColoredDigraph puts the vertices in canonical order
    n = max((c for (_, _, c) in edges), default=1)
    return ColoredDigraph(tuple(vertices), tuple(edges), n)


def from_crystal_json(data: dict) -> ColoredDigraph:
    try:
        n = data["n"]
        vertices = tuple(v["id"] for v in data["vertices"])
        edges = tuple((e["from"], e["to"], e["color"]) for e in data["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"malformed crystal JSON: {exc}") from exc
    # no int(): it would read 0.9, 1.7 or "0" as another vertex or color
    columns = {"n": (n,), "id": vertices}
    columns.update((key, [e[p] for e in edges]) for p, key in enumerate(("from", "to", "color")))
    for key, values in columns.items():
        for x in values:
            if type(x) is not int:  # a bool is an int, too
                raise GraphFormatError(f"malformed crystal JSON: {key} {x!r} is not an integer")
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


# The label of an edge read backwards: reversing every edge swaps t and h, so
# labels 0 and 1 trade places; 2 (invalid) and 3 (no edge) stay.
FLIP = b"\1\0\2\3"


def _view(g: ColoredDigraph, i: int, j: int, back: bool) -> tuple:
    """The successors of the neighboring colors i, j and, per ordered pair
    (a, b) of them, the label w.r.t. b of the a-edge out of each position.
    With ``back``, of the digraph with every edge reversed: ``prv`` in place of
    ``nxt``, and the a-edge out of u is the one into u in ``g``, its label flipped."""
    step = {c: g.lines[c].prv if back else g.lines[c].nxt for c in (i, j)}
    label = {}
    for a, b in ((i, j), (j, i)):
        x = g.labels(a, b)[0]
        label[a, b] = bytes([3 if p is None else FLIP[x[p]] for p in step[a]]) if back else x
    return step, label


def check_A2(g: ColoredDigraph) -> Verdict:
    name = "A2"
    lines = g.lines
    for i in range(1, g.n + 1):
        nxt = lines[i].nxt
        # per color j, the first i-edge that breaks it: a neighboring color's
        # label is invalid, a distant color's line position changes
        faults = []
        for j in range(1, g.n + 1):
            if abs(i - j) == 1:
                u = g.labels(i, j)[0].find(2)
                if u >= 0:
                    faults.append((u, j, f"has an invalid (t_{j}, h_{j}) change"))
            elif abs(i - j) >= 2:
                t, h = lines[j].t, lines[j].h
                u = next((
                    u for u, v in enumerate(nxt) if v is not None and (t[v] != t[u] or h[v] != h[u])
                ), -1)
                if u >= 0:
                    faults.append((u, j, f"changes the color-{j} line position"))
        if faults:
            u, _, fault = min(faults)
            return _fail(name, f"{i}-edge ({g.vertices[u]}, {g.vertices[nxt[u]]}) {fault}")
        # convexity: along any i-line the labels must be 0s followed by 1s
        for j in (i - 1, i + 1):
            split = g.labels(i, j)[1] if 1 <= j <= g.n else ()
            if -1 in split:
                where = f"the {i}-line through {g.vertices[split.index(-1)]}"
                return _fail(name, f"labels along {where} are not monotone in color {j}")
    return _ok(name)


def critical_vertex(g: ColoredDigraph, v, i: int, j: int):
    """Critical vertex of the i-line through v with respect to color j, i.e. the
    vertex where the 0-labeled prefix ends; None when the labels are not split."""
    line = g.lines[i].path[g.index[v]]
    zeros = g.labels(i, j)[1][line[0]]
    return None if zeros < 0 else g.vertices[line[zeros]]


def check_A3(g: ColoredDigraph) -> Verdict:
    """Squares on 0-labeled outgoing edges; the same on the reversed view
    covers 1-labeled incoming edges and backward squares."""
    name = "A3"
    views = (
        (False, "at {u}: 0-labeled {a}-edge with non-1-labeled {b}-edge",
         "square at {u} for colors {a},{b} does not close"),
        (True, "at {u}: 1-labeled incoming {a}-edge with non-0-labeled {b}-edge",
         "backward square at {u} for colors {a},{b} does not close"),
    )
    for i in range(1, g.n):
        j = i + 1
        # per view and color order, the first position whose square fails
        faults = []
        for rank, (back, mismatch, square) in enumerate(views):
            step, label = _view(g, i, j, back)
            for a, b in ((i, j), (j, i)):
                go_a, go_b, label_b = step[a], step[b], label[b, a]
                u = next((
                    u for u, x in enumerate(label[a, b])
                    if x == 0 and (vp := go_b[u]) is not None
                    and (label_b[u] != 1 or (w := go_b[go_a[u]]) is None or w != go_a[vp])
                ), -1)
                if u >= 0:
                    fault = mismatch if label_b[u] != 1 else square
                    faults.append((u, rank, a, fault.format(u=g.vertices[u], a=a, b=b)))
        if faults:
            return _fail(name, min(faults)[3])
    return _ok(name)


def _chain(step: dict, v, colors):
    """Follow single successors for the given color sequence; None when a step is missing."""
    for c in colors:
        if v is None:
            return None
        v = step[c][v]
    return v


def check_A4(g: ColoredDigraph, strict: bool = False) -> Verdict:
    """Degree-4 Verma relation at vertices whose two outgoing neighboring-color
    edges both carry label 1; in strict mode also on the reversed view, the
    inverse relation (it is derivable from the other axioms)."""
    name = "A4"
    views = ((False, "Verma"), (True, "inverse Verma"))[: 2 if strict else 1]
    for i in range(1, g.n):
        j = i + 1
        # per view, the first position where the relation fails
        faults = []
        for rank, (back, relation) in enumerate(views):
            step, label = _view(g, i, j, back)
            u = next((
                u for u, x in enumerate(label[i, j])
                if x == 1 and label[j, i][u] == 1
                and ((w := _chain(step, u, (i, j, j, i))) is None
                     or w != _chain(step, u, (j, i, i, j)))
            ), -1)
            if u >= 0:
                faults.append((u, rank, relation))
        if faults:
            u, _, relation = min(faults)
            return _fail(name, f"{relation} relation fails at {g.vertices[u]} for colors {i},{j}")
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
        li, lj = g.lines[i], g.lines[j]
        split, back = g.labels(i, j)[1], g.labels(j, i)[1]
        # the starts of the i-lines without a critical vertex r, or whose r is
        # not critical on its j-line, which holds r at t_j[r]
        faults = [
            k for k in li.starts
            if split[k] < 0 or back[lj.path[r := li.path[k][split[k]]][0]] != lj.t[r]
        ]
        if faults:
            # the line met first in canonical order
            k = min(faults, key=lambda k: min(li.path[k]))
            r = critical_vertex(g, g.vertices[k], i, j)
            if r is None:
                return _fail(name, f"no critical vertex on the {i}-line through {g.vertices[k]}")
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
