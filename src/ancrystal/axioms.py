"""Independent verifier for the local axioms of n-colored crystal digraphs.

Works on a bare edge-list representation on purpose: it shares no code with the
generator it is used to check.  All checks return verdicts with a first
counterexample in canonical vertex order instead of raising.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, compress, repeat
from operator import add, is_, sub
from typing import Iterable, List, Optional

from .errors import CapExceededError, GraphFormatError, ParameterError, check_cap


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
    line and ``start[k]`` that line's first position (None on a cycle);
    ``starts`` holds the first positions of the lines, ascending, and
    ``order`` every line in turn, in the order of ``starts``, so the line
    from ``k`` in ``starts`` fills ``h[k] + 1`` entries.  Only meaningful once
    A1 holds.
    """

    nxt: list
    prv: list
    t: list
    h: list
    start: list
    order: list
    starts: list

    @staticmethod
    def walk(nxt: list, prv: list, positions) -> "Lines":
        """Lines of the given successors and predecessors, walked from every
        position without a predecessor; a vertex on a cycle keeps start None.
        ``positions`` yields the positions ascending, as the int objects that
        ``nxt`` and ``prv`` hold, so the tables share them."""
        size = len(nxt)
        t = [0] * size
        start = [None] * size
        starts = list(compress(positions, map(is_, prv, repeat(None))))
        order = []
        last = {None: 0}  # line start -> its last t; a vertex on a cycle keeps t = h = 0
        for k in starts:
            w, pos = k, 0
            while w is not None and start[w] is None:
                start[w] = k
                t[w] = pos
                order.append(w)
                pos += 1
                w = nxt[w]
            last[k] = pos - 1
        h = list(map(sub, map(last.__getitem__, start), t))
        return Lines(nxt, prv, t, h, start, order, starts)


@dataclass
class ColoredDigraph:
    """Vertices plus per-color edge sets; nothing about it is assumed valid.

    Edges are kept over vertex positions in canonical order, per color: the
    first head of tail ``k`` is ``nxt[c][k]`` and the first tail of head ``k``
    is ``prv[c][k]`` (None without one); any further heads and tails go, in
    edge order, to ``more_out[c][k]`` and ``more_in[c][k]``, which stay empty
    exactly when A1's degree conditions hold.  Only the colors with an edge
    are keys of these dicts and of ``lines``; ``line(c)`` reads any color.
    ``edges`` may be any iterable, a one-shot generator too: it is read once,
    and a color's tables are made when its first edge arrives.
    """

    vertices: tuple
    edges: InitVar[Iterable]  # (tail, head, color) triples, possibly with repeats; read once, not kept
    n: int
    index: dict = field(init=False, repr=False)  # vertex -> position in ``vertices``
    nxt: dict = field(init=False, repr=False)  # color -> [first head position]
    prv: dict = field(init=False, repr=False)  # color -> [first tail position]
    more_out: dict = field(init=False, repr=False)  # color -> tail position -> [further heads]
    more_in: dict = field(init=False, repr=False)  # color -> head position -> [further tails]
    edge_colors: tuple = field(init=False, repr=False)  # the colors with an edge, ascending
    # memos, which equality ignores: (i, j) -> labels() and (i, j) -> _view(back=True)
    _labels: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _reversed: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, edges):
        if type(self.n) is not int or self.n < 1:  # a bool is an int, too
            raise GraphFormatError(f"color count n must be an integer of at least 1, got {self.n!r}")
        try:
            order = sorted(self.vertices)
        except TypeError:
            order = sorted(self.vertices, key=str)
        self.vertices = tuple(order)
        self.index = index = {v: k for k, v in enumerate(self.vertices)}
        if len(index) != len(order):
            seen = set()
            for v in order:
                if v in seen:
                    raise GraphFormatError(f"vertex {v} is listed twice")
                seen.add(v)
        size = len(order)
        self.nxt = nxt = {}
        self.prv = prv = {}
        self.more_out = more_out = {}
        self.more_in = more_in = {}
        for (u, v, c) in edges:
            a, b, heads = index.get(u), index.get(v), nxt.get(c)
            if heads is None and type(c) is int and 0 < c <= self.n:  # the first edge of color c
                heads = nxt[c] = [None] * size
                prv[c], more_out[c], more_in[c] = [None] * size, {}, {}
            # 1.0 and True would read color 1's table
            if a is None or b is None or heads is None or type(c) is not int:
                raise GraphFormatError(f"edge ({u}, {v}, {c}) references unknown vertex or color")
            if heads[a] is None:
                heads[a] = b
            else:
                more_out[c].setdefault(a, []).append(b)
            tails = prv[c]
            if tails[b] is None:
                tails[b] = a
            else:
                more_in[c].setdefault(b, []).append(a)
        self.edge_colors = tuple(sorted(nxt))

    @cached_property
    def lines(self) -> dict:
        """color with an edge -> Lines, built on first use; a color with a cycle raises."""
        table = {}
        for c in self.edge_colors:
            table[c] = Lines.walk(self.nxt[c], self.prv[c], self.index.values())
            if None in table[c].start:
                raise GraphFormatError(f"color {c} contains a directed cycle")
        return table

    @cached_property
    def search(self) -> tuple:
        """(unreached, uneven): the least position that no route from position
        0 reaches and the first position that two routes reach with different
        depth codes, each None when there is none.  Built on first use.

        A breadth-first search from each not yet reached position in canonical
        order gives every vertex its depth vector: how many edges of each color,
        counted forward minus backward, lead to it from the root.  The search
        from 0 runs to its end, so the next root is the least unreached
        position; it stops there once both answers are known.  The vector is
        stored as one int, ``sum(d_c * B**r_c)`` with ``B = 2|V| + 3``, so one
        step is a single add.  A search path has fewer than |V| edges, so every
        coordinate met, even one step past a stored vector, lies in
        ``[-|V|, |V|]``.  Two such vectors differ in each coordinate by at most
        2|V| < B, so equal codes mean equal vectors.  Only colors with an edge
        have a coordinate, and any distinct powers of B keep the codes exact,
        so color c's unit is ``B**r_c``, r_c its rank among those colors.
        """
        depth = [None] * len(self.vertices)
        base = 2 * len(depth) + 3
        # at each vertex: colors ascending, out-heads before in-tails, and a
        # step's further heads or tails right after its first one
        steps = []
        for rank, c in enumerate(self.edge_colors):
            unit = base ** rank
            steps += [(self.nxt[c], self.more_out[c], unit), (self.prv[c], self.more_in[c], -unit)]
        firsts = [(first, unit) for first, _, unit in steps]
        overflow = set().union(*self.more_out.values(), *self.more_in.values())
        unreached = uneven = None
        root = 0
        while True:
            # the least unreached position lies at or after the last root
            try:
                root = depth.index(None, root)
            except ValueError:  # every position is reached
                break
            if unreached is None and root:
                unreached = root
            if uneven is not None:
                break
            depth[root] = 0
            queue = [root]
            for k in queue:  # the list is its own queue: the loop reads what it appends
                here = depth[k]
                if k in overflow:
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
                            elif there != step and uneven is None:
                                uneven = w
                    continue
                for first, unit in firsts:
                    w = first[k]
                    if w is None:
                        continue
                    there = depth[w]
                    if there is None:
                        depth[w] = here + unit
                        queue.append(w)
                    elif there != here + unit and uneven is None:
                        uneven = w
        return unreached, uneven

    @cached_property
    def blank(self) -> Lines:
        """The Lines of every color without an edge: each vertex a line of its own."""
        none = [None] * len(self.vertices)
        return Lines.walk(none, none, self.index.values())

    def line(self, c: int) -> Lines:
        """The Lines of color c in 1..n; a color without an edge reads ``blank``."""
        return self.lines.get(c) or self.blank

    def labels(self, i: int, j: int) -> tuple:
        """Per position, the label w.r.t. color j of its i-edge: 0 when t_j drops
        by one and h_j is unchanged, 1 when t_j is unchanged and h_j grows by
        one, 2 when neither holds (an A2 violation) and 3 without an i-edge;
        and, at the start of each i-line, how many 0-labels open it when its
        labels are 0s followed by 1s, else -1.  Built on first use."""
        if (i, j) not in self._labels:
            li, lj = self.line(i), self.line(j)
            t, h = lj.t, lj.h
            label = bytes([
                3 if v is None else 0 if t[v] == t[u] - 1 and h[v] == h[u]
                else 1 if t[v] == t[u] and h[v] == h[u] + 1 else 2
                for u, v in enumerate(li.nxt)
            ])
            split = array("i", [0]) * len(label)
            # every line's labels in turn, each closed by the 3 of its last vertex
            along = bytes(map(label.__getitem__, li.order))
            for k, run in zip(li.starts, along.split(b"\3")):
                ones = run.lstrip(b"\0")
                split[k] = -1 if ones.lstrip(b"\1") else len(run) - len(ones)
            self._labels[i, j] = (label, split)
        return self._labels[i, j]


def _check_size(ids, cap) -> None:
    """CapExceededError when the distinct ``ids`` number more than ``cap``
    (None for no cap): the count is known once parsing has the ids, before
    ``ColoredDigraph`` builds any table."""
    if cap is not None and len(ids) > check_cap(cap) and (size := len(set(ids))) > cap:
        raise CapExceededError(cap, size, "graph")


def from_edge_list_text(text: str, cap: Optional[int] = None) -> ColoredDigraph:
    """Parse the plain "tail head color" one-edge-per-line format; more than
    ``cap`` distinct vertex ids raise CapExceededError."""
    edges = []
    # vertex id -> itself: every edge end holds the first int parsed for its id
    vertices = {}
    intern = vertices.setdefault
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {ln}: expected 'tail head color', got {raw!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer field in {raw!r}")
        if c < 1:
            raise GraphFormatError(f"line {ln}: color must be >= 1, got {c}")
        edges.append((intern(u, u), intern(v, v), c))
    _check_size(vertices, cap)
    # ColoredDigraph puts the vertices in canonical order
    n = max((c for (_, _, c) in edges), default=1)
    return ColoredDigraph(vertices, edges, n)


def from_crystal_json(data: dict, cap: Optional[int] = None) -> ColoredDigraph:
    """The graph of a ``CrystalGraph.to_json()`` document; more than ``cap``
    distinct vertex ids raise CapExceededError."""
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
    _check_size(vertices, cap)
    return ColoredDigraph(vertices, edges, n)


# -- individual checks ---------------------------------------------------------


def check_nonempty_connected(g: ColoredDigraph) -> Verdict:
    name = "connected"
    if not g.vertices:
        return _fail(name, "graph has no vertices")
    missing = g.search[0]
    if missing is not None:
        return _fail(name, f"vertex {g.vertices[missing]} unreachable from {g.vertices[0]}")
    return _ok(name)


def check_A1(g: ColoredDigraph) -> Verdict:
    """Each monochromatic component must be a finite simple directed path."""
    name = "A1"
    for c in g.edge_colors:
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
    ``nxt``, and the a-edge out of u is the one into u in ``g``, its label
    flipped; built once per (i, j), so A3 and strict A4 share it."""
    if back and (i, j) in g._reversed:
        return g._reversed[i, j]
    step = {c: g.lines[c].prv if back else g.lines[c].nxt for c in (i, j)}
    label = {}
    for a, b in ((i, j), (j, i)):
        x = g.labels(a, b)[0]
        label[a, b] = bytes([3 if p is None else FLIP[x[p]] for p in step[a]]) if back else x
    if back:
        g._reversed[i, j] = step, label
    return step, label


def check_A2(g: ColoredDigraph) -> Verdict:
    name = "A2"
    lines = g.lines
    # a color without edges has no i-edge and keeps all t, h at 0; as a neighbor it breaks labels
    for i in g.edge_colors:
        nxt = lines[i].nxt
        tails = list(compress(range(len(nxt)), lines[i].h))  # the positions with an i-edge out
        # per color j, the first i-edge that breaks it: a neighboring color's
        # label is invalid, a distant color's line position changes
        faults = []
        for j in (i - 1, i + 1):
            if 1 <= j <= g.n:
                u = g.labels(i, j)[0].find(2)
                if u >= 0:
                    faults.append((u, j, f"has an invalid (t_{j}, h_{j}) change"))
        for j in g.edge_colors:
            if abs(i - j) >= 2:
                t, h = lines[j].t, lines[j].h
                u = next((u for u in tails if t[nxt[u]] != t[u] or h[nxt[u]] != h[u]), -1)
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
    vertex where the 0-labeled prefix ends; None when the labels are not split.
    A v that is no vertex of g, or an i or j that is no int in 1..n, is a
    ParameterError."""
    try:
        k = g.index[v]
    except (KeyError, TypeError):  # TypeError: v is unhashable
        raise ParameterError(f"{v!r} is not a vertex of the graph") from None
    for c in (i, j):
        if type(c) is not int or not 1 <= c <= g.n:  # a bool is an int, too
            raise ParameterError(f"color {c!r} is not one of the colors 1..{g.n}")
    li = g.line(i)
    k = li.start[k]
    zeros = g.labels(i, j)[1][k]
    if zeros < 0:
        return None
    for _ in range(zeros):
        k = li.nxt[k]
    return g.vertices[k]


def _neighbors(g: ColoredDigraph, both: bool) -> list:
    """The pairs (i, i + 1), ascending, in which one color has an edge; with ``both``, both do."""
    have = set(g.edge_colors)
    firsts = sorted({i for c in have for i in (c - 1, c) if 0 < i < g.n})
    return [(i, i + 1) for i in firsts if not both or i in have and i + 1 in have]


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
    for i, j in _neighbors(g, both=True):
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
    for i, j in _neighbors(g, both=True):
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
    distant = [(i, j) for i, j in combinations(g.edge_colors, 2) if j - i >= 2]
    # a color without edges has no operator to fail, and a fault needs an edge
    # of both colors at the vertex: only the positions on a line are visited
    on = {
        c: list(compress(range(len(g.vertices)), map(add, lines[c].t, lines[c].h)))
        for c in {c for pair in distant for c in pair}
    }
    for i, j in distant:
        li, lj = lines[i], lines[j]
        moves = [(fi, fj) for fi in (li.nxt, li.prv) for fj in (lj.nxt, lj.prv)]
        for v in min(on[i], on[j], key=len):
            for fi, fj in moves:
                a, b = fi[v], fj[v]
                if a is None or b is None:
                    continue
                w = fj[a]
                if w is None or w != fi[b]:
                    return _fail(name, f"colors {i},{j} do not commute at vertex {g.vertices[v]}")
    return _ok(name)


def check_equal_criticals(g: ColoredDigraph) -> Verdict:
    """The critical vertex of an i-line w.r.t. j must be critical on its own
    j-line w.r.t. i, for neighboring i, j."""
    name = "equal-criticals"
    for i, j in _neighbors(g, both=False):
        li, lj = g.line(i), g.line(j)
        split, back = g.labels(i, j)[1], g.labels(j, i)[1]
        # the starts of the i-lines without a critical vertex r, or whose r is
        # not critical on its j-line, which starts at start_j[r]; the i-line
        # from k fills order[first:first + h_i[k] + 1]
        firsts = accumulate((li.h[k] + 1 for k in li.starts), initial=0)
        faults = {
            k for k, first in zip(li.starts, firsts)
            if split[k] < 0 or back[lj.start[r := li.order[first + split[k]]]] != lj.t[r]
        }
        if faults:
            # the line met first in canonical order
            k = next(filter(faults.__contains__, li.start))
            r = critical_vertex(g, g.vertices[k], i, j)
            if r is None:
                return _fail(name, f"no critical vertex on the {i}-line through {g.vertices[k]}")
            return _fail(name, f"vertex {r}: critical for color {i} w.r.t. {j} but not conversely")
    return _ok(name)


def check_graded(g: ColoredDigraph) -> Verdict:
    """Consistent per-color edge counts along all routes; implies acyclicity."""
    name = "graded"
    if not g.vertices:
        return _fail(name, "graph has no vertices")
    uneven = g.search[1]
    if uneven is not None:
        return _fail(name, f"inconsistent color counts on routes to {g.vertices[uneven]}")
    return _ok(name)


def check_no_parallel_edges(g: ColoredDigraph) -> Verdict:
    """Two edges with the same ends leave a second head of one color in
    ``more_out`` or, of two colors, an uneven position in the search; given
    either sign, the tables name the least repeated (tail, head)."""
    name = "no-parallel-edges"
    if not any(g.more_out.values()) and g.search[1] is None:
        return _ok(name)
    size = len(g.vertices)
    keys = []  # tail position * |V| + head position, one per edge
    for c in g.edge_colors:
        keys += [k * size + w for k, w in enumerate(g.nxt[c]) if w is not None]
        keys += [k * size + w for k, heads in g.more_out[c].items() for w in heads]
    keys.sort()
    for a, b in zip(keys, keys[1:]):
        if a == b:
            return _fail(name, f"two edges from {g.vertices[a // size]} to {g.vertices[a % size]}")
    return _ok(name)


def check_unique_source_sink(g: ColoredDigraph) -> Verdict:
    """Exactly one vertex without incoming and one without outgoing edges; a
    position has an edge of color c exactly when its first one is recorded."""
    name = "unique-source-sink"
    colors = g.edge_colors
    sources = sinks = len(g.vertices)  # without edges, every vertex is both
    if colors:
        sources = sum(1 for tails in zip(*map(g.prv.get, colors)) if tails.count(None) == len(colors))
        sinks = sum(1 for heads in zip(*map(g.nxt.get, colors)) if heads.count(None) == len(colors))
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
    the checks in NEEDS_A1 are reported as skipped once A1 has failed.  No
    check raises: check_A1 catches what ``lines`` raises before they read it."""
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
        v = chk(g)
        verdicts.append(v)
        if fail_fast and not v.ok:
            break
        if name == "A1":
            a1_ok = v.ok
    return verdicts


def all_pass(verdicts) -> bool:
    return all(v.ok for v in verdicts)
