"""Independent verifier for the local axioms of n-colored crystal digraphs.

Works on a bare edge-list representation on purpose: it shares no code with the
generator it is used to check.  All checks return verdicts with a first
counterexample in canonical vertex order instead of raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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


@dataclass
class ColoredDigraph:
    """Vertices plus per-color edge sets; nothing about it is assumed valid."""

    vertices: tuple
    edges: tuple  # (tail, head, color) triples, possibly with repeats
    n: int
    out: dict = field(init=False, repr=False)  # color -> tail -> [heads]
    inn: dict = field(init=False, repr=False)  # color -> head -> [tails]
    _lines: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        try:
            order = sorted(self.vertices)
        except TypeError:
            order = sorted(self.vertices, key=str)
        self.vertices = tuple(order)
        self.edges = tuple(self.edges)
        self.out = {c: {} for c in range(1, self.n + 1)}
        self.inn = {c: {} for c in range(1, self.n + 1)}
        vset = set(self.vertices)
        for (u, v, c) in self.edges:
            if c not in self.out or u not in vset or v not in vset:
                raise GraphFormatError(f"edge ({u}, {v}, {c}) references unknown vertex or color")
            self.out[c].setdefault(u, []).append(v)
            self.inn[c].setdefault(v, []).append(u)

    # single successor/predecessor accessors; only meaningful once A1 holds
    def f(self, v, c):
        heads = self.out[c].get(v)
        return heads[0] if heads else None

    def f_inv(self, v, c):
        tails = self.inn[c].get(v)
        return tails[0] if tails else None

    def line(self, v, c) -> list:
        """The maximal color-c path through v, as a vertex list."""
        lines, where = self._line_index(c)
        return lines[where[v][0]]

    def position(self, v, c) -> Tuple[int, int]:
        """(t_c(v), h_c(v)): distances to the ends of the c-line through v."""
        lines, where = self._line_index(c)
        li, pos = where[v]
        return pos, len(lines[li]) - 1 - pos

    def _line_index(self, c):
        if self._lines is None:
            self._lines = {}
        if c not in self._lines:
            lines = []
            where = {}
            for v in self.vertices:
                if v in where or self.inn[c].get(v):
                    continue
                path = [v]
                where[v] = (len(lines), 0)
                w = self.f(v, c)
                while w is not None and w not in where:
                    where[w] = (len(lines), len(path))
                    path.append(w)
                    w = self.f(w, c)
                lines.append(path)
            if len(where) != len(self.vertices):
                raise GraphFormatError(f"color {c} contains a cycle; lines are undefined")
            self._lines[c] = (lines, where)
        return self._lines[c]


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
    if not g.vertices:
        return _fail(name, "graph has no vertices")
    seen = {g.vertices[0]}
    queue = deque(seen)
    undirected = {v: set() for v in g.vertices}
    for (u, v, _) in g.edges:
        undirected[u].add(v)
        undirected[v].add(u)
    while queue:
        v = queue.popleft()
        for w in undirected[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(g.vertices):
        missing = next(v for v in g.vertices if v not in seen)
        return _fail(name, f"vertex {missing} unreachable from {g.vertices[0]}")
    return _ok(name)


def check_A1(g: ColoredDigraph) -> Verdict:
    """Each monochromatic component must be a finite simple directed path."""
    name = "A1"
    for c in range(1, g.n + 1):
        for v in g.vertices:
            if len(g.out[c].get(v, ())) > 1:
                return _fail(name, f"vertex {v} has two outgoing {c}-edges")
            if len(g.inn[c].get(v, ())) > 1:
                return _fail(name, f"vertex {v} has two incoming {c}-edges")
        try:
            g._line_index(c)
        except GraphFormatError:
            return _fail(name, f"color {c} contains a directed cycle")
    return _ok(name)


def _label(g: ColoredDigraph, u, v, i, j) -> Optional[int]:
    """Label of the i-edge (u, v) with respect to the neighboring color j.

    0 when t_j drops by one and h_j is unchanged, 1 when t_j is unchanged and
    h_j grows by one; None when neither pattern holds (an A2 violation).
    """
    tu, hu = g.position(u, j)
    tv, hv = g.position(v, j)
    if (tv, hv) == (tu - 1, hu):
        return 0
    if (tv, hv) == (tu, hu + 1):
        return 1
    return None


def check_A2(g: ColoredDigraph) -> Verdict:
    name = "A2"
    for i in range(1, g.n + 1):
        for u in g.vertices:
            v = g.f(u, i)
            if v is None:
                continue
            for j in range(1, g.n + 1):
                if j == i:
                    continue
                if abs(i - j) >= 2:
                    if g.position(u, j) != g.position(v, j):
                        return _fail(
                            name, f"{i}-edge ({u}, {v}) changes the color-{j} line position"
                        )
                elif _label(g, u, v, i, j) is None:
                    return _fail(
                        name,
                        f"{i}-edge ({u}, {v}) has an invalid (t_{j}, h_{j}) change",
                    )
        # convexity: along any i-line the labels must be 0s followed by 1s
        for j in (i - 1, i + 1):
            if not 1 <= j <= g.n:
                continue
            for line in g._line_index(i)[0]:
                labels = [_label(g, line[p], line[p + 1], i, j) for p in range(len(line) - 1)]
                if any(
                    labels[p] == 1 and labels[p + 1] == 0 for p in range(len(labels) - 1)
                ):
                    return _fail(
                        name,
                        f"labels along the {i}-line through {line[0]} are not monotone in color {j}",
                    )
    return _ok(name)


def critical_vertex(g: ColoredDigraph, v, i: int, j: int):
    """Critical vertex of the i-line through v with respect to color j, i.e. the
    vertex where the 0-labeled prefix ends; None when the labels are not split."""
    line = g.line(v, i)
    labels = [_label(g, line[p], line[p + 1], i, j) for p in range(len(line) - 1)]
    if None in labels or any(
        labels[p] == 1 and labels[p + 1] == 0 for p in range(len(labels) - 1)
    ):
        return None
    return line[labels.count(0)]


def check_A3(g: ColoredDigraph) -> Verdict:
    name = "A3"
    for i in range(1, g.n + 1):
        for j in (i + 1,):
            if j > g.n:
                continue
            for u in g.vertices:
                for (a, b) in ((i, j), (j, i)):
                    v = g.f(u, a)
                    vp = g.f(u, b)
                    if v is None or vp is None:
                        continue
                    if _label(g, u, v, a, b) == 0:
                        if _label(g, u, vp, b, a) != 1:
                            return _fail(
                                name,
                                f"at {u}: 0-labeled {a}-edge with non-1-labeled {b}-edge",
                            )
                        w1 = g.f(v, b)
                        w2 = g.f(vp, a)
                        if w1 is None or w1 != w2:
                            return _fail(name, f"square at {u} for colors {a},{b} does not close")
                for (a, b) in ((i, j), (j, i)):
                    v = u
                    tu = g.f_inv(v, a)
                    tup = g.f_inv(v, b)
                    if tu is None or tup is None:
                        continue
                    if _label(g, tu, v, a, b) == 1:
                        if _label(g, tup, v, b, a) != 0:
                            return _fail(
                                name,
                                f"at {v}: 1-labeled incoming {a}-edge with non-0-labeled {b}-edge",
                            )
                        w1 = g.f_inv(tu, b)
                        w2 = g.f_inv(tup, a)
                        if w1 is None or w1 != w2:
                            return _fail(
                                name, f"backward square at {v} for colors {a},{b} does not close"
                            )
    return _ok(name)


def _chain(g: ColoredDigraph, v, colors, inverse=False):
    """Apply F (or F^{-1}) for the given color sequence; None when a step is missing."""
    step = g.f_inv if inverse else g.f
    for c in colors:
        if v is None:
            return None
        v = step(v, c)
    return v


def check_A4(g: ColoredDigraph, strict: bool = False) -> Verdict:
    """Degree-4 Verma relation at vertices whose two outgoing neighboring-color
    edges both carry label 1; the incoming-edge half only in strict mode (it is
    derivable from the other axioms)."""
    name = "A4"
    for i in range(1, g.n):
        j = i + 1
        for u in g.vertices:
            v = g.f(u, i)
            vp = g.f(u, j)
            if v is not None and vp is not None:
                if _label(g, u, v, i, j) == 1 and _label(g, u, vp, j, i) == 1:
                    w1 = _chain(g, u, (i, j, j, i))
                    w2 = _chain(g, u, (j, i, i, j))
                    if w1 is None or w2 is None or w1 != w2:
                        return _fail(name, f"Verma relation fails at {u} for colors {i},{j}")
            if not strict:
                continue
            tu = g.f_inv(u, i)
            tup = g.f_inv(u, j)
            if tu is not None and tup is not None:
                if _label(g, tu, u, i, j) == 0 and _label(g, tup, u, j, i) == 0:
                    w1 = _chain(g, u, (i, j, j, i), inverse=True)
                    w2 = _chain(g, u, (j, i, i, j), inverse=True)
                    if w1 is None or w2 is None or w1 != w2:
                        return _fail(
                            name, f"inverse Verma relation fails at {u} for colors {i},{j}"
                        )
    return _ok(name)


def check_A5(g: ColoredDigraph) -> Verdict:
    """Full commutation of the operators of colors at distance two or more."""
    name = "A5"
    for i in range(1, g.n + 1):
        for j in range(i + 2, g.n + 1):
            for v in g.vertices:
                for fi in (g.f, g.f_inv):
                    for fj in (g.f, g.f_inv):
                        a = fi(v, i)
                        b = fj(v, j)
                        if a is None or b is None:
                            continue
                        w1 = fj(a, j)
                        w2 = fi(b, i)
                        if w1 is None or w1 != w2:
                            return _fail(
                                name, f"colors {i},{j} do not commute at vertex {v}"
                            )
    return _ok(name)


def check_equal_criticals(g: ColoredDigraph) -> Verdict:
    """The critical vertex of an i-line w.r.t. j must be critical on its own
    j-line w.r.t. i, for neighboring i, j."""
    name = "equal-criticals"
    for i in range(1, g.n):
        j = i + 1
        done = set()
        for v in g.vertices:
            line = g.line(v, i)
            if line[0] in done:
                continue
            done.add(line[0])
            r = critical_vertex(g, v, i, j)
            if r is None:
                return _fail(name, f"no critical vertex on the {i}-line through {line[0]}")
            if critical_vertex(g, r, j, i) != r:
                return _fail(
                    name,
                    f"vertex {r}: critical for color {i} w.r.t. {j} but not conversely",
                )
    return _ok(name)


def check_graded(g: ColoredDigraph) -> Verdict:
    """Consistent per-color edge counts along all routes; implies acyclicity."""
    name = "graded"
    if not g.vertices:
        return _fail(name, "graph has no vertices")
    depth = {}
    for root in g.vertices:
        if root in depth:
            continue
        depth[root] = (0,) * g.n
        queue = deque([root])
        while queue:
            v = queue.popleft()
            steps = []
            for c in range(1, g.n + 1):
                for w in g.out[c].get(v, ()):
                    steps.append((w, c, +1))
                for w in g.inn[c].get(v, ()):
                    steps.append((w, c, -1))
            for (w, c, sign) in steps:
                d = list(depth[v])
                d[c - 1] += sign
                d = tuple(d)
                if w in depth:
                    if depth[w] != d:
                        return _fail(name, f"inconsistent color counts on routes to {w}")
                else:
                    depth[w] = d
                    queue.append(w)
    return _ok(name)


def check_no_parallel_edges(g: ColoredDigraph) -> Verdict:
    name = "no-parallel-edges"
    seen = set()
    for (u, v, _) in g.edges:
        if (u, v) in seen:
            return _fail(name, f"two edges from {u} to {v}")
        seen.add((u, v))
    return _ok(name)


def check_unique_source_sink(g: ColoredDigraph) -> Verdict:
    name = "unique-source-sink"
    indeg = {v: 0 for v in g.vertices}
    outdeg = {v: 0 for v in g.vertices}
    for (u, v, _) in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    sources = [v for v in g.vertices if indeg[v] == 0]
    sinks = [v for v in g.vertices if outdeg[v] == 0]
    if len(sources) != 1:
        return _fail(name, f"expected one zero-indegree vertex, found {len(sources)}")
    if len(sinks) != 1:
        return _fail(name, f"expected one zero-outdegree vertex, found {len(sinks)}")
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
