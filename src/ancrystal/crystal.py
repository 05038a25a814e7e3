"""Generation of the n-colored crystal digraph and graph-level services."""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import CapExceededError, ModelError, ParameterError
from .moves import forward_move, string_lengths
from .support import build_supporting_graph
from .weights import Bounds, WeightFunction, principal_function

DEFAULT_CAP = 2_000_000

_DOT_PALETTE = (
    "black", "red", "blue", "forestgreen", "darkorange",
    "purple", "saddlebrown", "deeppink",
)


@dataclass(eq=False)
class CrystalGraph:
    """Colored digraph on weight functions; at most one edge per color each way.

    Vertex ids are discovery order; ``functions[v]`` is the weight function of
    vertex v and its dense value tuple is the canonical vertex key.
    """

    n: int
    bounds: Bounds
    colors: tuple
    functions: tuple
    succ: tuple  # per vertex: dict color -> head id
    pred: tuple  # per vertex: dict color -> tail id
    h: tuple  # per vertex: dict color -> head string length
    t: tuple  # per vertex: dict color -> tail string length
    source: Optional[int]
    sink: Optional[int]
    key_to_id: dict = field(repr=False)

    # -- basics ----------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.functions)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.succ)

    def vertex_ids(self) -> range:
        return range(self.num_vertices)

    def vertex_by_function(self, f: WeightFunction) -> int:
        return self.key_to_id[f.values]

    def wt(self, v: int) -> dict:
        return {c: self.h[v][c] - self.t[v][c] for c in self.colors}

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """All (tail, head, color) triples, sorted by tail then color."""
        for v in self.vertex_ids():
            for c in sorted(self.succ[v]):
                yield (v, self.succ[v][c], c)

    def __eq__(self, other):
        if not isinstance(other, CrystalGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.bounds == other.bounds
            and self.colors == other.colors
            and [f.values for f in self.functions] == [f.values for f in other.functions]
            and list(self.succ) == list(other.succ)
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "c": list(self.bounds.c),
            "d": list(self.bounds.d),
            "vertices": [
                {
                    "id": v,
                    "weights": list(self.functions[v].values),
                    "h": [self.h[v][c] for c in self.colors],
                    "t": [self.t[v][c] for c in self.colors],
                }
                for v in self.vertex_ids()
            ],
            "edges": [
                {"from": u, "to": w, "color": c} for (u, w, c) in self.edges()
            ],
        }
        if self.colors != tuple(range(1, self.n + 1)):
            data["colors"] = list(self.colors)
        return data

    def to_edge_list_text(self) -> str:
        return "".join(f"{u} {w} {c}\n" for (u, w, c) in self.edges())

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for v in self.vertex_ids():
            f = self.functions[v]
            a = f.constants()
            if None not in a:
                label = "p" + "".join(str(x) for x in a)
            else:
                label = hashlib.sha1(repr(f.values).encode()).hexdigest()[:8]
            lines.append(f'  v{v} [label="{label}"];')
        for (u, w, c) in self.edges():
            color = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
            lines.append(f'  v{u} -> v{w} [label="{c}", color="{color}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _json_ints(xs, pad: str) -> str:
    """An int list as ``json.dumps(..., indent=2)`` prints it at indent ``pad``."""
    if not xs:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(map(str, xs)) + "\n" + pad + "]"


def _json_block(items) -> str:
    """A list of pre-rendered objects at indent 2, as ``json.dumps`` prints it."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def json_text(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\n"`` for a ``CrystalGraph.to_json()``
    dict, written from its fixed shape: with ``indent`` set, CPython's json
    encoder falls back to pure Python, which costs several times this."""
    pad = " " * 6
    vertices = [
        f'    {{\n      "id": {v["id"]},\n'
        f'      "weights": {_json_ints(v["weights"], pad)},\n'
        f'      "h": {_json_ints(v["h"], pad)},\n'
        f'      "t": {_json_ints(v["t"], pad)}\n    }}'
        for v in data["vertices"]
    ]
    edges = [
        f'    {{\n      "from": {e["from"]},\n      "to": {e["to"]},\n'
        f'      "color": {e["color"]}\n    }}'
        for e in data["edges"]
    ]
    parts = [
        f'{{\n  "n": {data["n"]},\n'
        f'  "c": {_json_ints(data["c"], "  ")},\n'
        f'  "d": {_json_ints(data["d"], "  ")},\n'
        f'  "vertices": {_json_block(vertices)},\n'
        f'  "edges": {_json_block(edges)}'
    ]
    if "colors" in data:
        parts.append(f',\n  "colors": {_json_ints(data["colors"], "  ")}')
    parts.append("\n}\n")
    return "".join(parts)


def _measured_strings(num, succ, pred, colors):
    """Per-vertex head/tail string lengths read off the graph itself.

    Each c-line is walked once from its start, the vertex with no
    c-predecessor; a vertex at position p of a line of length L gets
    t = p and h = L - 1 - p.
    """
    h = [{} for _ in range(num)]
    t = [{} for _ in range(num)]
    for c in colors:
        for v in range(num):
            if c in pred[v]:
                continue
            line = [v]
            nxt = succ[v].get(c)
            while nxt is not None:
                line.append(nxt)
                nxt = succ[nxt].get(c)
            last = len(line) - 1
            for p, w in enumerate(line):
                t[w][c] = p
                h[w][c] = last - p
    return tuple(h), tuple(t)


def _unique_end(num, adj) -> Optional[int]:
    ends = [v for v in range(num) if not adj[v]]
    return ends[0] if len(ends) == 1 else None


def generate(n: int, c, d=None, cap: int = DEFAULT_CAP) -> CrystalGraph:
    """Crystal digraph K(c, d): closure of the constant-d function under all
    forward moves, vertices deduplicated by their value tuples."""
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ParameterError(f"vertex cap must be an integer, got {cap!r}")
    if cap < 1:
        raise ParameterError(f"vertex cap must be positive, got {cap}")
    g = build_supporting_graph(n)  # validates n before it is used
    c = tuple(int(x) for x in c)
    if d is None:
        d = (0,) * n
    d = tuple(int(x) for x in d)
    if len(c) != n or len(d) != n:
        raise ParameterError(f"bound tuples must have length n={n}")
    b = Bounds(c, d)
    f0 = principal_function(g, d, b)
    functions: List[WeightFunction] = [f0]
    key_to_id: Dict[tuple, int] = {f0.values: 0}
    succ: List[dict] = [{}]
    pred: List[dict] = [{}]
    queue = deque([0])
    while queue:
        v = queue.popleft()
        f = functions[v]
        for i in range(1, n + 1):
            moved = forward_move(f, i)
            if moved is None:
                continue
            key = moved.values
            w = key_to_id.get(key)
            if w is None:
                if len(functions) >= cap:
                    raise CapExceededError(cap, len(functions))
                w = len(functions)
                key_to_id[key] = w
                functions.append(moved)
                succ.append({})
                pred.append({})
                queue.append(w)
            succ[v][i] = w
            if i in pred[w]:
                raise ModelError(f"vertex {w} received two incoming {i}-edges")
            pred[w][i] = v
    colors = tuple(range(1, n + 1))
    h = []
    t = []
    for f in functions:
        pairs = [string_lengths(f, i) for i in colors]
        h.append({i: p[0] for i, p in zip(colors, pairs)})
        t.append({i: p[1] for i, p in zip(colors, pairs)})
    num = len(functions)
    source = _unique_end(num, pred)
    sink = _unique_end(num, succ)
    if source != 0:
        raise ModelError("generation produced more than one zero-indegree vertex")
    if sink is None:
        raise ModelError("generation produced more than one zero-outdegree vertex")
    return CrystalGraph(
        n=n, bounds=b, colors=colors, functions=tuple(functions),
        succ=tuple(succ), pred=tuple(pred), h=tuple(h), t=tuple(t),
        source=source, sink=sink, key_to_id=key_to_id,
    )


def subgraph(K: CrystalGraph, vertex_ids, colors=None) -> CrystalGraph:
    """Induced subgraph on the given vertices, optionally restricted to a color
    subset; vertex ids are renumbered in ascending original-id order."""
    if colors is None:
        colors = K.colors
    colors = tuple(colors)
    ids = sorted(set(vertex_ids))
    new_id = {v: p for p, v in enumerate(ids)}
    functions = tuple(K.functions[v] for v in ids)
    succ = []
    pred = []
    for v in ids:
        succ.append(
            {c: new_id[w] for c, w in K.succ[v].items() if c in colors and w in new_id}
        )
        pred.append(
            {c: new_id[w] for c, w in K.pred[v].items() if c in colors and w in new_id}
        )
    h, t = _measured_strings(len(ids), succ, pred, colors)
    key_to_id = {f.values: p for p, f in enumerate(functions)}
    return CrystalGraph(
        n=K.n, bounds=K.bounds, colors=colors, functions=functions,
        succ=tuple(succ), pred=tuple(pred), h=h, t=t,
        source=_unique_end(len(ids), pred), sink=_unique_end(len(ids), succ),
        key_to_id=key_to_id,
    )


def dual(K: CrystalGraph) -> CrystalGraph:
    """Edge-reversed crystal with colors kept; source and sink trade places."""
    return CrystalGraph(
        n=K.n, bounds=K.bounds, colors=K.colors, functions=K.functions,
        succ=K.pred, pred=K.succ, h=K.t, t=K.h,
        source=K.sink, sink=K.source, key_to_id=K.key_to_id,
    )


def _reachable(K: CrystalGraph, start: int, adj) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v].values():
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def interval(K: CrystalGraph, u: int, v: int) -> CrystalGraph:
    """Subgraph of vertices and edges lying on directed paths from u to v."""
    ids = _reachable(K, u, K.succ) & _reachable(K, v, K.pred)
    if u not in ids or v not in ids:
        ids = set()
    return subgraph(K, ids)


def find_isomorphism(K1: CrystalGraph, K2: CrystalGraph, color_map=None) -> Optional[dict]:
    """Vertex bijection matching per-color edges, or None.

    Valid for crystal-like graphs only: with at most one outgoing edge per
    color, following matched successors from the two sources is both sound and
    complete.  ``color_map`` translates K1 colors to K2 colors.
    """
    if color_map is None:
        color_map = {c: c for c in K1.colors}
    if sorted(color_map[c] for c in K1.colors) != sorted(K2.colors):
        return None
    if K1.num_vertices != K2.num_vertices:
        return None
    if K1.num_vertices == 0:
        return {}
    if K1.source is None or K2.source is None:
        raise ParameterError("isomorphism matching requires unique sources")
    m = {K1.source: K2.source}
    rm = {K2.source: K1.source}
    queue = deque([K1.source])
    while queue:
        v1 = queue.popleft()
        v2 = m[v1]
        s1 = {color_map[c]: w for c, w in K1.succ[v1].items()}
        s2 = dict(K2.succ[v2])
        if set(s1) != set(s2):
            return None
        for c, w1 in s1.items():
            w2 = s2[c]
            if w1 in m:
                if m[w1] != w2:
                    return None
            elif w2 in rm:
                return None
            else:
                m[w1] = w2
                rm[w2] = w1
                queue.append(w1)
    if len(m) != K1.num_vertices:
        return None
    return m


def isomorphic(K1: CrystalGraph, K2: CrystalGraph, color_map=None) -> bool:
    return find_isomorphism(K1, K2, color_map) is not None


def find_sink_by_operators(K: CrystalGraph, start: int) -> int:
    """Reach a zero-outdegree vertex by saturating colors in the fixed schedule
    1; 2,1; 3,2,1; ...; the result must be the crystal's sink."""
    v = start
    for i in range(1, K.n + 1):
        for c in range(i, 0, -1):
            while c in K.succ[v]:
                v = K.succ[v][c]
    return v
