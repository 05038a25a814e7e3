"""Generation of the n-colored crystal digraph and graph-level services."""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, islice, repeat
from operator import lt
from typing import Iterator, Optional, Tuple

from .errors import (
    CapExceededError, ModelError, ParameterError, check_cap, check_integer, integer_tuple,
)
from .gt import weyl_dimension
from .moves import forward_move, string_lengths
from .support import SupportingGraph, build_supporting_graph, check_color_count
from .weights import Bounds, WeightFunction, principal_function

DEFAULT_CAP = 2_000_000

_DOT_PALETTE = (
    "black", "red", "blue", "forestgreen", "darkorange",
    "purple", "saddlebrown", "deeppink",
)


@dataclass
class CrystalGraph:
    """Colored digraph on weight functions; at most one edge per color each way.

    Stored as columns over vertex ids, which are discovery order:
    ``keys[v]`` is the value tuple of vertex v's weight function (the
    canonical vertex key, ``key_to_id`` its inverse), and for each color c
    ``nxt[c][v]``/``prv[c][v]`` are the head of v's outgoing and the tail of
    its incoming c-edge (-1 for none) and ``h[c][v]``/``t[c][v]`` its head and
    tail string lengths, all ``array('i')``.  ``function(v)`` builds the
    weight function on demand.

    Equality follows ``graph``, ``bounds``, ``colors``, ``keys`` and ``nxt``;
    ``prv``, ``h`` and ``t`` are derived from ``nxt``, so they are not
    compared.  A graph is unhashable.
    """

    graph: SupportingGraph
    bounds: Bounds
    colors: tuple
    keys: tuple
    nxt: dict  # color -> array('i') of head ids, -1 for none
    prv: dict = field(compare=False)  # color -> array('i') of tail ids, -1 for none
    h: dict = field(compare=False)  # color -> array('i') of head string lengths
    t: dict = field(compare=False)  # color -> array('i') of tail string lengths

    # -- basics ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_vertices(self) -> int:
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        return sum(len(col) - col.count(-1) for col in self.nxt.values())

    def vertex_ids(self) -> range:
        return range(self.num_vertices)

    def check_vertex_id(self, v: int) -> int:
        """v itself when it is an id of this crystal, else a ParameterError:
        a bool or non-int would read another vertex or fail in the columns, a
        negative id would index from the end, and -1 is a column's "none"."""
        check_integer(v, "vertex id")
        if not 0 <= v < len(self.keys):
            raise ParameterError(
                f"vertex id {v} out of range for a crystal of {len(self.keys)} vertices"
            )
        return v

    def check_color(self, c: int) -> int:
        """c itself when it is one of this crystal's colors, else a
        ParameterError: True or 1.0 would read color 1's columns."""
        check_integer(c, "color")
        if c not in self.colors:
            raise ParameterError(f"color {c} is not one of the crystal's colors {self.colors}")
        return c

    def function(self, v: int) -> WeightFunction:
        return WeightFunction(self.graph, self.bounds, self.keys[self.check_vertex_id(v)])

    def vertex_by_function(self, f: WeightFunction) -> int:
        """The id of the vertex keyed ``f.values``; a subgraph may lack it."""
        try:
            return self.key_to_id[f.values]
        except KeyError:
            raise ParameterError(f"no vertex of the crystal has the values {f.values}") from None

    @cached_property
    def key_to_id(self) -> dict:
        return {key: v for v, key in enumerate(self.keys)}

    def _end_flags(self, columns, colors=None) -> bytes:
        """Per vertex id, 1 when its entry is -1 in the column of every color
        (by default the graph's colors), else 0: the sources when ``columns``
        is ``prv``, the sinks when it is ``nxt``.  Without colors every vertex
        is an end."""
        colors = self.colors if colors is None else colors
        num = self.num_vertices
        # one int per color, whose byte v is 1 when v's entry is -1 (below 0):
        # one AND per color
        ends = int.from_bytes(b"\1" * num, "little")
        for c in colors:
            ends &= int.from_bytes(bytes(map(lt, columns[c], repeat(0))), "little")
        return ends.to_bytes(num, "little")

    def _unique_end(self, columns) -> Optional[int]:
        """The one id that is -1 in every column, or None when there is not one."""
        ends = compress(self.vertex_ids(), self._end_flags(columns))
        first = next(ends, None)
        return first if next(ends, None) is None else None

    @cached_property
    def source(self) -> Optional[int]:
        return self._unique_end(self.prv)

    @cached_property
    def sink(self) -> Optional[int]:
        return self._unique_end(self.nxt)

    @cached_property
    def constants(self) -> tuple:
        """Per vertex id, the graph's compiled ``constants_of`` of its key:
        per color k, the value it takes on all of G^k, or None.  Computed once
        per crystal; equal tuples are one object."""
        interned = {}
        return tuple(interned.setdefault(a, a) for a in map(self.graph.constants_of, self.keys))

    def wt(self, v: int) -> dict:
        self.check_vertex_id(v)
        return {c: self.h[c][v] - self.t[c][v] for c in self.colors}

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """All (tail, head, color) triples, sorted by tail then color."""
        order = sorted(self.colors)
        for v, heads in enumerate(zip(*(self.nxt[c] for c in order))):
            for c, w in zip(order, heads):
                if w >= 0:
                    yield (v, w, c)

    def _rows(self, columns) -> Iterator[tuple]:
        """Per vertex, its entries of the per-color ``columns`` in color order."""
        if not self.colors:
            return repeat((), self.num_vertices)
        return zip(*(columns[c] for c in self.colors))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        rows = zip(self.keys, self._rows(self.h), self._rows(self.t))
        data = {
            "n": self.n,
            "c": list(self.bounds.c),
            "d": list(self.bounds.d),
            "vertices": [
                {"id": v, "weights": list(key), "h": list(hv), "t": list(tv)}
                for v, (key, hv, tv) in enumerate(rows)
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

    def dot_chunks(self) -> Iterator[str]:
        """The DOT text of this graph, ``JSON_CHUNK`` lines at a time."""

        def lines():
            yield "digraph crystal {\n"
            for v, (key, a) in enumerate(zip(self.keys, self.constants)):
                if None not in a:
                    label = "p" + "".join(str(x) for x in a)
                else:
                    label = hashlib.sha1(repr(key).encode()).hexdigest()[:8]
                yield f'  v{v} [label="{label}"];\n'
            for (u, w, c) in self.edges():
                color = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
                yield f'  v{u} -> v{w} [label="{c}", color="{color}"];\n'
            yield "}\n"

        text = lines()
        while chunk := "".join(islice(text, JSON_CHUNK)):
            yield chunk

    def to_dot(self) -> str:
        return "".join(self.dot_chunks())


# Records (or DOT lines) per chunk of the writers: ``json_chunks`` and
# ``dot_chunks`` render, and hand over, one chunk at a time.  It bounds what a
# writer holds beyond its input to one chunk of values and text: about 100 kB
# of build JSON at n = 4 (200 kB at n = 6) and 12 kB of DOT, where the whole
# text of a 200 000-vertex crystal takes over 100 MB.
JSON_CHUNK = 256


def _json_records(name: str, records: list) -> Iterator[str]:
    """The nonempty list ``data[name]`` of records at indent 2, as
    ``json.dumps`` prints it, one chunk of ``JSON_CHUNK`` records at a time.

    The first record fixes the shape: its keys, in order, and per key an int,
    a string or an int list of a fixed length.  One ``%`` template made from
    it renders each chunk with one format.  A record of another shape raises
    ``ValueError`` instead of coming out otherwise than from ``json.dumps``:
    other keys or key order, a list of another length, or a value of another
    type, such as a bool where ``%d`` would print True as 1.  The entries of
    an int list are not checked one by one (that made the writer about 30%
    slower): ``%d`` refuses a string or None there, but prints a bool or a
    float as an int.
    """
    keys = tuple(records[0])
    fields = []  # (key, int or str for a value of that type, or a list's length)
    lines = []
    for key, x in records[0].items():
        if type(key) is not str:
            raise ValueError(f"{name}[0] has the key {key!r}, not a string")
        if type(x) is list:
            # json.dumps's layout of the list one level deeper, a %d per entry
            kind = len(x)
            value = json.dumps([0] * kind, indent=2).replace("0", "%d").replace("\n", "\n      ")
        elif type(x) is int:
            kind, value = int, "%d"
        elif type(x) is str:
            kind, value = str, "%s"  # of its json.dumps
        else:
            raise ValueError(f"{name}[0][{key!r}] is {x!r}, not an int, a string or an int list")
        fields.append((key, kind))
        lines.append(f"      {json.dumps(key).replace('%', '%%')}: {value}")
    template = "    {\n" + ",\n".join(lines) + "\n    }" if lines else "    {}"
    opening = "[\n"
    for start in range(0, len(records), JSON_CHUNK):
        chunk = records[start:start + JSON_CHUNK]
        shapes = list(map(tuple, chunk))
        if shapes.count(keys) < len(shapes):
            i = next(i for i, shape in enumerate(shapes) if shape != keys)
            raise ValueError(f"{name}[{start + i}] has the keys {shapes[i]}; {name}[0] has {keys}")
        out = []
        append = out.append
        for i, r in enumerate(chunk, start):
            for key, kind in fields:
                x = r[key]
                if type(x) is kind:
                    append(x if kind is int else json.dumps(x))
                elif type(x) is list and len(x) == kind:
                    out += x
                elif type(x) is list:
                    raise ValueError(
                        f"{name}[{i}] has {len(x)} {key!r} entries; {name}[0] has {kind}"
                    )
                else:
                    raise ValueError(
                        f"{name}[{i}][{key!r}] is {x!r}, of another type than in {name}[0]"
                    )
        yield opening + ",\n".join([template] * len(chunk)) % tuple(out)
        opening = ",\n"
    yield "\n  ]"


def json_chunks(data: dict) -> Iterator[str]:
    """``json.dumps(data, indent=2) + "\\n"``, one chunk of ``JSON_CHUNK``
    records at a time, so that a writer never holds the whole text.

    A nonempty list of dicts is written as records of one shape (see
    ``_json_records``): a ``to_json()`` crystal's vertices and edges, or an
    analyze report's subcrystals.  Any other value is small, and
    ``json.dumps`` writes it whole.
    """
    opening = "{\n"
    for key, value in data.items():
        if type(key) is not str:
            raise ValueError(f"key {key!r} is not a string")
        yield f"{opening}  {json.dumps(key)}: "
        if value and type(value) is list and type(value[0]) is dict:
            yield from _json_records(key, value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        opening = ",\n"
    yield "\n}\n"


def json_text(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\\n"`` for a ``json_chunks`` document,
    written from its records' shapes: with ``indent`` set, CPython's json
    encoder falls back to pure Python, which costs several times this."""
    return "".join(json_chunks(data))


def _measured_strings(num, nxt, prv, colors):
    """Per-color head/tail string length columns read off the graph itself.

    Each c-line is walked once from its start, the vertex with no
    c-predecessor; a vertex at position p of a line of length L gets
    t = p and h = L - 1 - p.
    """
    h = {}
    t = {}
    for c in colors:
        hc = array("i", [0]) * num
        tc = array("i", [0]) * num
        succ = nxt[c]
        for v, u in enumerate(prv[c]):
            if u >= 0:
                continue
            line = [v]
            w = succ[v]
            while w >= 0:
                line.append(w)
                w = succ[w]
            last = len(line) - 1
            for p, w in enumerate(line):
                tc[w] = p
                hc[w] = last - p
        h[c] = hc
        t[c] = tc
    return h, t


def generate(n: int, c, d=None, cap: int = DEFAULT_CAP) -> CrystalGraph:
    """Crystal digraph K(c, d): closure of the constant-d function under all
    forward moves, vertices deduplicated by their value tuples.

    The parameters and the exact size, the Weyl dimension, are checked before
    the supporting graph is built, so a crystal above ``cap`` costs no work.
    The size is also the closure's only bound: the columns are allocated once
    at that length, and a closure that finds more or fewer is a ModelError."""
    check_cap(cap)
    check_color_count(n)
    c = integer_tuple(c, "c")
    d = (0,) * n if d is None else integer_tuple(d, "d")
    if len(c) != n or len(d) != n:
        raise ParameterError(f"bound tuples must have length n={n}")
    b = Bounds(c, d)
    size = weyl_dimension(b.c, b.d)
    if size > cap:
        raise CapExceededError(cap, size, "crystal")
    g = build_supporting_graph(n)
    colors = tuple(range(1, n + 1))
    f0 = principal_function(g, d, b)
    keys = [f0.values]
    key_to_id = {f0.values: 0}
    nxt = [array("i", [-1]) * size for _ in colors]
    prv = [array("i", [-1]) * size for _ in colors]
    h = [array("i", [0]) * size for _ in colors]
    t = [array("i", [0]) * size for _ in colors]
    columns = tuple(zip(colors, h, t, nxt, prv))
    # ids are handed out in the order vertices enter the frontier, so the
    # vertex taken off it is always the next id
    frontier = deque([f0])
    v = -1
    while frontier:
        f = frontier.popleft()
        v += 1
        for i, hc, tc, heads, tails in columns:
            hc[v], tc[v] = string_lengths(f, i)
            moved = forward_move(f, i)
            if moved is None:
                continue
            key = moved.values
            w = key_to_id.get(key)
            if w is None:
                w = len(keys)
                if w == size:
                    raise ModelError(f"the closure passed the Weyl dimension {size}")
                key_to_id[key] = w
                keys.append(key)
                frontier.append(moved)
            heads[v] = w
            if tails[w] >= 0:
                raise ModelError(f"vertex {w} received two incoming {i}-edges")
            tails[w] = v
    if len(keys) != size:
        raise ModelError(f"the closure found {len(keys)} vertices, not the Weyl dimension {size}")
    K = CrystalGraph(
        graph=g, bounds=b, colors=colors, keys=tuple(keys),
        nxt=dict(zip(colors, nxt)), prv=dict(zip(colors, prv)),
        h=dict(zip(colors, h)), t=dict(zip(colors, t)),
    )
    if K.source != 0:
        raise ModelError("generation produced more than one zero-indegree vertex")
    if K.sink is None:
        raise ModelError("generation produced more than one zero-outdegree vertex")
    return K


def subgraph(K: CrystalGraph, vertex_ids, colors=None) -> CrystalGraph:
    """Induced subgraph on the given vertices, optionally restricted to a color
    subset; vertex ids are renumbered in ascending original-id order."""
    colors = K.colors if colors is None else tuple(map(K.check_color, colors))
    if len(set(colors)) < len(colors):
        raise ParameterError(f"colors {colors} name a color twice")
    # each id is checked before the set merges True into 1 or 1.0 into 1
    ids = sorted(set(map(K.check_vertex_id, vertex_ids)))
    # -1, the "none" entry, is not an id, so it maps to itself, and so does
    # the end of an edge that leaves the subgraph
    new_id = dict(zip(ids, range(len(ids)))).get
    none = repeat(-1)

    def remap(col):
        return array("i", map(new_id, map(col.__getitem__, ids), none))

    nxt = {c: remap(K.nxt[c]) for c in colors}
    prv = {c: remap(K.prv[c]) for c in colors}
    h, t = _measured_strings(len(ids), nxt, prv, colors)
    return CrystalGraph(
        graph=K.graph, bounds=K.bounds, colors=colors,
        keys=tuple(map(K.keys.__getitem__, ids)), nxt=nxt, prv=prv, h=h, t=t,
    )


def dual(K: CrystalGraph) -> CrystalGraph:
    """Edge-reversed crystal with colors kept; source and sink trade places."""
    return replace(K, nxt=K.prv, prv=K.nxt, h=K.t, t=K.h)


def _mark_reachable(start: int, columns, mark: bytearray) -> list:
    """Mark ``start`` and every unmarked id reachable from it along the id
    ``columns`` (-1 for none) in ``mark``; return those ids in visit order.

    The caller supplies ``mark`` (one byte per id, ``start`` unmarked), so
    one array serves every component of a graph."""
    mark[start] = 1
    found = [start]
    for v in found:  # breadth first: the list is the queue
        for col in columns:
            w = col[v]
            if w >= 0 and not mark[w]:
                mark[w] = 1
                found.append(w)
    return found


def interval(K: CrystalGraph, u: int, v: int) -> CrystalGraph:
    """Subgraph of vertices and edges lying on directed paths from u to v."""
    K.check_vertex_id(u)
    K.check_vertex_id(v)
    from_u = _mark_reachable(u, K.nxt.values(), bytearray(K.num_vertices))
    to_v = bytearray(K.num_vertices)
    _mark_reachable(v, K.prv.values(), to_v)
    # u reaches v exactly when u is marked in the backward search from v
    return subgraph(K, compress(from_u, map(to_v.__getitem__, from_u)) if to_v[u] else ())


def find_isomorphism(K1: CrystalGraph, K2: CrystalGraph, color_map=None) -> Optional[dict]:
    """Vertex bijection matching per-color edges, or None.

    Valid for crystal-like graphs only: with at most one outgoing edge per
    color, following matched successors from the two sources is both sound and
    complete.  ``color_map`` translates K1 colors to K2 colors.
    """
    if color_map is None:
        color_map = {c: c for c in K1.colors}
    for c in K1.colors:
        if c not in color_map:
            raise ParameterError(f"color_map gives no image for color {c} of the first graph")
    if sorted(color_map[c] for c in K1.colors) != sorted(K2.colors):
        return None
    if K1.num_vertices != K2.num_vertices:
        return None
    if K1.num_vertices == 0:
        return {}
    if K1.source is None or K2.source is None:
        raise ParameterError("isomorphism matching requires unique sources")
    pairs = [(K1.nxt[c], K2.nxt[color_map[c]]) for c in K1.colors]
    m = {K1.source: K2.source}
    rm = {K2.source: K1.source}
    queue = deque([K1.source])
    while queue:
        v1 = queue.popleft()
        v2 = m[v1]
        for col1, col2 in pairs:
            w1, w2 = col1[v1], col2[v2]
            if w1 < 0 or w2 < 0:
                if w1 != w2:
                    return None
            elif w1 in m:
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
    v = K.check_vertex_id(start)
    for i in range(1, K.n + 1):
        for c in range(i, 0, -1):
            col = K.nxt.get(c)
            while col is not None and col[v] >= 0:
                v = col[v]
    return v
