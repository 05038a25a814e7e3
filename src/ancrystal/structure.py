"""Structural analyses of generated crystals: principal lattice, skeleton,
fundamental strings, subcrystal decompositions, branching multiplicities."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains, not_, sub
from typing import Dict, List, Optional, Tuple

from .crystal import (
    CrystalGraph,
    _mark_reachable,
    find_isomorphism,
    generate,
    interval,
    subgraph,
)
from .errors import ModelError, ParameterError, integer_tuple
from .support import build_supporting_graph, check_color, check_color_count
from .weights import principal_function

UPPER = "upper"
LOWER = "lower"


# -- principal lattice ---------------------------------------------------------


@dataclass(frozen=True)
class PrincipalLattice:
    """Map from constant-per-subgraph value tuples to their vertex ids."""

    by_tuple: dict

    @property
    def size(self) -> int:
        return len(self.by_tuple)

    def vertex(self, a) -> int:
        a = integer_tuple(a, "a")
        if a not in self.by_tuple:
            raise ParameterError(f"no principal vertex of the crystal has the values {a}")
        return self.by_tuple[a]

    def tuples(self) -> list:
        return sorted(self.by_tuple)


def principal_lattice(K: CrystalGraph) -> PrincipalLattice:
    by_tuple = {}
    for v, a in enumerate(K.constants):
        if None not in a:
            by_tuple[a] = v
    return PrincipalLattice(by_tuple)


def principal_interval(K: CrystalGraph, a, b) -> CrystalGraph:
    """Interval between the principal vertices at a and b; an RAN-crystal with
    parameter b - a."""
    a = integer_tuple(a, "a")
    b = integer_tuple(b, "b")
    bd = K.bounds
    if not (len(a) == len(b) == K.n):
        raise ParameterError(f"principal tuples must have length {K.n}")
    if not all(bd.d[k] <= a[k] <= b[k] <= bd.c[k] for k in range(K.n)):
        raise ParameterError(f"need d <= a <= b <= c, got a={a}, b={b}")
    g = K.graph
    u = K.vertex_by_function(principal_function(g, a, bd))
    v = K.vertex_by_function(principal_function(g, b, bd))
    return interval(K, u, v)


# -- skeleton ------------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonPiece:
    """Vertices whose weight function varies only on the base subgraph G^k; the
    fixed constants on the other subgraphs identify the piece."""

    k: int
    fixed: tuple  # (n-1)-tuple of constants a_i, i != k, in increasing i
    vertex_ids: tuple  # ascending ambient ids; subgraph(K, ids) is the graph


@dataclass(frozen=True)
class Skeleton:
    pieces: tuple
    vertex_ids: tuple  # sorted union of the pieces' ids in the ambient crystal

    def pieces_for(self, k: int) -> list:
        return [p for p in self.pieces if p.k == k]


def base_crystal(n: int, k: int, ck: int) -> CrystalGraph:
    """The crystal whose parameter tuple is ck at color k and zero elsewhere."""
    check_color(k, check_color_count(n))
    c = tuple(ck if i == k else 0 for i in range(1, n + 1))
    return generate(n, c)


def skeleton(K: CrystalGraph) -> Skeleton:
    # a vertex's pieces depend only on its constants tuple: group the ids by
    # it, then cut the (k, fixed) keys once per distinct tuple
    by_constants: Dict[tuple, List[int]] = {}
    for v, consts in enumerate(K.constants):
        by_constants.setdefault(consts, []).append(v)
    groups: Dict[Tuple[int, tuple], List[int]] = {}
    for consts, vs in by_constants.items():
        for k in range(1, K.n + 1):
            fixed = consts[:k - 1] + consts[k:]
            if None not in fixed:
                groups.setdefault((k, fixed), []).extend(vs)
    pieces = tuple(
        SkeletonPiece(k, fixed, tuple(sorted(ids))) for (k, fixed), ids in sorted(groups.items())
    )
    union = {v for p in pieces for v in p.vertex_ids}
    return Skeleton(pieces, tuple(sorted(union)))


# -- fundamental strings -------------------------------------------------------


@dataclass(frozen=True)
class FundamentalString:
    """Level string realizing the step to a k-th immediate principal successor.

    ``levels`` is the written string, whose rightmost entry is the first move to
    apply (operator strings compose right to left)."""

    k: int
    levels: tuple

    def __str__(self):
        return "".join(str(x) for x in self.levels)

    @property
    def application_order(self) -> tuple:
        return tuple(reversed(self.levels))


def fundamental_strings(n: int, k: int) -> set:
    """All fundamental strings for color k: one per linear order of the base
    subgraph G^k whose prefixes are closed under predecessors."""
    g = build_supporting_graph(n)
    nodes = g.base_nodes(k)
    preds = {v: [] for v in nodes}
    for (u, w) in g.edges():
        if u.k == k:
            preds[w].append(u)
    out = set()
    order: list = []
    chosen: set = set()

    def extend():
        if len(order) == len(nodes):
            out.add(FundamentalString(k, tuple(v.i for v in reversed(order))))
            return
        for v in nodes:
            if v not in chosen and all(u in chosen for u in preds[v]):
                chosen.add(v)
                order.append(v)
                extend()
                order.pop()
                chosen.remove(v)

    extend()
    return out


def canonical_string(n: int, k: int) -> FundamentalString:
    """The stacked-path string: the segment (i)(i+1)...(i+k-1) for each start
    i = n-k+1 down to 1."""
    check_color(k, check_color_count(n))
    levels = []
    for i in range(n - k + 1, 0, -1):
        levels.extend(range(i, i + k))
    return FundamentalString(k, tuple(levels))


def apply_string(K: CrystalGraph, v: int, string: FundamentalString) -> Optional[int]:
    """Follow the string's moves from vertex v; None when some move is missing."""
    K.check_vertex_id(v)
    for i in string.application_order:
        heads = K.nxt.get(i)
        if heads is None or heads[v] < 0:
            return None
        v = heads[v]
    return v


# -- subcrystal decomposition --------------------------------------------------


@dataclass(frozen=True)
class SubcrystalRecord:
    side: str  # UPPER keeps colors 1..n-1, LOWER keeps colors 2..n
    anchor: tuple  # n-tuple: fixed bottom-level (upper) or top-level (lower) values
    vertex_ids: tuple  # ascending ambient ids; subgraph(K, ids, colors) is the graph
    parameter: tuple  # (n-1)-tuple, measured at the component source
    principal_vertex: int  # ambient id of the record's one principal vertex

    @property
    def size(self) -> int:
        return len(self.vertex_ids)


def _side(K: CrystalGraph, side: str) -> tuple:
    """``(colors, parameter)`` of a side: the colors it keeps, UPPER dropping
    color n and LOWER color 1, each checked by ``K.check_color`` (a subgraph
    may lack some of them), and its parameter formula."""
    if side == UPPER:
        colors, parameter = range(1, K.n), upper_parameter
    elif side == LOWER:
        colors, parameter = range(2, K.n + 1), lower_parameter
    else:
        raise ParameterError(f"side must be '{UPPER}' or '{LOWER}', got {side!r}")
    return tuple(map(K.check_color, colors)), parameter


def _side_columns(K: CrystalGraph, colors) -> list:
    """The id columns along which a component of the given colors spreads."""
    return [K.nxt[c] for c in colors] + [K.prv[c] for c in colors]


def _line_length(K: CrystalGraph, v: int, color: int) -> int:
    """Number of color-edges on the line walked along ``K.nxt`` from v."""
    col = K.nxt[color]
    m = 0
    while col[v] >= 0:
        v, m = col[v], m + 1
    return m


def _minus(a, d) -> tuple:
    return tuple(map(sub, a, d))


def upper_parameter(c, a) -> tuple:
    if len(c) != len(a):
        raise ParameterError(f"c and a differ in length: {len(c)} vs {len(a)}")
    return tuple(c[i] - a[i] + a[i + 1] for i in range(len(c) - 1))


def lower_parameter(c, a) -> tuple:
    if len(c) != len(a):
        raise ParameterError(f"c and a differ in length: {len(c)} vs {len(a)}")
    return tuple(c[i] - a[i] + a[i - 1] for i in range(1, len(c)))


def subcrystals(K: CrystalGraph, side: str) -> List[SubcrystalRecord]:
    """Components after removing the top (upper) or bottom (lower) color.

    The measured parameter (each kept color's line length from the component's
    source, walked in K: a component is closed under its colors) must match the
    anchor-based formula; a mismatch is a model error, not a warning.  Anchors
    are raw values of f; the formula reads them and c as offsets from d, since
    K(c, d) is K(c - d) shifted by d.
    """
    n = K.n
    colors, parameter = _side(K, side)
    g = K.graph
    ends = [g.index[g.bottom(k) if side == UPPER else g.top(k)] for k in range(1, n + 1)]
    c, d = K.bounds.width, K.bounds.d
    columns = _side_columns(K, colors)
    # per vertex: no incoming edge of a kept color, and constant on every G^k
    is_source = K._end_flags(K.prv, colors)
    is_principal = bytes(map(not_, map(contains, K.constants, repeat(None))))
    records = []
    mark = bytearray(K.num_vertices)
    # each start is the least unmarked id, so the least id of its component
    start = mark.find(0)
    while start >= 0:
        comp = sorted(_mark_reachable(start, columns, mark))
        anchor = tuple(map(K.keys[start].__getitem__, ends))
        formula = parameter(c, _minus(anchor, d))
        sources = list(compress(comp, map(is_source.__getitem__, comp)))
        if len(sources) != 1:
            raise ModelError(f"{side} component through vertex {start} has no unique source")
        measured = tuple(_line_length(K, sources[0], col) for col in colors)
        if measured != formula:
            raise ModelError(
                f"{side} subcrystal at anchor {anchor}: measured parameter "
                f"{measured} differs from formula {formula}"
            )
        principals = list(compress(comp, map(is_principal.__getitem__, comp)))
        if len(principals) != 1:
            raise ModelError(
                f"{side} subcrystal at anchor {anchor} contains "
                f"{len(principals)} principal vertices"
            )
        records.append(SubcrystalRecord(side, anchor, tuple(comp), formula, principals[0]))
        start = mark.find(0, start + 1)
    records.sort(key=lambda r: r.anchor)
    return records


def principal_location(K: CrystalGraph, a, side: str) -> tuple:
    """Coordinates of the principal vertex at a inside the principal lattice of
    its upper or lower subcrystal: a - d shifted by one color.

    The formula answer is cross-checked by mapping the vertex's component onto
    a freshly generated reference crystal and reading the coordinates off the
    image's constants.
    """
    if K.n < 2:
        raise ParameterError(f"principal_location needs n >= 2 colors, got n={K.n}")
    a = integer_tuple(a, "a")
    colors, parameter = _side(K, side)
    v = K.vertex_by_function(principal_function(K.graph, a, K.bounds))
    shifted = _minus(a, K.bounds.d)
    formula = shifted[1:] if side == UPPER else shifted[:-1]
    comp = sorted(_mark_reachable(v, _side_columns(K, colors), bytearray(K.num_vertices)))
    ref = generate(K.n - 1, parameter(K.bounds.width, shifted))
    color_map = {col: p for p, col in enumerate(colors, start=1)}
    m = find_isomorphism(subgraph(K, comp, colors), ref, color_map)
    if m is None:
        raise ModelError(f"{side} subcrystal at {a} does not match its reference crystal")
    located = ref.graph.constants_of(ref.keys[m[comp.index(v)]])
    if located != formula:
        raise ModelError(
            f"principal vertex {a}: located at {located} in its {side} subcrystal, "
            f"formula says {formula}"
        )
    return formula


def branching_multiplicity(c, q) -> int:
    """Number of upper subcrystals of the crystal with parameter c that share
    the (n-1)-tuple parameter q."""
    c = integer_tuple(c, "c")
    if not c or min(c) < 0:
        raise ParameterError(f"c must be a nonempty tuple of nonnegative entries, got {c}")
    q = integer_tuple(q, "q")
    n = len(c)
    if len(q) != n - 1:
        raise ParameterError(f"parameter tuple must have length {n - 1}, got {len(q)}")
    # a_i = S_i - Q_i + a_n with S_i = c_i+..+c_{n-1} and Q_i = q_i+..+q_{n-1}
    # is forced by q and a_n, and 0 <= a_i <= c_i bounds a_n to one interval
    lo, hi = 0, c[n - 1]
    for i in range(n - 1):
        slack = sum(q[i:]) - sum(c[i:n - 1])  # Q_i - S_i
        lo, hi = max(lo, slack), min(hi, c[i] + slack)
    return max(0, hi - lo + 1)
