"""Weight functions on the supporting graph: bounds, feasibility, switch-nodes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InfeasibleError, ParameterError, check_integer, integer_tuple
from .support import NodeRef, SupportingGraph, build_supporting_graph

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Bounds:
    """Per-subgraph value window: d_k <= f <= c_k on the nodes of G^k."""

    c: tuple
    d: tuple

    def __post_init__(self):
        c = integer_tuple(self.c, "c")
        d = integer_tuple(self.d, "d")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if len(c) != len(d):
            raise ParameterError(f"bound tuples differ in length: {len(c)} vs {len(d)}")
        if any(ck < dk for ck, dk in zip(c, d)):
            raise ParameterError(f"upper bound below lower bound: c={c}, d={d}")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def width(self) -> tuple:
        """c - d: K(c, d) is K(c - d) with every value raised by d_k on G^k."""
        return tuple(ck - dk for ck, dk in zip(self.c, self.d))


def zero_bounds(c) -> Bounds:
    c = integer_tuple(c, "c")  # once: an iterator is empty the second time
    return Bounds(c, (0,) * len(c))


@dataclass(frozen=True)
class Violation:
    """First failed feasibility condition and where it was detected."""

    condition: str  # one of "monotone", "bounds", "switch"
    i: int
    j: int
    k: Optional[int]  # None for a switch violation (whole multinode)

    def __str__(self):
        where = f"V_{self.i}({self.j})" if self.k is None else f"v_{self.i}^{self.k}({self.j})"
        return f"{self.condition} violated at {where}"


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violation: Optional[Violation] = None


@dataclass(slots=True, unsafe_hash=True)
class WeightFunction:
    """Feasible integer weighting of the supporting graph, stored densely.

    ``values[p]`` is the weight of ``graph.nodes[p]`` (canonical node order), so
    the tuple doubles as a hashable vertex key for crystal generation.

    Equality and the hash follow the three fields, which are never reassigned.
    Slotted, not frozen: the closure's frontier holds many, one is built per
    accepted move, and a frozen dataclass's ``__init__`` costs about 3x more.

    ``scan`` is ``(i, scan)`` of the last ``level_slacks(f, i)``, or None: a
    cache that only ``level_slacks`` reads and writes: not an ``__init__``
    argument, and ignored by equality, the hash and the repr.
    """

    graph: SupportingGraph
    bounds: Bounds
    values: tuple
    scan: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def value(self, v: NodeRef) -> int:
        return self.values[self.graph.position(v)]

    def replace(self, v: NodeRef, new_value: int) -> "WeightFunction":
        vals = list(self.values)
        vals[self.graph.position(v)] = check_integer(new_value, f"the value at {v}")
        return WeightFunction(self.graph, self.bounds, tuple(vals))

    def subgraph_values(self, k: int) -> tuple:
        values = self.values
        return tuple(values[p] for p in self.graph.base_positions(k))

    def constants(self) -> tuple:
        """Per color k, the value f takes on all of G^k, or None where f is not
        constant on G^k."""
        return self.graph.constants_of(self.values)

    def is_principal(self) -> bool:
        return None not in self.constants()

    def to_json(self) -> dict:
        return {
            "n": self.graph.n,
            "c": list(self.bounds.c),
            "d": list(self.bounds.d),
            "values": [[v.k, v.i, v.j, x] for v, x in zip(self.graph.nodes, self.values)],
        }

    @staticmethod
    def from_json(data: dict) -> "WeightFunction":
        try:
            g = build_supporting_graph(data["n"])
            c, d = tuple(data["c"]), tuple(data["d"])
            entries = [(NodeRef(k, i, j), val) for k, i, j, val in data["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed weight-function JSON: {exc}") from exc
        source = "weight-function JSON"
        b = Bounds(integer_tuple(c, "c", source), integer_tuple(d, "d", source))
        if b.n != g.n:
            raise ParameterError(f"{source} has bound tuples of length {b.n}, expected n={g.n}")
        raw = {}
        for v, val in entries:
            if not g.is_node(v):  # also refuses 1.0 and True, which would name a real node
                raise ParameterError(f"{source} names {v}, which is not a node of G")
            if v in raw:
                raise ParameterError(f"{source} gives {v} a value twice")
            raw[v] = val
        return _feasible(g, b, _node_values(g, raw, source))


def is_feasible(g: SupportingGraph, f, b: Bounds) -> FeasibilityReport:
    """Check per node, in canonical order, its bounds and then its edges
    (``g.heads``), then each multinode's switch test; a verdict, not a raise.

    ``f`` maps every G-node to an integer (a dict or a WeightFunction).  Bounds
    whose length is not ``g.n`` have no node to violate: a ``ParameterError``,
    like a function of another n, a map that misses a node or gives one a
    value that is not an int.
    """
    if b.n != g.n:
        raise ParameterError(f"bound tuples have length {b.n}, expected n={g.n}")
    if isinstance(f, WeightFunction) and f.graph.n != g.n:
        raise ParameterError(f"the weight function has n={f.graph.n}, expected n={g.n}")
    values = f.values if isinstance(f, WeightFunction) else _node_values(g, f)
    for v, x, heads in zip(g.nodes, values, g.heads):
        if not b.d[v.k - 1] <= x <= b.c[v.k - 1]:
            return FeasibilityReport(False, Violation("bounds", v.i, v.j, v.k))
        # outgoing NE and SE edges must not increase f
        if any(x < values[q] for q in heads):
            return FeasibilityReport(False, Violation("monotone", v.i, v.j, v.k))
    for m in g.multinodes.values():  # built in (i, j) order
        lo, end = m.switch(values)
        if lo >= end:
            return FeasibilityReport(False, Violation("switch", m.i, m.j, None))
    return FeasibilityReport(True)


def _node_values(g: SupportingGraph, f, source: str = "the caller") -> tuple:
    """The values of the NodeRef->int map ``f`` in canonical order; a node
    without a value, or whose value is not an int, is a ParameterError that
    names ``source``."""
    values = []
    for v in g.nodes:
        if v not in f:
            raise ParameterError(f"{source} has no value for {v}")
        values.append(check_integer(f[v], v, source))
    return tuple(values)


def make_weight_function(g: SupportingGraph, f, b: Bounds) -> WeightFunction:
    """Build a WeightFunction from a NodeRef->int map, validating feasibility."""
    return _feasible(g, b, _node_values(g, f))


def _feasible(g: SupportingGraph, b: Bounds, values: tuple) -> WeightFunction:
    """The function with these values, or an InfeasibleError naming its first violation."""
    wf = WeightFunction(g, b, values)
    report = is_feasible(g, wf, b)
    if not report.ok:
        raise InfeasibleError(str(report.violation))
    return wf


def switch_node(f: WeightFunction, i: int, j: int, direction: str) -> NodeRef:
    """Switch-node of multinode V_i(j), read off its one record: first
    qualifying member going forward, last one going backward."""
    g = f.graph
    if i.__class__ is not int or j.__class__ is not int:
        g.multinode(i, j)  # checked before the lookup, where True and 1.0 would hash like 1
    try:
        m = g.multinodes[i, j]
    except KeyError:
        g.multinode(i, j)  # raises: there is no V_i(j)
        raise
    lo, end = m.switch(f.values)
    if lo >= end:
        raise InfeasibleError(f"no switch-node in V_{i}({j}); function is not feasible")
    if direction == FORWARD:
        return m.members[lo]
    elif direction == BACKWARD:
        return m.members[end - 1]
    else:
        raise ParameterError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")


def principal_function(g: SupportingGraph, a, b: Bounds) -> WeightFunction:
    """The function taking the constant value a_k on each base subgraph G^k."""
    a = integer_tuple(a, "a")
    if b.n != g.n:
        raise ParameterError(f"bound tuples have length {b.n}, expected n={g.n}")
    if len(a) != g.n:
        raise ParameterError(f"principal tuple has length {len(a)}, expected {g.n}")
    if any(not b.d[k] <= a[k] <= b.c[k] for k in range(g.n)):
        raise ParameterError(f"principal tuple {a} outside bounds c={b.c}, d={b.d}")
    vals = tuple(a[v.k - 1] for v in g.nodes)
    return WeightFunction(g, b, vals)
