"""Weight functions on the supporting graph: bounds, feasibility, switch-nodes."""

from __future__ import annotations

from dataclasses import dataclass
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
    c = tuple(c)  # once: an iterator is empty the second time
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


class WeightFunction:
    """Feasible integer weighting of the supporting graph, stored densely.

    ``values[p]`` is the weight of ``graph.nodes[p]`` (canonical node order), so
    the tuple doubles as a hashable vertex key for crystal generation.

    A plain ``__slots__`` class rather than a frozen dataclass: one is built
    per accepted move, and a frozen dataclass's ``__init__`` costs about three
    times this one.  Equality and the hash follow the three fields.
    """

    __slots__ = ("graph", "bounds", "values")

    def __init__(self, graph: SupportingGraph, bounds: Bounds, values: tuple):
        self.graph = graph
        self.bounds = bounds
        self.values = values

    def _fields(self) -> tuple:
        return (self.graph, self.bounds, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"WeightFunction(graph={self.graph!r}, bounds={self.bounds!r}, values={self.values!r})"

    def value(self, v: NodeRef) -> int:
        return self.values[self._position(v)]

    def replace(self, v: NodeRef, new_value: int) -> "WeightFunction":
        vals = list(self.values)
        vals[self._position(v)] = new_value
        return WeightFunction(self.graph, self.bounds, tuple(vals))

    def _position(self, v: NodeRef) -> int:
        try:
            return self.graph.index[v]
        except KeyError:
            raise ParameterError(f"{v} is not a node of G for n={self.graph.n}") from None

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
            "values": [[v.k, v.i, v.j, self.value(v)] for v in self.graph.nodes],
        }

    @staticmethod
    def from_json(data: dict) -> "WeightFunction":
        try:
            g = build_supporting_graph(data["n"])
            c, d = tuple(data["c"]), tuple(data["d"])
            entries = [((k, i, j), val) for k, i, j, val in data["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed weight-function JSON: {exc}") from exc
        source = "weight-function JSON"
        b = Bounds(integer_tuple(c, "c", source), integer_tuple(d, "d", source))
        if b.n != g.n:
            raise ParameterError(f"{source} has bound tuples of length {b.n}, expected n={g.n}")
        raw = {}
        for coords, val in entries:
            for x in coords:
                # 1.0 or True would equal a coordinate and name a real node
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ParameterError(
                        f"weight-function JSON names a node by the non-integer coordinate {x!r}"
                    )
            v = NodeRef(*coords)
            if v not in g.index:
                raise ParameterError(f"weight-function JSON names {v}, which is not a node of G")
            if v in raw:
                raise ParameterError(f"weight-function JSON gives {v} a value twice")
            check_integer(val, v, source)
            raw[v] = val
        for v in g.nodes:
            if v not in raw:
                raise ParameterError(f"weight-function JSON has no value for {v}")
        return make_weight_function(g, raw, b)


def is_feasible(g: SupportingGraph, f, b: Bounds) -> FeasibilityReport:
    """Check monotonicity, bounds, and the switch condition; a verdict, not a raise.

    ``f`` maps every G-node to an integer (a dict or a WeightFunction).  Bounds
    whose length is not ``g.n`` have no node to violate: a ``ParameterError``.
    """
    if b.n != g.n:
        raise ParameterError(f"bound tuples have length {b.n}, expected n={g.n}")
    values = f.values if isinstance(f, WeightFunction) else tuple(f[v] for v in g.nodes)
    for v, x in zip(g.nodes, values):
        if not b.d[v.k - 1] <= x <= b.c[v.k - 1]:
            return FeasibilityReport(False, Violation("bounds", v.i, v.j, v.k))
        # outgoing NE and SE edges must not increase f
        for head in (NodeRef(v.k, v.i - 1, v.j), NodeRef(v.k, v.i + 1, v.j + 1)):
            if g.is_node(head) and x < values[g.index[head]]:
                return FeasibilityReport(False, Violation("monotone", v.i, v.j, v.k))
    for (i, j) in sorted(g.multinodes):
        lo, end = g.switch_ranges[i, j](values)
        if lo >= end:
            return FeasibilityReport(False, Violation("switch", i, j, None))
    return FeasibilityReport(True)


def make_weight_function(g: SupportingGraph, f, b: Bounds) -> WeightFunction:
    """Build a WeightFunction from a NodeRef->int map, validating feasibility."""
    vals = tuple(f[v] if not isinstance(f, WeightFunction) else f.value(v) for v in g.nodes)
    wf = WeightFunction(g, b, vals)
    report = is_feasible(g, wf, b)
    if not report.ok:
        raise InfeasibleError(str(report.violation))
    return wf


def switch_node(f: WeightFunction, i: int, j: int, direction: str) -> NodeRef:
    """Switch-node of multinode V_i(j): first qualifying member going forward,
    last one going backward."""
    g = f.graph
    try:
        switch_range = g.switch_ranges[i, j]
    except KeyError:
        raise ParameterError(f"no multinode V_{i}({j}) for n={g.n}") from None
    lo, end = switch_range(f.values)
    if lo >= end:
        raise InfeasibleError(f"no switch-node in V_{i}({j}); function is not feasible")
    if direction == FORWARD:
        return g.multinodes[i, j].members[lo]
    elif direction == BACKWARD:
        return g.multinodes[i, j].members[end - 1]
    else:
        raise ParameterError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")


def principal_function(g: SupportingGraph, a, b: Bounds) -> WeightFunction:
    """The function taking the constant value a_k on each base subgraph G^k."""
    a = integer_tuple(a, "a")
    if len(a) != g.n:
        raise ParameterError(f"principal tuple has length {len(a)}, expected {g.n}")
    if any(not b.d[k] <= a[k] <= b.c[k] for k in range(g.n)):
        raise ParameterError(f"principal tuple {a} outside bounds c={b.c}, d={b.d}")
    vals = tuple(a[v.k - 1] for v in g.nodes)
    return WeightFunction(g, b, vals)
