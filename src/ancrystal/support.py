"""Supporting graph of the model: base subgraphs, multinodes, and the extension.

The graph for ``n`` colors is the disjoint union of base subgraphs ``G^1 .. G^n``;
``G^k`` is a rhombic grid of shape ``(k-1) x (n-k)`` whose nodes are addressed as
``v_i^k(j)``.  The extended graph adds a fringe of extra nodes around every base
subgraph, which carry the bound ``c_k`` on the left of ``G^k`` and ``d_k`` on its
right.  ``build_supporting_graph`` precomputes the whole extension once as the
``slot`` table, so a value on the extended graph is a single lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import ParameterError


class NodeRef(NamedTuple):
    """Identity (k, i, j) of the node v_i^k(j): base subgraph k, level i, position j."""

    k: int
    i: int
    j: int

    @property
    def canonical_key(self):
        return (self.i, self.j, self.k)


@dataclass(frozen=True)
class Multinode:
    """Multinode V_i(j): the nodes v_i^k(j) across base subgraphs, ordered by k."""

    i: int
    j: int
    members: tuple


@dataclass(frozen=True)
class SupportingGraph:
    """Immutable supporting graph for ``n`` colors.

    Nodes are held in canonical order (sorted by (i, j, k)); ``index`` maps a
    NodeRef to its position in that order, which is also the layout of the dense
    weight vectors used as crystal-vertex keys.

    ``slot`` maps every node of the extended graph to its position in the vector
    ``values + c + d`` of a weight function: a node of G to its own index, an
    extra node left of G^k to ``c_k`` and one right of G^k to ``d_k``.  Its keys
    are exactly the extended nodes.
    """

    n: int
    nodes: tuple
    index: dict = field(compare=False, repr=False)
    multinodes: dict = field(compare=False, repr=False)
    slot: dict = field(compare=False, repr=False)

    def is_node(self, v: NodeRef) -> bool:
        """True iff v is a node of G (not merely of the extension)."""
        k, i, j = v
        return 1 <= k <= self.n and 1 <= j <= self.n - k + 1 and 0 <= i - j <= k - 1

    # -- structure accessors ---------------------------------------------------

    def base_nodes(self, k: int) -> tuple:
        """Nodes of the base subgraph G^k in canonical order."""
        return tuple(v for v in self.nodes if v.k == k)

    def multinode(self, i: int, j: int) -> Multinode:
        return self.multinodes[(i, j)]

    def left(self, k: int) -> NodeRef:
        return NodeRef(k, k, 1)

    def right(self, k: int) -> NodeRef:
        return NodeRef(k, self.n - k + 1, self.n - k + 1)

    def top(self, k: int) -> NodeRef:
        return NodeRef(k, 1, 1)

    def bottom(self, k: int) -> NodeRef:
        return NodeRef(k, self.n, self.n - k + 1)

    def edges(self) -> Iterator[tuple]:
        """All edges (u, v) of G, canonically ordered by tail then NE before SE."""
        for u in self.nodes:
            ne = NodeRef(u.k, u.i - 1, u.j)
            if self.is_node(ne):
                yield (u, ne)
            se = NodeRef(u.k, u.i + 1, u.j + 1)
            if self.is_node(se):
                yield (u, se)


def build_supporting_graph(n: int) -> SupportingGraph:
    """Construct the supporting graph for ``n`` colors (n >= 1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"number of colors must be a positive integer, got {n!r}")
    nodes = []
    for k in range(1, n + 1):
        for j in range(1, n - k + 2):
            for i in range(j, j + k):
                nodes.append(NodeRef(k, i, j))
    nodes.sort(key=lambda v: v.canonical_key)
    index = {v: p for p, v in enumerate(nodes)}
    multinodes = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            members = tuple(NodeRef(k, i, j) for k in range(i - j + 1, n - j + 2))
            multinodes[(i, j)] = Multinode(i, j, members)
    size = len(nodes)
    slot = {}
    for k in range(1, n + 1):
        for i in range(n + 2):
            for j in range(min(i + 1, n + 1) + 1):
                if (i, j) == (n + 1, 0):
                    continue
                v = NodeRef(k, i, j)
                if v in index:
                    slot[v] = index[v]
                elif j == 0 or i - j > k - 1:
                    slot[v] = size + k - 1  # left of G^k: c_k
                else:
                    slot[v] = size + n + k - 1  # right of G^k: d_k
    return SupportingGraph(
        n=n, nodes=tuple(nodes), index=index, multinodes=multinodes, slot=slot
    )
