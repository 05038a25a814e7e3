"""Supporting graph of the model: base subgraphs, multinodes, and the extension.

The graph for ``n`` colors is the disjoint union of base subgraphs ``G^1 .. G^n``;
``G^k`` is a rhombic grid of shape ``(k-1) x (n-k)`` whose nodes are addressed as
``v_i^k(j)``.  The extended graph adds a fringe of extra nodes around every base
subgraph, which carry the bound ``c_k`` on the left of ``G^k`` and ``d_k`` on its
right.  ``build_supporting_graph`` precomputes the whole extension once as the
``slot`` table, so a value on the extended graph is a single lookup, and
compiles the move layer's sums and tests into index tables over that layout.
"""

from __future__ import annotations

from collections import Counter
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
    weight vectors used as crystal-vertex keys.  ``base_index[k - 1]`` holds the
    positions of the nodes of G^k, in canonical order.

    ``slot`` maps every node of the extended graph to its position in the vector
    ``values + c + d`` of a weight function: a node of G to its own index, an
    extra node left of G^k to ``c_k`` and one right of G^k to ``d_k``.  Its keys
    are exactly the extended nodes.

    ``level_steps[i - 1]`` compiles level ``i`` from ``slot``: its entry ``j - 1``
    (j = 1..i+1) holds the prefix step ``A(j) - A(j-1) = eps(j) - delta(j-1)``
    of the slack sums as ``(plus, minus)`` pairs of positions in
    ``x = values + c + d``: the step is the sum of ``x[plus] - x[minus]`` over
    its pairs (see ``moves.level_slacks``).

    ``switch_pairs[(i, j)]`` compiles the switch condition of V_i(j) as
    ``(se, sw)``: member ``m`` is compared with its SE neighbor v_{i+1}^k(j+1)
    unless it is the last member and with its SW neighbor v_{i+1}^k(j) unless
    it is the first.  ``se`` holds those tests as ``(member, neighbor)`` pairs
    of canonical indices for m = 0, 1, ... and ``sw`` for m = last, last - 1,
    ..., 1.
    """

    n: int
    nodes: tuple
    index: dict = field(compare=False, repr=False)
    base_index: tuple = field(compare=False, repr=False)
    multinodes: dict = field(compare=False, repr=False)
    slot: dict = field(compare=False, repr=False)
    level_steps: tuple = field(compare=False, repr=False)
    switch_pairs: dict = field(compare=False, repr=False)

    def is_node(self, v: NodeRef) -> bool:
        """True iff v is a node of G (not merely of the extension)."""
        k, i, j = v
        return 1 <= k <= self.n and 1 <= j <= self.n - k + 1 and 0 <= i - j <= k - 1

    # -- structure accessors ---------------------------------------------------

    def base_positions(self, k: int) -> tuple:
        """``base_index[k - 1]``; ParameterError for a k outside 1..n."""
        if not 1 <= k <= self.n:
            raise ParameterError(f"color {k} out of range for n={self.n}")
        return self.base_index[k - 1]

    def base_nodes(self, k: int) -> tuple:
        """Nodes of the base subgraph G^k in canonical order."""
        return tuple(self.nodes[p] for p in self.base_positions(k))

    def multinode(self, i: int, j: int) -> Multinode:
        return self.multinodes[(i, j)]

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
    base_index = tuple(
        tuple(p for p, v in enumerate(nodes) if v.k == k) for k in range(1, n + 1)
    )
    multinodes = {}
    switch_pairs = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            members = tuple(NodeRef(k, i, j) for k in range(i - j + 1, n - j + 2))
            multinodes[(i, j)] = Multinode(i, j, members)
            se = tuple((index[v], index[v.k, i + 1, j + 1]) for v in members[:-1])
            sw = tuple((index[v], index[v.k, i + 1, j]) for v in members[:0:-1])
            switch_pairs[(i, j)] = (se, sw)
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
        n=n, nodes=tuple(nodes), index=index, base_index=base_index,
        multinodes=multinodes, slot=slot,
        level_steps=tuple(_level_steps(n, slot, i) for i in range(1, n + 1)),
        switch_pairs=switch_pairs,
    )


def _level_steps(n: int, slot: dict, i: int) -> tuple:
    """The prefix steps of level i as ``(plus, minus)`` slot pairs.

    Summed over the colors k, ``eps(j) - delta(j-1)`` adds the values at
    v_{i-1}^k(j-1) and v_{i+1}^k(j) and subtracts those at v_i^k(j) and
    v_i^k(j-1).  A slot on both sides cancels; what is left has as many plus as
    minus terms, paired up in sorted order.
    """
    steps = []
    for j in range(1, i + 2):
        plus = Counter()
        minus = Counter()
        for k in range(1, n + 1):
            plus.update((slot[k, i - 1, j - 1], slot[k, i + 1, j]))
            minus.update((slot[k, i, j], slot[k, i, j - 1]))
        pairs = zip(sorted((plus - minus).elements()), sorted((minus - plus).elements()))
        steps.append(tuple(pairs))
    return tuple(steps)
