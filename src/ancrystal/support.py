"""Supporting graph of the model: base subgraphs, multinodes, and the extension.

The graph for ``n`` colors is the disjoint union of base subgraphs ``G^1 .. G^n``;
``G^k`` is a rhombic grid of shape ``(k-1) x (n-k)`` whose nodes are addressed as
``v_i^k(j)``.  The extended graph adds a fringe of extra nodes around every base
subgraph, which carry the bound ``c_k`` on the left of ``G^k`` and ``d_k`` on its
right.  ``build_supporting_graph`` writes the move layer's sums and tests as
generated loop-free functions, one ``compile()`` per kernel, in which ``_term``
reads each extended node as a node value, ``c_k`` or ``d_k``.  It builds each
graph once per process and hands every caller the same one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from .errors import ParameterError, check_integer


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
    """Multinode V_i(j): the nodes v_i^k(j) across base subgraphs, ordered by k.

    ``se`` and ``sw`` state G's edge rule once, as (member, neighbor) position
    pairs: members 0..last-1 with their SE neighbors v_{i+1}^k(j+1), members
    last..1 with their SW ones v_{i+1}^k(j).  ``SupportingGraph.heads`` and
    the switch test are derived from them.

    Its compiled switch test ``switch(v)``, on a canonical-order value sequence
    ``v``, returns ``(lo, end)``: the members allowed as its switch node are
    exactly ``members[lo:end]``, as a member is allowed iff every member before
    it is SE-tight and every member after it is SW-tight.  So lo is the last
    member that is not SW-tight (0 if none) and end - 1 the first that is not
    SE-tight (the last member if none)."""

    i: int
    j: int
    members: tuple
    se: tuple = field(compare=False, repr=False)
    sw: tuple = field(compare=False, repr=False)
    switch: Callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class SupportingGraph:
    """Immutable supporting graph for ``n`` colors.

    Nodes are held in canonical order (sorted by (i, j, k)); ``index`` maps a
    NodeRef to its position in that order, which is also the layout of the dense
    weight vectors used as crystal-vertex keys.  ``base_index[k - 1]`` holds the
    positions of the nodes of G^k, in canonical order.  ``heads[p]`` holds the
    positions of the NE head v_{i-1}^k(j), then the SE head v_{i+1}^k(j+1), of
    ``nodes[p]`` that are nodes of G, from the multinodes' pairs: an SE pair
    (p, q) is the edge p -> q, an SW pair (w, u) the NE edge u -> w.  ``is_node``,
    ``_term`` and the oracle's ``moves._extended_value`` test nodes apart, on purpose.

    Besides the switch test of each record ``multinodes[(i, j)]``, two kernels
    are generated as loop-free functions of a canonical-order value sequence ``v``:

    - ``level_scans[i - 1](v, c, d)`` returns the scan ``(prefix, h, j)`` of
      level ``i``: ``prefix`` is the tuple ``(A(0), ..., A(i+1))`` with A(0) =
      0 and A(j) = A(j-1) + eps(j) - delta(j-1), the prefix sums of the slack
      sums on the extended graph, whose extra nodes ``_term`` writes as ``c``
      or ``d`` entries (see ``_level_steps``); ``h = max A`` and ``j`` is the
      first argmax of A, both found by a chain of strict compares;
    - ``constants_of(v)`` returns, per color k, the value ``v`` takes on all
      of G^k (``base_index[k - 1]``), or None where it is not constant there.

    A graph is shared by every caller of its ``n``, so its mappings are
    read-only views.
    """

    n: int
    nodes: tuple
    index: Mapping = field(compare=False, repr=False)
    base_index: tuple = field(compare=False, repr=False)
    heads: tuple = field(compare=False, repr=False)
    multinodes: Mapping = field(compare=False, repr=False)
    level_scans: tuple = field(compare=False, repr=False)
    constants_of: Callable = field(compare=False, repr=False)

    def is_node(self, v) -> bool:
        """True iff v is a node of G (not merely of the extension): a tuple
        (k, i, j) of three coordinates of class int, so not a list, 1.5 or True."""
        if isinstance(v, tuple) and len(v) == 3:
            k, i, j = v
            if k.__class__ is i.__class__ is j.__class__ is int:
                return 1 <= k <= self.n and 1 <= j <= self.n - k + 1 and 0 <= i - j <= k - 1
        return False

    def position(self, v) -> int:
        """``index[v]`` for a node v of G, else a ParameterError: the lookup
        alone would take (1.0, 1, 1) or (True, 1, 1), which hash like (1, 1, 1)."""
        if not self.is_node(v):
            raise ParameterError(f"{v!r} is not a node of G for n={self.n}")
        return self.index[v]

    # -- structure accessors ---------------------------------------------------

    def base_positions(self, k: int) -> tuple:
        """``base_index[k - 1]``, for a color k checked by ``check_color``."""
        return self.base_index[check_color(k, self.n) - 1]

    def base_nodes(self, k: int) -> tuple:
        """Nodes of the base subgraph G^k in canonical order."""
        return tuple(self.nodes[p] for p in self.base_positions(k))

    def multinode(self, i: int, j: int) -> Multinode:
        # the one multinode check: before the lookup, where True and 1.0 would hash like 1
        check_integer(i, "multinode level i")
        check_integer(j, "multinode position j")
        try:
            return self.multinodes[i, j]
        except KeyError:
            raise ParameterError(f"no multinode V_{i}({j}) for n={self.n}") from None

    def top(self, k: int) -> NodeRef:
        return NodeRef(check_color(k, self.n), 1, 1)

    def bottom(self, k: int) -> NodeRef:
        return NodeRef(check_color(k, self.n), self.n, self.n - k + 1)

    def edges(self) -> Iterator[tuple]:
        """All edges (u, v) of G from ``heads``, ordered by tail, then NE before SE."""
        nodes = self.nodes
        return ((u, nodes[q]) for u, heads in zip(nodes, self.heads) for q in heads)


def check_color_count(n) -> int:
    """``n`` when it is a positive int; anything else is a ParameterError."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"number of colors must be a positive integer, got {n!r}")
    return n


def check_color(k, n: int) -> int:
    """``k`` when it is an int in 1..n, else a ParameterError: True and 1.0
    would read color 1, and 0 would read color n from the end of a table."""
    if not 1 <= check_integer(k, "color k") <= n:
        raise ParameterError(f"color {k} out of range for n={n}")
    return k


def build_supporting_graph(n: int) -> SupportingGraph:
    """The supporting graph for ``n`` colors (n >= 1).  It is cached for the
    life of the process, so every caller of an ``n`` shares one object."""
    # checked before the cache, where True and 1.0 would hash like 1
    return _build(check_color_count(n))


@cache
def _build(n: int) -> SupportingGraph:
    nodes = []
    for k in range(1, n + 1):
        for j in range(1, n - k + 2):
            for i in range(j, j + k):
                nodes.append(NodeRef(k, i, j))
    nodes.sort(key=lambda v: v.canonical_key)
    index = {v: p for p, v in enumerate(nodes)}
    base_index = [[] for _ in range(n)]
    for p, v in enumerate(nodes):
        base_index[v.k - 1].append(p)
    base_index = tuple(map(tuple, base_index))
    level_scans, switch_for, constants_of = _compile_kernels(n, index, base_index)
    multinodes = {}
    # G's edge rule, stated once: each V_i(j)'s se and sw pairs (see Multinode)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            members = tuple(NodeRef(k, i, j) for k in range(i - j + 1, n - j + 2))
            se = tuple((index[v], index[v.k, i + 1, j + 1]) for v in members[:-1])
            sw = tuple((index[v], index[v.k, i + 1, j]) for v in members[:0:-1])
            switch = switch_for[len(members)](tuple(chain.from_iterable(se + sw)))
            multinodes[i, j] = Multinode(i, j, members, se, sw, switch)
    ne_heads = {u: w for m in multinodes.values() for w, u in m.sw}
    se_heads = {p: q for m in multinodes.values() for p, q in m.se}
    heads = tuple(tuple(h[p] for h in (ne_heads, se_heads) if p in h) for p in range(len(nodes)))
    return SupportingGraph(
        n=n, nodes=tuple(nodes), index=MappingProxyType(index), base_index=base_index,
        heads=heads, multinodes=MappingProxyType(multinodes), level_scans=level_scans,
        constants_of=constants_of,
    )


def _term(index: dict, k: int, i: int, j: int) -> str:
    """The kernel source term of the extended node v_i^k(j): ``v[p]`` for the
    node of G at position p, ``c[k - 1]`` for an extra node left of G^k (j = 0,
    or below it: i - j > k - 1) and ``d[k - 1]`` for one right of it."""
    p = index.get((k, i, j))  # a NodeRef is a tuple, so a plain (k, i, j) finds it
    if p is not None:
        return f"v[{p}]"
    return f"c[{k - 1}]" if j == 0 or i - j > k - 1 else f"d[{k - 1}]"


def _level_steps(n: int, index: dict, i: int) -> tuple:
    """The prefix steps of level i as ``(plus, minus)`` pairs of ``_term``s.

    Entry j - 1 (j = 1..i+1) is the step A(j) - A(j-1) = eps(j) - delta(j-1),
    the sum of ``plus - minus`` over its pairs.  Summed over the colors k, it
    adds the values at v_{i-1}^k(j-1) and v_{i+1}^k(j) and subtracts those at
    v_i^k(j) and v_i^k(j-1).  A term on both sides cancels; what is left has
    as many plus as minus terms, paired up in sorted order.
    """
    def terms(i, j):  # the terms of v_i^k(j) over the colors k
        return [_term(index, k, i, j) for k in range(1, n + 1)]

    steps = []
    for j in range(1, i + 2):
        plus = Counter(terms(i - 1, j - 1) + terms(i + 1, j))
        minus = Counter(terms(i, j) + terms(i, j - 1))
        pairs = zip(sorted((plus - minus).elements()), sorted((minus - plus).elements()))
        steps.append(tuple(pairs))
    return tuple(steps)


def _compiled(lines: list, n: int) -> Callable:
    """The one function that the source ``lines`` define, compiled on its own."""
    defined = {}
    exec(compile("\n".join(lines), f"<supporting graph n={n}>", "exec"), {}, defined)
    (function,) = defined.values()
    return function


def _compile_kernels(n: int, index: dict, base_index) -> tuple:
    """``(level_scans, switch_for, constants_of)`` of a graph (see ``Multinode``
    and ``SupportingGraph``), each kernel compiled from its own source;
    ``switch_for[m](positions)`` makes the switch test of an m-member multinode.

    A step has at most 2n - 2 pairs, and the ``or`` chains, comparison chains,
    unpackings and displays are flat, so a source grows with n but stays
    short, and the parser never holds more than one kernel's tokens.
    """
    level_scans = []
    for i in range(1, n + 1):
        lines = [f"def scan_{i}(v, c, d):"]
        prev = []
        for j, step in enumerate(_level_steps(n, index, i), 1):
            terms = prev + [f"{plus} - {minus}" for plus, minus in step]
            lines.append(f"    a{j} = {' + '.join(terms) or '0'}")
            prev = [f"a{j}"]
        # h = max A and j its first argmax: strict compares keep the first
        lines.append("    h = j = 0")
        lines += [f"    if a{j} > h: h = a{j}; j = {j}" for j in range(1, i + 2)]
        lines.append(f"    return (0, {', '.join(f'a{j}' for j in range(1, i + 2))}), h, j")
        level_scans.append(_compiled(lines, n))
    # A switch chain depends only on the member count, so there is one factory
    # per count 1..n, and each multinode's function closes over the positions
    # of its own ``se`` and ``sw`` pairs (SE pairs s, t; SW pairs u, w).  Each ``or``
    # chain stops at its first failed test: lo at the last member that is not
    # SW-tight (``sw`` runs from the last member down), end one past the first
    # that is not SE-tight; every member number it yields but 0 is truthy.
    factories = {}
    for members in range(1, n + 1):
        tests = range(members - 1)
        lo = [f"v[u{p}] != v[w{p}] and {members - 1 - p}" for p in tests]
        end = [f"v[s{m}] != v[t{m}] and {m + 1}" for m in tests]
        names = [f"s{m}, t{m}, " for m in tests] + [f"u{p}, w{p}, " for p in tests]
        lines = [f"def switch_for_{members}(positions):"]
        if names:
            lines.append(f"    {''.join(names)}= positions")
        lines += [
            "    def switch(v):",
            f"        return {' or '.join([*lo, '0'])}, {' or '.join([*end, str(members)])}",
            "    return switch",
        ]
        factories[members] = _compiled(lines, n)
    lines = ["def constants_of(v):", "    return ("]
    for first, *rest in base_index:
        same = " == ".join(f"v[{p}]" for p in (first, *rest))
        lines.append(f"        v[{first}] if {same} else None," if rest else f"        v[{first}],")
    lines.append("    )")
    return tuple(level_scans), factories, _compiled(lines, n)
