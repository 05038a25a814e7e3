"""Bijection between feasible functions and bounded triangular patterns."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InfeasibleError, ParameterError, integer_tuple
from .support import SupportingGraph, check_color_count
from .weights import Bounds, WeightFunction, _feasible, zero_bounds


@dataclass(frozen=True)
class GTPattern:
    """Triangular integer array x_{i,j}, 1 <= j <= i <= n, rows top to bottom."""

    rows: tuple

    def __post_init__(self):
        rows = integer_tuple(self.rows, "rows", entry=integer_tuple)
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ParameterError(f"row {i} has length {len(row)}, expected {i}")
        for i in range(1, len(rows)):
            # row i+1 interleaves row i: x_{i+1,j} >= x_{i,j} >= x_{i+1,j+1}
            for j in range(i):
                if not rows[i][j] >= rows[i - 1][j] >= rows[i][j + 1]:
                    raise InfeasibleError(
                        f"interleaving fails at rows {i}/{i + 1}, position {j + 1}"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def x(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def is_bounded_by(self, bound) -> bool:
        bound = integer_tuple(bound, "bound")
        if len(bound) != self.n:
            raise ParameterError(f"bound has length {len(bound)}, expected {self.n}")
        bound += (0,)  # rows[-1:] is empty for a pattern of no rows, which () bounds
        return all(hi >= x >= lo for row in self.rows[-1:] for hi, x, lo in zip(bound, row, bound[1:]))

    def to_json(self) -> list:
        return [list(row) for row in self.rows]

    @staticmethod
    def from_json(data) -> "GTPattern":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ParameterError("pattern JSON must be a list of rows")
        return GTPattern(integer_tuple(data, "rows", "pattern JSON", entry=integer_tuple))


def sigma_bound(c) -> tuple:
    """The bound tuple with j-th entry c_1 + ... + c_{n-j+1}."""
    c = integer_tuple(c, "c")
    n = len(c)
    return tuple(sum(c[: n - j]) for j in range(n))


def weyl_dimension(c, d=None) -> int:
    """Number of vertices of K(c, d), by the Weyl dimension formula.

    The product over p < q of (l_p - l_q + q - p) / (q - p) with
    l = sigma_bound(c - d) + (0,), in O(n^2); ``count_bounded_patterns``
    enumerates the same number.
    """
    c = integer_tuple(c, "c")
    b = Bounds(c, (0,) * len(c) if d is None else integer_tuple(d, "d"))
    lam = sigma_bound(b.width) + (0,)
    num = den = 1
    for q in range(len(lam)):
        for p in range(q):
            num *= lam[p] - lam[q] + q - p
            den *= q - p
    return num // den


def to_gt(f: WeightFunction) -> GTPattern:
    """Pattern with x_{i,j} = (sum of f over the multinode V_i(j)) + c_1+...+c_{i-j}."""
    if any(d != 0 for d in f.bounds.d):
        raise InfeasibleError("the pattern bijection requires zero lower bounds")
    g = f.graph
    c = f.bounds.c
    values, index, multinodes = f.values, g.index, g.multinodes
    rows = []
    for i in range(1, g.n + 1):
        row = []
        for j in range(1, i + 1):
            # the members are the graph's own nodes, so a plain index lookup is safe
            bar = sum(values[index[v]] for v in multinodes[i, j].members)
            row.append(bar + sum(c[:i - j]))
        rows.append(tuple(row))
    return GTPattern(tuple(rows))


def from_gt(g: SupportingGraph, pattern: GTPattern, c) -> WeightFunction:
    """The unique feasible function mapping to the given bounded pattern.

    Built bottom-up, from level n: at each multinode every member starts at
    its maximum, its SW neighbor's value (``m.sw``; c_k for the first member),
    and weight is then removed member by member, front to back, down to each
    one's minimum, its SE neighbor's value (``m.se``; 0 for the last), until
    the multinode sum hits its target.  The front members end tight on their
    SE-edges and the back members on their SW-edges, which is exactly the
    switch condition; each record's ``switch`` checks it.
    """
    b = zero_bounds(c)  # a negative bound is a ParameterError naming c
    c, n = b.c, g.n
    if pattern.n != n or len(c) != n:
        raise ParameterError(f"pattern/bounds size mismatch with n={n}")
    if not pattern.is_bounded_by(sigma_bound(c)):
        raise InfeasibleError(f"pattern is not bounded by {sigma_bound(c)}")
    index, vals = g.index, [None] * len(g.nodes)
    for i in range(n, 0, -1):
        for j in range(1, i + 1):
            m = g.multinodes[i, j]
            maxes = [c[m.members[0].k - 1]] + [vals[w] for _, w in reversed(m.sw)]
            mins = [vals[t] for _, t in m.se] + [0]
            target = pattern.x(i, j) - sum(c[:i - j])
            surplus = sum(maxes) - target
            if surplus < 0 or surplus > sum(maxes) - sum(mins):
                raise InfeasibleError(f"multinode V_{i}({j}) sum {target} is unreachable")
            for v, mx, mn in zip(m.members, maxes, mins):
                cut = min(surplus, mx - mn)
                vals[index[v]] = mx - cut
                surplus -= cut
    return _feasible(g, b, tuple(vals))


def count_bounded_patterns(n: int, bound) -> int:
    """Number of n-row patterns bounded by the given weakly decreasing tuple.

    Plain depth-first enumeration over rows, bottom row first; intentionally
    free of closed-form shortcuts so it can serve as an independent counting
    oracle for generated crystal sizes.
    """
    check_color_count(n)  # n = 0 would enumerate the empty row without end
    bound = integer_tuple(bound, "bound")
    if len(bound) != n:
        raise ParameterError(f"bound has length {len(bound)}, expected {n}")
    if any(x < 0 for x in bound) or any(
        bound[j] < bound[j + 1] for j in range(n - 1)
    ):
        raise ParameterError(f"bound must be weakly decreasing and nonnegative: {bound}")

    def completions(row) -> int:
        if len(row) == 1:
            return 1
        total = 0
        ranges = [range(row[j + 1], row[j] + 1) for j in range(len(row) - 1)]
        for above in product(*ranges):
            total += completions(above)
        return total

    lo = bound + (0,)
    total = 0
    for bottom in product(*[range(lo[j + 1], lo[j] + 1) for j in range(n)]):
        total += completions(bottom)
    return total
