"""Bijection between feasible functions and bounded triangular patterns."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InfeasibleError, ParameterError, integer_tuple
from .support import NodeRef, SupportingGraph, check_color_count
from .weights import Bounds, WeightFunction, make_weight_function, zero_bounds


@dataclass(frozen=True)
class GTPattern:
    """Triangular integer array x_{i,j}, 1 <= j <= i <= n, rows top to bottom."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(integer_tuple(row, f"rows[{i}]") for i, row in enumerate(self.rows))
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
        bound = tuple(bound) + (0,)
        last = self.rows[-1]
        return all(bound[j] >= last[j] >= bound[j + 1] for j in range(self.n))

    def to_json(self) -> list:
        return [list(row) for row in self.rows]

    @staticmethod
    def from_json(data) -> "GTPattern":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ParameterError("pattern JSON must be a list of rows")
        for i, row in enumerate(data, start=1):
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ParameterError(f"pattern row {i} has the non-integer entry {x!r}")
        return GTPattern(tuple(tuple(r) for r in data))


def sigma_bound(c) -> tuple:
    """The bound tuple with j-th entry c_1 + ... + c_{n-j+1}."""
    c = tuple(c)
    n = len(c)
    return tuple(sum(c[: n - j]) for j in range(n))


def weyl_dimension(c, d=None) -> int:
    """Number of vertices of K(c, d), by the Weyl dimension formula.

    The product over p < q of (l_p - l_q + q - p) / (q - p) with
    l = sigma_bound(c - d) + (0,), in O(n^2); ``count_bounded_patterns``
    enumerates the same number.
    """
    c = tuple(c)
    b = Bounds(c, (0,) * len(c) if d is None else tuple(d))
    lam = sigma_bound(b.width) + (0,)
    num = den = 1
    for q in range(len(lam)):
        for p in range(q):
            num *= lam[p] - lam[q] + q - p
            den *= q - p
    return num // den


def _prefix(c, length: int) -> int:
    # c[1:length] with the empty range (length <= 0) summing to 0
    return sum(c[:length])


def to_gt(f: WeightFunction) -> GTPattern:
    """Pattern with x_{i,j} = (sum of f over the multinode V_i(j)) + c_1+...+c_{i-j}."""
    if any(d != 0 for d in f.bounds.d):
        raise InfeasibleError("the pattern bijection requires zero lower bounds")
    g = f.graph
    c = f.bounds.c
    rows = []
    for i in range(1, g.n + 1):
        row = []
        for j in range(1, i + 1):
            bar = sum(f.value(v) for v in g.multinode(i, j).members)
            row.append(bar + _prefix(c, i - j))
        rows.append(tuple(row))
    return GTPattern(tuple(rows))


def from_gt(g: SupportingGraph, pattern: GTPattern, c) -> WeightFunction:
    """The unique feasible function mapping to the given bounded pattern.

    Built bottom-up: the bottom level is determined outright; at each higher
    multinode every member starts at its maximum admissible value and weight is
    then removed member by member, front to back, until the multinode sum hits
    its target.  The front members end tight on their SE-edges and the back
    members on their SW-edges, which is exactly the switch condition.
    """
    b = zero_bounds(c)  # a negative bound is a ParameterError naming c
    c, n = b.c, g.n
    if pattern.n != n or len(c) != n:
        raise ParameterError(f"pattern/bounds size mismatch with n={n}")
    if not pattern.is_bounded_by(sigma_bound(c)):
        raise InfeasibleError(f"pattern is not bounded by {sigma_bound(c)}")
    vals = {}
    for j in range(1, n + 1):
        vals[NodeRef(n - j + 1, n, j)] = pattern.x(n, j) - _prefix(c, n - j)
    for i in range(n - 1, 0, -1):
        for j in range(1, i + 1):
            members = g.multinode(i, j).members
            maxes = []
            mins = []
            for m, v in enumerate(members):
                maxes.append(c[v.k - 1] if m == 0 else vals[NodeRef(v.k, i + 1, j)])
                mins.append(0 if m == len(members) - 1 else vals[NodeRef(v.k, i + 1, j + 1)])
            target = pattern.x(i, j) - _prefix(c, i - j)
            surplus = sum(maxes) - target
            if surplus < 0 or surplus > sum(mx - mn for mx, mn in zip(maxes, mins)):
                raise InfeasibleError(f"multinode V_{i}({j}) sum {target} is unreachable")
            assigned = list(maxes)
            for m in range(len(members)):
                cut = min(surplus, maxes[m] - mins[m])
                assigned[m] -= cut
                surplus -= cut
            for v, x in zip(members, assigned):
                vals[v] = x
    return make_weight_function(g, vals, b)


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
