"""Crystal operators as residual-slack moves on feasible weight functions."""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import ParameterError
from .support import check_color
from .weights import BACKWARD, FORWARD, WeightFunction, switch_node


def level_slacks(f: WeightFunction, i: int) -> tuple:
    """The level-i scan ``(prefix, h, j)``: the prefix sums A(0), ..., A(i+1)
    of the level-i slack sums as a tuple, h = max A and j its first argmax.

    The compiled scan ``f.graph.level_scans[i - 1]`` gives A(0) = 0 and
    A(j) = A(j-1) + eps(j) - delta(j-1).  The residual slacks telescope over
    them: the residual upper slacks sum to h and the residual lower slacks to
    t = h - A(i+1).  The forward multinode is j and the backward one the least
    j >= 1 with A(j) > max_{q>j} A(q), that is the last argmax of A(1..i+1);
    either is taken only when 1 <= j <= i.

    ``f.scan`` keeps ``(i, scan)`` of the last call, and a call with this very
    object ``i`` (``is``, not ``==``) returns that same scan.  It stays valid
    because a function never changes and a scan is immutable; it is stored as
    one attribute, so threads that share f read a whole entry.  A color is
    stored only after it passed the check, so True or 1.0 never reads a stored
    scan, and an equal int that is another object just scans again.
    ``generate`` passes the same int to ``string_lengths`` and then
    ``forward_move``, so each (vertex, color) runs one scan.
    """
    last = f.scan
    if last is not None and last[0] is i:
        return last[1]
    g = f.graph
    if i.__class__ is not int or not 1 <= i <= g.n:
        check_color(i, g.n)  # raises, or passes an int subclass in range
    b = f.bounds
    scan = g.level_scans[i - 1](f.values, b.c, b.d)
    f.scan = (i, scan)
    return scan


def _extended_value(f: WeightFunction, k: int, i: int, j: int) -> int:
    """f at v_i^k(j) of the extended graph: its value on a node of G, else c_k
    left of G^k (j = 0, or below it: i - j > k - 1) and d_k right of it."""
    if f.graph.is_node((k, i, j)):
        return f.values[f.graph.index[k, i, j]]
    return (f.bounds.c if j == 0 or i - j > k - 1 else f.bounds.d)[k - 1]


def slack_dicts(f: WeightFunction, i: int) -> tuple:
    """(eps, delta, eps_res, delta_res) of level i, read off f on the extended graph.

    ``eps`` is keyed by j = 1..i+1 and ``delta`` by j = 0..i.  The residual
    upper slack at j is max(0, A(j) - max_{p<j} A(p)) and the residual lower
    slack at j is max(0, A(j) - max_{q>j} A(q)).  This closed form states the
    fringe rule itself, and reads neither the kernels nor the stored scan.
    """
    check_color(i, f.graph.n)
    colors = range(1, f.graph.n + 1)
    x = _extended_value
    eps = {}
    delta = {}
    for j in range(1, i + 2):
        eps[j] = sum(x(f, k, i - 1, j - 1) - x(f, k, i, j) for k in colors)
    for j in range(0, i + 1):
        delta[j] = sum(x(f, k, i, j) - x(f, k, i + 1, j + 1) for k in colors)
    prefix = [0]
    for j in range(1, i + 2):
        prefix.append(prefix[j - 1] + eps[j] - delta[j - 1])
    eps_res = {}
    run_max = prefix[0]
    for j in range(1, i + 2):
        eps_res[j] = max(0, prefix[j] - run_max)
        run_max = max(run_max, prefix[j])
    delta_res = {}
    run_max = prefix[i + 1]
    for j in range(i, -1, -1):
        delta_res[j] = max(0, prefix[j] - run_max)
        run_max = max(run_max, prefix[j])
    return eps, delta, eps_res, delta_res


def residual_slacks_by_cancelation(eps: dict, delta: dict) -> Tuple[dict, dict]:
    """Residual slacks by the pair-cancelation process.

    Repeatedly pick a positive lower slack at j' and a positive upper slack at
    j > j' with nothing positive strictly between them, and cancel the smaller
    against the larger.  The result is order-independent and must agree with the
    closed form of slack_dicts.
    """
    er = dict(eps)
    dr = dict(delta)
    while True:
        pair = None
        positions = sorted(set(er) | set(dr))
        for jp in positions:
            if dr.get(jp, 0) <= 0:
                continue
            for j in positions:
                if j <= jp or er.get(j, 0) <= 0:
                    continue
                between = [l for l in positions if jp < l < j]
                if all(er.get(l, 0) == 0 and dr.get(l, 0) == 0 for l in between):
                    pair = (jp, j)
                break
            if pair:
                break
        if pair is None:
            return er, dr
        jp, j = pair
        m = min(dr[jp], er[j])
        dr[jp] -= m
        er[j] -= m


def active_multinode(f: WeightFunction, i: int, direction: str) -> Optional[Tuple[int, int]]:
    """Multinode of level i at which the color-i operator acts, if any.

    Forward: the minimum j whose residual slacks sandwich it (all residual lower
    slacks before j and all residual upper slacks after j vanish), accepted iff
    its own residual upper slack is positive.  Backward: the minimum j with
    positive residual lower slack.  Both are read off ``level_slacks``.
    """
    prefix, _, j = level_slacks(f, i)  # j, the first argmax, is the forward one
    if direction == BACKWARD:
        tail = prefix[:0:-1]  # A(i+1), ..., A(1)
        j = i + 1 - tail.index(max(tail))
    elif direction != FORWARD:
        raise ParameterError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")
    return (i, j) if 1 <= j <= i else None


def forward_move(f: WeightFunction, i: int) -> Optional[WeightFunction]:
    """Apply the color-i raising step: +1 at the forward switch-node of the
    active multinode; None when the operator does not act."""
    am = active_multinode(f, i, FORWARD)
    if am is None:
        return None
    g = f.graph
    values = list(f.values)
    values[g.index[switch_node(f, am[0], am[1], FORWARD)]] += 1
    return WeightFunction(g, f.bounds, tuple(values))


def backward_move(f: WeightFunction, i: int) -> Optional[WeightFunction]:
    """Inverse of forward_move: -1 at the backward switch-node."""
    am = active_multinode(f, i, BACKWARD)
    if am is None:
        return None
    g = f.graph
    values = list(f.values)
    values[g.index[switch_node(f, am[0], am[1], BACKWARD)]] -= 1
    return WeightFunction(g, f.bounds, tuple(values))


def string_lengths(f: WeightFunction, i: int) -> Tuple[int, int]:
    """(h_i, t_i): how many consecutive forward / backward i-moves apply at f."""
    prefix, h, _ = level_slacks(f, i)
    return h, h - prefix[-1]
