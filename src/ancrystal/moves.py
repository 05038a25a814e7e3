"""Crystal operators as residual-slack moves on feasible weight functions."""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import ParameterError
from .weights import BACKWARD, FORWARD, WeightFunction, switch_node

# (f, i, prefix) of the last scan.  ``generate`` asks for the same (f, i)
# twice in a row, once for the string lengths and once for the move, so the
# second call reads this.  A WeightFunction is frozen, so the stored prefix
# cannot go stale, and holding f keeps its id from being reused.  The entry is
# one tuple, read and replaced whole, so callers in other threads can miss it
# but never read a torn entry.
_last_scan = (None, 0, ())


def _check_color(g, i: int) -> None:
    if not 1 <= i <= g.n:
        raise ParameterError(f"color i={i} out of range for n={g.n}")


def level_slacks(f: WeightFunction, i: int) -> list:
    """Prefix sums A(0), ..., A(i+1) of the level-i slack sums, as a new list.

    One pass over the compiled steps ``f.graph.level_steps``, with A(0) = 0 and
    A(j) = A(j-1) + eps(j) - delta(j-1).  The residual slacks telescope over
    them: the residual upper slacks sum to h = max A and the residual lower
    slacks to t = h - A(i+1).  The forward multinode is the first argmax j of A
    and the backward one the least j >= 1 with A(j) > max_{q>j} A(q), that is
    the last argmax of A(1..i+1); either is taken only when 1 <= j <= i.

    A call with the same f (the same object) and i as the one before it
    returns a copy of that call's prefix without scanning again.
    """
    global _last_scan
    last = _last_scan
    if last[0] is f and last[1] == i:
        return list(last[2])
    g = f.graph
    _check_color(g, i)
    x = f.values + f.bounds.c + f.bounds.d
    a = 0
    prefix = [0]
    for step in g.level_steps[i - 1]:
        for plus, minus in step:
            a += x[plus] - x[minus]
        prefix.append(a)
    _last_scan = (f, i, tuple(prefix))
    return prefix


def slack_dicts(f: WeightFunction, i: int) -> tuple:
    """(eps, delta, eps_res, delta_res) of level i, read from the ``slot`` layout.

    ``eps`` is keyed by j = 1..i+1 and ``delta`` by j = 0..i.  The residual
    upper slack at j is max(0, A(j) - max_{p<j} A(p)) and the residual lower
    slack at j is max(0, A(j) - max_{q>j} A(q)).  This closed form does not
    read the compiled steps that ``level_slacks`` runs on.
    """
    _check_color(f.graph, i)
    colors = range(1, f.graph.n + 1)
    slot = f.graph.slot  # NodeRef is a tuple, so a plain (k, i, j) key finds it
    x = f.values + f.bounds.c + f.bounds.d
    eps = {}
    delta = {}
    for j in range(1, i + 2):
        eps[j] = sum(x[slot[k, i - 1, j - 1]] - x[slot[k, i, j]] for k in colors)
    for j in range(0, i + 1):
        delta[j] = sum(x[slot[k, i, j]] - x[slot[k, i + 1, j + 1]] for k in colors)
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
    prefix = level_slacks(f, i)
    if direction == FORWARD:
        j = prefix.index(max(prefix))
    else:
        tail = prefix[:0:-1]  # A(i+1), ..., A(1)
        j = i + 1 - tail.index(max(tail))
    return (i, j) if 1 <= j <= i else None


def forward_move(f: WeightFunction, i: int) -> Optional[WeightFunction]:
    """Apply the color-i raising step: +1 at the forward switch-node of the
    active multinode; None when the operator does not act."""
    am = active_multinode(f, i, FORWARD)
    if am is None:
        return None
    return _shifted(f, switch_node(f, am[0], am[1], FORWARD), 1)


def backward_move(f: WeightFunction, i: int) -> Optional[WeightFunction]:
    """Inverse of forward_move: -1 at the backward switch-node."""
    am = active_multinode(f, i, BACKWARD)
    if am is None:
        return None
    return _shifted(f, switch_node(f, am[0], am[1], BACKWARD), -1)


def _shifted(f: WeightFunction, v, step: int) -> WeightFunction:
    """f with ``step`` added at node v."""
    g = f.graph
    values = list(f.values)
    values[g.index[v]] += step
    return WeightFunction(g, f.bounds, tuple(values))


def string_lengths(f: WeightFunction, i: int) -> Tuple[int, int]:
    """(h_i, t_i): how many consecutive forward / backward i-moves apply at f."""
    prefix = level_slacks(f, i)
    h = max(prefix)
    return h, h - prefix[-1]
