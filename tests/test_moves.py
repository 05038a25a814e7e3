import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ancrystal import (
    NodeRef,
    ParameterError,
    active_multinode,
    backward_move,
    build_supporting_graph,
    forward_move,
    generate,
    is_feasible,
    level_slacks,
    principal_function,
    residual_slacks_by_cancelation,
    slack_dicts,
    string_lengths,
    switch_node,
    zero_bounds,
)
from ancrystal.weights import BACKWARD, FORWARD
from conftest import allowed_switch_members

CARTAN = lambda n: [
    [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(1, n + 1)]
    for i in range(1, n + 1)
]


def source_function(n, c):
    g = build_supporting_graph(n)
    return principal_function(g, (0,) * n, zero_bounds(c))


def sink_function(n, c):
    g = build_supporting_graph(n)
    return principal_function(g, c, zero_bounds(c))


def reference_residuals(eps, delta, top):
    """Prefix-sum closed form for the residual slacks, written out directly."""
    A = [0]
    for j in range(1, top + 1):
        A.append(A[-1] + eps[j] - delta[j - 1])
    er = {}
    run = A[0]
    for j in range(1, top + 1):
        er[j] = max(0, A[j] - run)
        run = max(run, A[j])
    dr = {}
    run = A[top]
    for j in range(top - 1, -1, -1):
        dr[j] = max(0, A[j] - run)
        run = max(run, A[j])
    return er, dr


def test_slacks_of_the_two_level_source():
    f = source_function(2, (1, 2))
    eps, delta, eps_res, _ = slack_dicts(f, 1)
    assert eps[1] == 3 and delta[0] == 2
    assert eps_res[1] == 1
    assert slack_dicts(f, 2)[2] == {1: 2, 2: 0, 3: 0}


def test_sink_has_no_residual_upper_slack():
    f = sink_function(3, (2, 1, 2))
    for i in (1, 2, 3):
        assert all(x == 0 for x in slack_dicts(f, i)[2].values())


def test_top_upper_slack_is_zero_and_first_exceeds_lower():
    for n, c in ((2, (1, 2)), (3, (2, 1, 2))):
        f = source_function(n, c)
        for i in range(1, n + 1):
            eps, delta, _, _ = slack_dicts(f, i)
            assert eps[i + 1] == 0
            assert eps[1] >= delta[0]


def test_cancelation_trivial_and_single_step():
    er, dr = residual_slacks_by_cancelation({1: 0, 2: 0}, {0: 0, 1: 0})
    assert set(er.values()) == {0} and set(dr.values()) == {0}
    er, dr = residual_slacks_by_cancelation({1: 3}, {0: 2})
    assert er == {1: 1} and dr == {0: 0}


def test_cancelation_matches_closed_form_on_seeded_vectors():
    rng = random.Random(20240817)
    for _ in range(2000):
        top = rng.randint(1, 6)
        eps = {j: rng.randint(0, 5) for j in range(1, top + 1)}
        delta = {j: rng.randint(0, 5) for j in range(0, top)}
        assert residual_slacks_by_cancelation(eps, delta) == reference_residuals(
            eps, delta, top
        )


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda top: st.tuples(
            st.just(top),
            st.lists(st.integers(0, 7), min_size=top, max_size=top),
            st.lists(st.integers(0, 7), min_size=top, max_size=top),
        )
    )
)
def test_cancelation_matches_closed_form_property(data):
    top, e, d = data
    eps = {j + 1: e[j] for j in range(top)}
    delta = {j: d[j] for j in range(top)}
    assert residual_slacks_by_cancelation(eps, delta) == reference_residuals(eps, delta, top)


def test_active_multinodes_at_the_ends():
    f0 = source_function(2, (1, 2))
    assert active_multinode(f0, 1, FORWARD) == (1, 1)
    assert active_multinode(f0, 2, FORWARD) == (2, 1)
    assert active_multinode(f0, 1, BACKWARD) is None
    fc = sink_function(2, (1, 2))
    assert active_multinode(fc, 1, FORWARD) is None
    assert active_multinode(fc, 2, FORWARD) is None


def test_forward_moves_from_the_source():
    f0 = source_function(2, (1, 2))
    assert active_multinode(f0, 1, FORWARD) == (1, 1)
    assert switch_node(f0, 1, 1, FORWARD) == NodeRef(1, 1, 1)
    assert forward_move(f0, 1) == f0.replace(NodeRef(1, 1, 1), 1)
    assert active_multinode(f0, 2, FORWARD) == (2, 1)
    assert switch_node(f0, 2, 1, FORWARD) == NodeRef(2, 2, 1)
    assert forward_move(f0, 2) == f0.replace(NodeRef(2, 2, 1), 1)
    assert forward_move(sink_function(2, (1, 2)), 1) is None
    assert backward_move(f0, 1) is None


def test_backward_undoes_forward():
    f0 = source_function(2, (1, 2))
    stepped = forward_move(f0, 1)
    assert backward_move(stepped, 1) == f0


def all_feasible_functions(n, c):
    g = build_supporting_graph(n)
    b = zero_bounds(c)
    for vals in itertools.product(*[range(c[v.k - 1] + 1) for v in g.nodes]):
        f = dict(zip(g.nodes, vals))
        if is_feasible(g, f, b).ok:
            from ancrystal import make_weight_function

            yield make_weight_function(g, f, b)


@pytest.mark.parametrize("n,c", [(2, (2, 2)), (3, (1, 1, 1))])
def test_moves_preserve_feasibility_and_change_one_node(n, c):
    g = build_supporting_graph(n)
    for f in all_feasible_functions(n, c):
        for i in range(1, n + 1):
            out = forward_move(f, i)
            if out is None:
                continue
            v = switch_node(f, *active_multinode(f, i, FORWARD), FORWARD)
            diffs = [(a, b) for a, b in zip(f.values, out.values) if a != b]
            assert diffs == [(f.value(v), f.value(v) + 1)]
            assert out.value(v) == f.value(v) + 1
            assert is_feasible(g, out, f.bounds).ok


@pytest.mark.parametrize("n,c", [(2, (2, 2)), (3, (1, 1, 1))])
def test_move_involution_exhaustive(n, c):
    for f in all_feasible_functions(n, c):
        for i in range(1, n + 1):
            out = forward_move(f, i)
            if out is not None:
                assert backward_move(out, i) == f
            outb = backward_move(f, i)
            if outb is not None:
                assert forward_move(outb, i) == f


def test_string_lengths_at_source_and_sink():
    f0 = source_function(2, (1, 2))
    assert [string_lengths(f0, i) for i in (1, 2)] == [(1, 0), (2, 0)]
    fc = sink_function(2, (1, 2))
    # downward string lengths at the sink mirror the upward ones at the source
    assert [string_lengths(fc, i) for i in (1, 2)] == [(0, 2), (0, 1)]


def test_string_lengths_equal_iterated_moves():
    for f in all_feasible_functions(3, (1, 1, 1)):
        for i in (1, 2, 3):
            h, t = string_lengths(f, i)
            cur, count = f, 0
            while True:
                out = forward_move(cur, i)
                if out is None:
                    break
                cur, count = out, count + 1
            assert count == h
            cur, count = f, 0
            while True:
                out = backward_move(cur, i)
                if out is None:
                    break
                cur, count = out, count + 1
            assert count == t


def test_weight_changes_by_the_cartan_row():
    n, c = 3, (1, 1, 1)
    M = CARTAN(n)
    for f in all_feasible_functions(n, c):
        for i in range(1, n + 1):
            out = forward_move(f, i)
            if out is None:
                continue
            before = [string_lengths(f, j) for j in range(1, n + 1)]
            after = [string_lengths(out, j) for j in range(1, n + 1)]
            delta = [
                (hb - tb) - (ha - ta)
                for (hb, tb), (ha, ta) in zip(before, after)
            ]
            assert delta == M[i - 1]


def test_distant_colors_commute():
    n, c = 3, (1, 1, 1)
    for f in all_feasible_functions(n, c):
        a = forward_move(f, 1)
        b = forward_move(f, 3)
        if a is None or b is None:
            continue
        ab = forward_move(a, 3)
        ba = forward_move(b, 1)
        assert ab is not None and ba is not None
        assert ab == ba


def sandwich_rule(eps_res, delta_res, i, direction):
    """The active multinode read off the residual slack dicts of level i.

    Forward: the least j whose residual lower slacks before it and residual
    upper slacks after it all vanish, taken iff its own residual upper slack is
    positive.  Backward: the least j >= 1 with a positive residual lower slack.
    """
    if direction == FORWARD:
        for j in range(1, i + 1):
            if all(delta_res[q] == 0 for q in range(0, j)) and all(
                eps_res[q] == 0 for q in range(j + 1, i + 2)
            ):
                return (i, j) if eps_res[j] > 0 else None
        return None
    for j in range(1, i + 1):
        if delta_res[j] > 0:
            return (i, j)
    return None


# Random K(c, d) with n <= 4, lower bounds in [-2, 2] not all zero and
# c_k - d_k in [0, 2] (in [0, 1] for n = 4, to keep each crystal small).
shifted_crystals = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2 if n < 4 else 1), min_size=n, max_size=n),
    )
)


@settings(max_examples=15, deadline=None)
@given(shifted_crystals, st.randoms(use_true_random=False))
def test_compiled_moves_match_the_slack_dicts(params, rng):
    """The compiled prefix sums agree with the slack dicts, and
    string_lengths, active_multinode and switch_node, which run on the
    compiled tables, agree with the residual dicts and the per-member switch
    rule on vertices of K(c, d) with nonzero d; each forward move raises the
    forward switch node by one, stays feasible and is undone by the backward
    move."""
    n, d, width = params
    assume(any(d))
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    functions = [K.function(v) for v in K.vertex_ids()]
    for f in rng.sample(functions, min(len(functions), 150)):
        for i in range(1, n + 1):
            eps, delta, eps_res, delta_res = slack_dicts(f, i)
            steps = [eps[j] - delta[j - 1] for j in range(1, i + 2)]
            assert level_slacks(f, i) == [0, *itertools.accumulate(steps)]
            h, t = sum(eps_res.values()), sum(delta_res.values())
            assert string_lengths(f, i) == (h, t)
            for direction in (FORWARD, BACKWARD):
                expected = sandwich_rule(eps_res, delta_res, i, direction)
                assert active_multinode(f, i, direction) == expected
            out = forward_move(f, i)
            if out is None:
                continue
            v = switch_node(f, *active_multinode(f, i, FORWARD), FORWARD)
            assert out == f.replace(v, f.value(v) + 1)
            assert is_feasible(f.graph, out, f.bounds).ok
            assert backward_move(out, i) == f
        for mn in f.graph.multinodes.values():
            allowed = allowed_switch_members(f.value, mn.members)
            assert switch_node(f, mn.i, mn.j, FORWARD) == mn.members[allowed[0]]
            assert switch_node(f, mn.i, mn.j, BACKWARD) == mn.members[allowed[-1]]


@pytest.mark.parametrize("i", [0, -1, 4])
def test_a_color_outside_1_to_n_is_a_parameter_error(i):
    f = source_function(3, (1, 1, 1))
    calls = [
        lambda: level_slacks(f, i),
        lambda: slack_dicts(f, i),
        lambda: string_lengths(f, i),
        lambda: active_multinode(f, i, FORWARD),
        lambda: active_multinode(f, i, BACKWARD),
        lambda: forward_move(f, i),
        lambda: backward_move(f, i),
    ]
    for call in calls:
        level_slacks(f, 1)  # a scan just before must not let i through
        with pytest.raises(ParameterError, match=f"i={i} out of range for n=3"):
            call()


def prefix_from_dicts(f, i):
    """[A(0), ..., A(i+1)] rebuilt from slack_dicts, which keeps no state."""
    eps, delta, _, _ = slack_dicts(f, i)
    return [0, *itertools.accumulate(eps[j] - delta[j - 1] for j in range(1, i + 2))]


@settings(max_examples=25, deadline=None)
@given(shifted_crystals, st.randoms(use_true_random=False))
def test_level_slacks_never_serves_a_stale_prefix(params, rng):
    """Interleaved calls of the move layer over random (vertex, color) pairs
    each see the prefix of their own (f, i): repeated calls on one f, calls
    on equal but distinct weight functions, and switches of f or i between
    calls."""
    n, d, width = params
    assume(any(d))
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    held = {}  # one object per vertex, so that some calls repeat an f
    v, i = 0, 1
    for _ in range(120):
        if rng.random() < 0.7:
            v, i = rng.randrange(K.num_vertices), rng.randint(1, n)
        if rng.random() < 0.5:
            f = held.setdefault(v, K.function(v))
        else:
            f = K.function(v)
        expected = prefix_from_dicts(f, i)
        top = max(expected)
        op = rng.randrange(4)
        if op == 0:
            assert level_slacks(f, i) == expected
        elif op == 1:
            assert string_lengths(f, i) == (top, top - expected[-1])
        elif op == 2:
            j = expected.index(top)
            out = forward_move(f, i)
            if not 1 <= j <= i:
                assert out is None
            else:
                node = switch_node(f, i, j, FORWARD)
                assert out == f.replace(node, f.value(node) + 1)
        else:
            tail = expected[:0:-1]
            j = i + 1 - tail.index(max(tail))
            out = backward_move(f, i)
            if not 1 <= j <= i:
                assert out is None
            else:
                node = switch_node(f, i, j, BACKWARD)
                assert out == f.replace(node, f.value(node) - 1)


def test_a_changed_prefix_does_not_change_the_next_call():
    f = source_function(3, (2, 1, 2))
    for i in (1, 2, 3):
        expected = prefix_from_dicts(f, i)
        first = level_slacks(f, i)
        assert first == expected
        first[0] = 99
        first.append(7)
        second = level_slacks(f, i)
        assert second == expected
        second[-1] -= 1
        assert string_lengths(f, i) == (max(expected), max(expected) - expected[-1])
        assert level_slacks(f, i) == expected
