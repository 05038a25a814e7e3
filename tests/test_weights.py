import itertools
import re

import pytest

from ancrystal import (
    BACKWARD,
    FORWARD,
    Bounds,
    InfeasibleError,
    NodeRef,
    ParameterError,
    WeightFunction,
    build_supporting_graph,
    is_feasible,
    make_weight_function,
    principal_function,
    switch_node,
    zero_bounds,
)
from conftest import allowed_switch_members


def f_n2(alpha1, alpha2, beta1, beta2, c=(1, 2)):
    """Raw value map for n=2: alphas on G^1 top-to-bottom, betas on G^2."""
    return {
        NodeRef(1, 1, 1): alpha1,
        NodeRef(1, 2, 2): alpha2,
        NodeRef(2, 1, 1): beta1,
        NodeRef(2, 2, 1): beta2,
    }


def test_bounds_validation():
    with pytest.raises(ParameterError):
        Bounds((1, 0), (0, 1))
    with pytest.raises(ParameterError):
        Bounds((1,), (0, 0))
    b = Bounds((3, 2), (-1, 0))
    assert b.n == 2


def extended(f, v):
    """Value of f at an extended node, read through the graph's slot table."""
    return (f.values + f.bounds.c + f.bounds.d)[f.graph.slot[v]]


def test_extended_values_on_extras():
    g = build_supporting_graph(2)
    f = principal_function(g, (0, 0), zero_bounds((1, 2)))
    assert extended(f, NodeRef(2, 0, 0)) == 2  # left-extra of G^2
    assert extended(f, NodeRef(2, 2, 2)) == 0  # right-extra of G^2
    assert extended(f, NodeRef(1, 1, 1)) == 0  # identity on G
    assert NodeRef(1, 3, 0) not in g.slot


def test_extended_values_read_both_bounds():
    g = build_supporting_graph(2)
    b = Bounds((3, 4), (-1, 1))
    f = principal_function(g, (0, 2), b)
    assert extended(f, NodeRef(1, 0, 0)) == 3  # c_1
    assert extended(f, NodeRef(2, 0, 0)) == 4  # c_2
    assert extended(f, NodeRef(1, 1, 2)) == -1  # d_1
    assert extended(f, NodeRef(2, 2, 2)) == 1  # d_2
    assert extended(f, NodeRef(2, 2, 1)) == 2  # f on G^2


def test_constant_zero_is_feasible():
    for n in (1, 2, 3):
        g = build_supporting_graph(n)
        b = zero_bounds((2,) * n)
        f = {v: 0 for v in g.nodes}
        assert is_feasible(g, f, b).ok


def test_two_strict_inequalities_break_the_switch_condition():
    g = build_supporting_graph(2)
    b = zero_bounds((1, 2))
    bad = is_feasible(g, f_n2(1, 0, 0, 2), b)
    assert not bad.ok
    assert bad.violation.condition == "switch"
    assert (bad.violation.i, bad.violation.j) == (1, 1)
    assert is_feasible(g, f_n2(1, 1, 0, 2), b).ok
    assert is_feasible(g, f_n2(1, 0, 2, 2), b).ok


def test_monotone_and_bounds_violations_are_localized():
    g = build_supporting_graph(2)
    b = zero_bounds((1, 2))
    r = is_feasible(g, f_n2(0, 1, 0, 0), b)  # increases along the G^1 edge
    assert not r.ok and r.violation.condition == "monotone"
    assert (r.violation.k, r.violation.i, r.violation.j) == (1, 1, 1)
    r = is_feasible(g, f_n2(2, 0, 0, 0), b)  # above c_1
    assert not r.ok and r.violation.condition == "bounds"


def test_bounds_of_another_length_name_no_node():
    # the mismatch has no location, so it is a ParameterError, not a Violation
    g = build_supporting_graph(2)
    with pytest.raises(ParameterError, match=r"length 1, expected n=2$"):
        is_feasible(g, {v: 0 for v in g.nodes}, zero_bounds((1,)))
    data = principal_function(g, (0, 0), zero_bounds((1, 2))).to_json()
    data.update(c=[1], d=[0])
    with pytest.raises(ParameterError, match=r"bound tuples of length 1, expected n=2$"):
        WeightFunction.from_json(data)


def test_switch_nodes_in_the_first_multinode():
    g = build_supporting_graph(2)
    f = principal_function(g, (0, 0), zero_bounds((1, 2)))
    assert switch_node(f, 1, 1, FORWARD) == NodeRef(1, 1, 1)
    assert switch_node(f, 1, 1, BACKWARD) == NodeRef(2, 1, 1)
    # singleton multinode: both directions agree
    assert switch_node(f, 2, 1, FORWARD) == switch_node(f, 2, 1, BACKWARD) == NodeRef(2, 2, 1)


def test_a_multinode_outside_g_has_no_switch_node():
    f = principal_function(build_supporting_graph(2), (0, 0), zero_bounds((1, 2)))
    for direction in (FORWARD, BACKWARD):
        with pytest.raises(ParameterError, match=r"^no multinode V_3\(1\) for n=2$"):
            switch_node(f, 3, 1, direction)


@pytest.mark.parametrize("direction", ["Forward", "up", None])
def test_switch_node_rejects_an_unknown_direction(direction):
    f = principal_function(build_supporting_graph(2), (0, 0), zero_bounds((1, 2)))
    message = f"^direction must be 'forward' or 'backward', got {direction!r}$"
    with pytest.raises(ParameterError, match=message):
        switch_node(f, 1, 1, direction)


@pytest.mark.parametrize("v", [NodeRef(3, 1, 1), NodeRef(1, 2, 1), (1, 0, 0)])
def test_a_node_outside_g_has_no_value(v):
    f = principal_function(build_supporting_graph(2), (0, 0), zero_bounds((1, 2)))
    message = rf"^{re.escape(str(v))} is not a node of G for n=2$"
    with pytest.raises(ParameterError, match=message):
        f.value(v)
    with pytest.raises(ParameterError, match=message):
        f.replace(v, 1)


def test_switch_members_form_a_contiguous_range():
    c = (2, 1, 2)
    g = build_supporting_graph(3)
    b = zero_bounds(c)
    nodes = g.nodes
    for vals in itertools.product(*[range(c[v.k - 1] + 1) for v in nodes]):
        f = dict(zip(nodes, vals))
        report = is_feasible(g, f, b)
        if not report.ok:
            if report.violation.condition == "switch":
                # the first multinode in (i, j) order with no allowed member
                v = report.violation
                empty = [
                    key for key in sorted(g.multinodes)
                    if not allowed_switch_members(lambda u: f[u], g.multinodes[key].members)
                ]
                assert empty[0] == (v.i, v.j)
            continue
        wf = make_weight_function(g, f, b)
        for mn in g.multinodes.values():
            cands = allowed_switch_members(lambda v: f[v], mn.members)
            assert cands, mn
            assert cands == list(range(cands[0], cands[-1] + 1))
            assert switch_node(wf, mn.i, mn.j, FORWARD) == mn.members[cands[0]]
            assert switch_node(wf, mn.i, mn.j, BACKWARD) == mn.members[cands[-1]]


def test_principal_function_bounds_and_lattice_order():
    g = build_supporting_graph(3)
    b = zero_bounds((1, 1, 1))
    f = principal_function(g, (1, 0, 1), b)
    assert f.subgraph_values(1) == (1, 1, 1)
    assert f.subgraph_values(2) == (0, 0, 0, 0)
    assert f.constants() == (1, 0, 1) and f.is_principal()
    for k in (0, 4):
        with pytest.raises(ParameterError, match=f"color {k} out of range"):
            f.subgraph_values(k)
    with pytest.raises(ParameterError):
        principal_function(g, (2, 0, 0), b)
    with pytest.raises(ParameterError):
        principal_function(g, (1, 0), b)
    tuples = list(itertools.product(range(2), repeat=3))
    for a in tuples:
        for a2 in tuples:
            fa = principal_function(g, a, b)
            fa2 = principal_function(g, a2, b)
            dominated = all(x <= y for x, y in zip(a, a2))
            assert dominated == all(x <= y for x, y in zip(fa.values, fa2.values))


def test_make_weight_function_rejects_infeasible():
    g = build_supporting_graph(2)
    with pytest.raises(InfeasibleError):
        make_weight_function(g, f_n2(1, 0, 0, 2), zero_bounds((1, 2)))


def test_json_round_trip():
    g = build_supporting_graph(3)
    b = Bounds((2, 2, 2), (0, 1, 0))
    f = principal_function(g, (1, 2, 0), b)
    again = WeightFunction.from_json(f.to_json())
    assert again == f
    data = f.to_json()
    assert data["values"] == sorted(data["values"], key=lambda r: (r[1], r[2], r[0]))


def test_weight_function_equality_and_hash_follow_its_fields():
    g = build_supporting_graph(2)
    b = zero_bounds((1, 2))
    f = principal_function(g, (0, 1), b)
    copy = WeightFunction(g, Bounds((1, 2), (0, 0)), tuple(list(f.values)))
    assert f == copy and hash(f) == hash(copy) and len({f, copy}) == 1
    assert f != WeightFunction(g, zero_bounds((2, 2)), f.values)
    assert f != principal_function(g, (0, 0), b)
    assert f != WeightFunction(build_supporting_graph(3), b, f.values)
    # a weight function is not its value tuple, nor the tuple of its fields
    assert f != f.values and f.values != f
    assert f != (g, b, f.values)
    assert repr(f) == f"WeightFunction(graph={g!r}, bounds={b!r}, values={f.values!r})"
