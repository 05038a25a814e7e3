import dataclasses
import gc
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ancrystal import (
    Bounds,
    NodeRef,
    ParameterError,
    WeightFunction,
    base_crystal,
    build_supporting_graph,
    canonical_string,
    fundamental_strings,
    level_slacks,
    principal_function,
    slack_dicts,
    string_lengths,
    zero_bounds,
)
from ancrystal import support
from conftest import allowed_switch_members


def test_rejects_nonpositive_n():
    with pytest.raises(ParameterError):
        build_supporting_graph(0)
    with pytest.raises(ParameterError):
        build_supporting_graph(-3)


@pytest.mark.parametrize("n", [True, 2.0, "3", None])
def test_rejects_a_non_integer_n_by_its_value(n):
    with pytest.raises(ParameterError, match=repr(n)):
        build_supporting_graph(n)


@pytest.mark.parametrize("n", [True, 1.0, 0, "1"])
def test_a_cached_graph_does_not_let_a_bad_n_through(n):
    build_supporting_graph(1)  # True and 1.0 hash like 1, the cached key
    with pytest.raises(ParameterError, match=repr(n)):
        build_supporting_graph(n)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_every_caller_of_an_n_shares_one_graph(n):
    assert build_supporting_graph(n) is build_supporting_graph(n)


@pytest.mark.parametrize("table", ["index", "multinodes", "heads", "se", "sw"])
def test_the_shared_tables_are_read_only(table):
    g = build_supporting_graph(2)
    record = g.multinodes[1, 1]  # two members, so one pair of each kind
    mapping = getattr(record, table) if table in ("se", "sw") else getattr(g, table)
    key = 0 if isinstance(mapping, tuple) else next(iter(mapping))  # heads, se and sw are tuples
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]


def test_a_shared_multinode_keeps_its_switch_test():
    m = next(iter(build_supporting_graph(2).multinodes.values()))
    for name in ("switch", "se", "sw"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, getattr(m, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(m, name)


@pytest.mark.parametrize("i, j", [(4, 4), (2, 3), (0, 0), (3, 1)])
def test_a_multinode_outside_g_is_a_parameter_error(i, j):
    with pytest.raises(ParameterError, match=rf"^no multinode V_{i}\({j}\) for n=2$"):
        build_supporting_graph(2).multinode(i, j)


def test_n1_is_a_single_node():
    g = build_supporting_graph(1)
    assert g.nodes == (NodeRef(1, 1, 1),)
    assert list(g.edges()) == []


def test_n2_subgraphs_are_two_disjoint_edges():
    g = build_supporting_graph(2)
    assert g.base_nodes(1) == (NodeRef(1, 1, 1), NodeRef(1, 2, 2))
    assert g.base_nodes(2) == (NodeRef(2, 1, 1), NodeRef(2, 2, 1))
    edges = set(g.edges())
    assert edges == {
        (NodeRef(1, 1, 1), NodeRef(1, 2, 2)),
        (NodeRef(2, 2, 1), NodeRef(2, 1, 1)),
    }


def test_n4_subgraph_sizes():
    g = build_supporting_graph(4)
    assert [len(g.base_nodes(k)) for k in range(1, 5)] == [4, 6, 6, 4]


@pytest.mark.parametrize("n", range(1, 6))
def test_base_index_slices_are_the_subgraphs(n):
    g = build_supporting_graph(n)
    for k in range(1, n + 1):
        assert g.base_index[k - 1] == tuple(p for p, v in enumerate(g.nodes) if v.k == k)
        assert g.base_nodes(k) == tuple(v for v in g.nodes if v.k == k)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_base_nodes_rejects_a_color_out_of_range(k):
    with pytest.raises(ParameterError, match=f"color {k} out of range for n=3"):
        build_supporting_graph(3).base_nodes(k)


@pytest.mark.parametrize("n", range(1, 7))
def test_node_counts_and_multinode_partition(n):
    g = build_supporting_graph(n)
    assert len(g.nodes) == sum(k * (n - k + 1) for k in range(1, n + 1))
    seen = []
    for mn in g.multinodes.values():
        assert len(mn.members) == n - mn.i + 1
        seen.extend(mn.members)
    assert sorted(seen) == sorted(g.nodes)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_head_table_is_the_ne_and_se_rule(n):
    """heads[p] lists the NE head v_{i-1}^k(j) and then the SE head
    v_{i+1}^k(j+1) of nodes[p], those of them that are nodes of G, by the
    bounds on (k, i, j) stated here once more."""
    g = build_supporting_graph(n)

    def in_g(k, i, j):
        return 1 <= k <= n and 1 <= j <= n - k + 1 and j <= i <= j + k - 1

    position = {v: p for p, v in enumerate(g.nodes)}
    expected = tuple(
        tuple(
            position[NodeRef(*h)]
            for h in ((v.k, v.i - 1, v.j), (v.k, v.i + 1, v.j + 1))
            if in_g(*h)
        )
        for v in g.nodes
    )
    assert g.heads == expected
    assert list(g.edges()) == [(u, g.nodes[q]) for u, hs in zip(g.nodes, expected) for q in hs]


@pytest.mark.parametrize("n", range(1, 8))
def test_the_multinode_pairs_are_the_se_and_sw_rule(n):
    """m.se pairs members 0..last-1 with their SE neighbors v_{i+1}^k(j+1) and
    m.sw members last..1 with their SW ones v_{i+1}^k(j), as positions, by
    the coordinates stated here once more."""
    g = build_supporting_graph(n)
    position = {v: p for p, v in enumerate(g.nodes)}
    for m in g.multinodes.values():
        se = [(v, NodeRef(v.k, v.i + 1, v.j + 1)) for v in m.members[:-1]]
        sw = [(v, NodeRef(v.k, v.i + 1, v.j)) for v in m.members[:0:-1]]
        assert m.se == tuple((position[v], position[s]) for v, s in se)
        assert m.sw == tuple((position[v], position[w]) for v, w in sw)


@pytest.mark.parametrize("n", range(1, 7))
def test_edges_stay_inside_one_subgraph_and_step_one_level(n):
    g = build_supporting_graph(n)
    for (u, v) in g.edges():
        assert u.k == v.k
        assert abs(u.i - v.i) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_left_right_are_the_ends_of_each_base_subgraph(n):
    g = build_supporting_graph(n)
    for k in range(1, n + 1):
        left = NodeRef(k, k, 1)
        right = NodeRef(k, n - k + 1, n - k + 1)
        heads = {v for (_, v) in g.edges() if v.k == k}
        tails = {u for (u, _) in g.edges() if u.k == k}
        nodes = set(g.base_nodes(k))
        assert left in nodes and left not in heads
        assert right in nodes and right not in tails
        # every other node lies strictly between the two ends
        if len(nodes) > 1:
            assert heads == nodes - {left}
            assert tails == nodes - {right}


def test_grid_shape_via_path_steps():
    # every source-to-sink path of G^k makes k-1 NE-steps and n-k SE-steps
    n = 5
    g = build_supporting_graph(n)
    for k in range(1, n + 1):
        succ = {}
        for (u, v) in g.edges():
            if u.k == k:
                succ.setdefault(u, []).append(v)

        def walk(v, ne, se):
            outs = succ.get(v, [])
            if not outs:
                assert (ne, se) == (k - 1, n - k)
                return
            for w in outs:
                if w.i < v.i:
                    walk(w, ne + 1, se)
                else:
                    walk(w, ne, se + 1)

        walk(NodeRef(k, k, 1), 0, 0)  # the left end of G^k


def extension_block(n, k, i, j):
    """Where v_i^k(j) takes its extended value: "own" on G, "c" for an extra
    node left of G^k, "d" for one right of it; None off the extended graph."""
    if not (1 <= k <= n and 0 <= i <= n + 1 and 0 <= j <= min(i + 1, n + 1)):
        return None
    if (i, j) == (n + 1, 0):
        return None
    if 1 <= j <= n - k + 1 and 0 <= i - j <= k - 1:
        return "own"
    return "c" if j == 0 or i - j > k - 1 else "d"


def extension_term(g, v):
    """``support._term`` of the extended node v of g, or None off the extended graph."""
    if extension_block(g.n, *v) is None:
        return None
    return support._term(g.index, *v)


@pytest.mark.parametrize("n", range(1, 7))
def test_slot_table_follows_the_extension_rule(n):
    # the kernels read each extended node through the term that _term writes
    g = build_supporting_graph(n)
    for k, i, j in itertools.product(range(-1, n + 3), repeat=3):
        v = NodeRef(k, i, j)
        block = extension_block(n, k, i, j)
        if block is None:
            continue
        expected = {"own": f"v[{g.index.get(v)}]", "c": f"c[{k - 1}]", "d": f"d[{k - 1}]"}
        assert extension_term(g, v) == expected[block], (v, block)


def test_extended_classification():
    g = build_supporting_graph(2)
    assert extension_term(g, NodeRef(1, 1, 1)) == f"v[{g.index[NodeRef(1, 1, 1)]}]"
    assert extension_term(g, NodeRef(2, 0, 0)) == "c[1]"  # c_2: left of G^2
    assert extension_term(g, NodeRef(1, 2, 1)) == "c[0]"  # c_1: below G^1, i-j > k-1
    assert extension_term(g, NodeRef(2, 2, 2)) == "d[1]"  # d_2: right of G^2
    assert extension_term(g, NodeRef(1, 1, 2)) == "d[0]"  # d_1: j > n-k+1
    assert extension_term(g, NodeRef(1, 3, 0)) is None


def test_every_extended_node_gets_exactly_one_class():
    n = 4
    g = build_supporting_graph(n)
    extended = []
    for v in itertools.starmap(NodeRef, itertools.product(range(-1, n + 3), repeat=3)):
        term = extension_term(g, v)
        if term is None:
            continue
        extended.append(v)
        own = term == f"v[{g.index.get(v)}]"
        left = term == f"c[{v.k - 1}]"
        right = term == f"d[{v.k - 1}]"
        assert own + left + right == 1, (v, term)
        assert own == g.is_node(v)
    assert set(g.index) <= set(extended)


def test_canonical_order_is_by_level_position_subgraph():
    g = build_supporting_graph(3)
    keys = [v.canonical_key for v in g.nodes]
    assert keys == sorted(keys)
    assert g.index[g.nodes[0]] == 0


def value_vectors(n):
    """n, a value sequence in canonical node order that ignores every
    feasibility condition, and per color a lower bound and a width."""
    size = len(build_supporting_graph(n).nodes)
    return st.tuples(
        st.just(n),
        st.lists(st.integers(-2, 2), min_size=size, max_size=size),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)), min_size=n, max_size=n),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(value_vectors))
def test_compiled_kernels_match_their_plain_restatements(params):
    """The generated level scans, switch tests and constants agree with the
    slack dicts, the member-by-member switch rule and a per-subgraph set of
    values, on any integer vector, feasible or not; a scan's peak is the
    max of its prefix and its first argmax."""
    n, values, bounds = params
    g = build_supporting_graph(n)
    values = tuple(values)
    d = tuple(lo for lo, _ in bounds)
    c = tuple(lo + width for lo, width in bounds)
    f = WeightFunction(g, Bounds(c, d), values)
    for i in range(1, n + 1):
        eps, delta, _, _ = slack_dicts(f, i)
        prefix = [0]
        for j in range(1, i + 2):
            prefix.append(prefix[-1] + eps[j] - delta[j - 1])
        scanned, h, j = g.level_scans[i - 1](values, c, d)
        assert scanned == tuple(prefix)
        assert h == max(prefix) and j == prefix.index(h)
    value = dict(zip(g.nodes, values)).__getitem__
    for key, mn in g.multinodes.items():
        lo, end = mn.switch(values)
        assert list(range(lo, end)) == allowed_switch_members(value, mn.members), key
    expected = []
    for k in range(1, n + 1):
        on_k = {x for v, x in zip(g.nodes, values) if v.k == k}
        expected.append(on_k.pop() if len(on_k) == 1 else None)
    assert g.constants_of(values) == tuple(expected)


def traced_peak(call):
    """What ``call()`` returns, and the most memory it held at once beyond what
    was held before, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_compiling_the_kernels_does_not_spike_memory(monkeypatch):
    # each kernel is parsed from its own source, so the parser never holds
    # the tokens of the whole graph at once: the build peaks below half of
    # what one compile() of all the kernel sources takes
    sources = []

    def recording(lines, n):
        sources.append("\n".join(lines))
        return compiled(lines, n)

    compiled = support._compiled
    monkeypatch.setattr(support, "_compiled", recording)
    support._build.__wrapped__(12)  # uncached: a fresh build
    monkeypatch.setattr(support, "_compiled", compiled)
    g, build_peak = traced_peak(lambda: support._build.__wrapped__(12))
    assert g.n == 12
    _, whole_peak = traced_peak(lambda: compile("\n".join(sources), "<all kernels>", "exec"))
    assert build_peak < whole_peak / 2, (build_peak, whole_peak)


@pytest.mark.parametrize(
    "v", [(1.0, 1, 1), NodeRef(True, True, True), (True, 1, 1), NodeRef(1, 1.0, 1), (1, 1, 1.5)]
)
def test_a_coordinate_that_is_not_an_int_names_no_node(v):
    # each hashes like (1, 1, 1), so an index lookup alone read or wrote that node
    g = build_supporting_graph(2)
    f = principal_function(g, (0, 0), zero_bounds((1, 2)))
    message = rf"^{re.escape(repr(v))} is not a node of G for n=2$"
    for call in (g.position, f.value, lambda v: f.replace(v, 0)):
        with pytest.raises(ParameterError, match=message):
            call(v)
    assert not g.is_node(v)


@pytest.mark.parametrize("v", [[1, 1, 1], (1, 1), (1, 1, 1, 1), NodeRef(1.5, 1, 1), "111", None])
def test_only_a_tuple_of_three_ints_is_a_node(v):
    g = build_supporting_graph(2)
    assert not g.is_node(v)
    with pytest.raises(ParameterError, match="is not a node of G for n=2$"):
        g.position(v)


def test_a_node_given_as_a_plain_tuple_is_found():
    g = build_supporting_graph(3)
    for p, v in enumerate(g.nodes):
        assert g.is_node(v) and g.is_node(tuple(v))
        assert g.position(v) == g.position(tuple(v)) == p


def color_callers(n, k):
    """Every generator-side call that takes a color k of n."""
    g = build_supporting_graph(n)
    f = principal_function(g, (0,) * n, zero_bounds((1,) * n))
    return [
        lambda: support.check_color(k, n),
        lambda: g.base_positions(k),
        lambda: g.base_nodes(k),
        lambda: g.top(k),
        lambda: g.bottom(k),
        lambda: f.subgraph_values(k),
        lambda: level_slacks(f, k),
        lambda: slack_dicts(f, k),
        lambda: string_lengths(f, k),
        lambda: canonical_string(n, k),
        lambda: fundamental_strings(n, k),
        lambda: base_crystal(n, k, 1),
    ]


@pytest.mark.parametrize("k", [0, -1, 4])
def test_every_color_check_words_its_range_alike(k):
    for call in color_callers(3, k):
        with pytest.raises(ParameterError, match=rf"^color {k} out of range for n=3$"):
            call()


@pytest.mark.parametrize("k", [True, False, 1.0, "1", None])
def test_every_color_check_refuses_a_color_that_is_not_an_int(k):
    message = rf"^the caller gives color k the non-integer value {re.escape(repr(k))}$"
    for call in color_callers(3, k):
        with pytest.raises(ParameterError, match=message):
            call()


def test_top_and_bottom_of_each_base_subgraph():
    g = build_supporting_graph(3)
    for k in range(1, 4):
        nodes = g.base_nodes(k)
        assert g.top(k) == NodeRef(k, 1, 1) and g.bottom(k) == NodeRef(k, 3, 4 - k)
        assert {g.top(k), g.bottom(k)} <= set(nodes)
