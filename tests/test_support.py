import itertools

import pytest

from ancrystal import NodeRef, ParameterError, build_supporting_graph


def test_rejects_nonpositive_n():
    with pytest.raises(ParameterError):
        build_supporting_graph(0)
    with pytest.raises(ParameterError):
        build_supporting_graph(-3)


@pytest.mark.parametrize("n", [True, 2.0, "3", None])
def test_rejects_a_non_integer_n_by_its_value(n):
    with pytest.raises(ParameterError, match=repr(n)):
        build_supporting_graph(n)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_slot_table_follows_the_extension_rule(n):
    g = build_supporting_graph(n)
    size = len(g.nodes)
    members = 0
    for k, i, j in itertools.product(range(-1, n + 3), repeat=3):
        v = NodeRef(k, i, j)
        block = extension_block(n, k, i, j)
        if block is None:
            assert v not in g.slot
            continue
        members += 1
        expected = {"own": g.index.get(v), "c": size + k - 1, "d": size + n + k - 1}
        assert g.slot[v] == expected[block], (v, block)
    assert members == len(g.slot)


def test_extended_classification():
    g = build_supporting_graph(2)
    size, n = len(g.nodes), 2
    assert g.slot[NodeRef(1, 1, 1)] == g.index[NodeRef(1, 1, 1)]
    assert g.slot[NodeRef(2, 0, 0)] == size + 1  # c_2: left of G^2
    assert g.slot[NodeRef(1, 2, 1)] == size + 0  # c_1: below G^1, i-j > k-1
    assert g.slot[NodeRef(2, 2, 2)] == size + n + 1  # d_2: right of G^2
    assert g.slot[NodeRef(1, 1, 2)] == size + n + 0  # d_1: j > n-k+1
    assert NodeRef(1, 3, 0) not in g.slot


def test_every_extended_node_gets_exactly_one_class():
    n = 4
    g = build_supporting_graph(n)
    size = len(g.nodes)
    for v, p in g.slot.items():
        own = p == g.index.get(v)
        left = p == size + v.k - 1
        right = p == size + n + v.k - 1
        assert own + left + right == 1, (v, p)
        assert own == g.is_node(v)
    assert set(g.index) <= set(g.slot)


def test_canonical_order_is_by_level_position_subgraph():
    g = build_supporting_graph(3)
    keys = [v.canonical_key for v in g.nodes]
    assert keys == sorted(keys)
    assert g.index[g.nodes[0]] == 0
