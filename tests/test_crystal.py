import dataclasses
import gc
import itertools
import json
import re
import time
import tracemalloc
import types
from array import array
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from ancrystal import (
    UPPER,
    Bounds,
    CapExceededError,
    GTPattern,
    ModelError,
    ParameterError,
    apply_string,
    branching_multiplicity,
    build_supporting_graph,
    canonical_string,
    count_bounded_patterns,
    dual,
    find_isomorphism,
    find_sink_by_operators,
    forward_move,
    from_gt,
    generate,
    interval,
    isomorphic,
    principal_function,
    principal_interval,
    principal_location,
    sigma_bound,
    string_lengths,
    subgraph,
    weyl_dimension,
    zero_bounds,
)
from ancrystal import crystal
from ancrystal.crystal import json_text
from ancrystal.axioms import all_pass, from_crystal_json, verify_graph
from conftest import DESK_PARAMS


def test_a_star_import_binds_no_module():
    names = {}
    exec("from ancrystal import *", names)
    del names["__builtins__"]  # exec's own
    assert "generate" in names
    assert [k for k, v in names.items() if isinstance(v, types.ModuleType)] == []


def test_generate_validates_parameters():
    with pytest.raises(ParameterError):
        generate(2, (1,))
    with pytest.raises(ParameterError):
        generate(2, (1, 1), (0,))
    with pytest.raises(ParameterError):
        generate(2, (1, 1), cap=0)
    with pytest.raises(ParameterError):
        generate(2, (1, -1))


@pytest.mark.parametrize("n", ["2", 2.0, True, None, 0])
def test_generate_validates_n_before_using_it(n):
    with pytest.raises(ParameterError, match="number of colors must be a positive integer"):
        generate(n, (1, 1))


@pytest.mark.parametrize("cap", [2.5, 3.0, "7", None])
def test_generate_rejects_a_non_integer_cap(cap):
    with pytest.raises(ParameterError, match="vertex cap must be an integer"):
        generate(2, (1, 1), None, cap)


def test_generate_rejects_a_bool_cap():
    # True would otherwise count as a cap of 1
    with pytest.raises(ParameterError, match="vertex cap must be an integer, got True"):
        generate(2, (1, 1), cap=True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate(2, (1.5, 2)), "gives c[0] the non-integer value 1.5"),
        (lambda: generate(2, ("1", True)), "gives c[0] the non-integer value '1'"),
        (lambda: generate(2, (1, 2), (0, 0.0)), "gives d[1] the non-integer value 0.0"),
        (lambda: Bounds((1, 2), (True, 0)), "gives d[0] the non-integer value True"),
        (lambda: principal_function(build_supporting_graph(2), (0.5, 0), Bounds((1, 2), (0, 0))),
         "gives a[0] the non-integer value 0.5"),
        (lambda: branching_multiplicity((1.9, 2), (1.2,)), "gives c[0] the non-integer value 1.9"),
        (lambda: count_bounded_patterns(2, (2.7, 1)), "gives bound[0] the non-integer value 2.7"),
        (lambda: GTPattern(((1.5,), (2, 1))), "gives rows[0][0] the non-integer value 1.5"),
        (lambda: from_gt(build_supporting_graph(2), GTPattern(((1,), (2, 0))), (1, 1.0)),
         "gives c[1] the non-integer value 1.0"),
        (lambda: principal_interval(generate(2, (1, 2)), (0, 0), (1, 2.0)),
         "gives b[1] the non-integer value 2.0"),
        (lambda: principal_location(generate(2, (1, 2)), (0, False), UPPER),
         "gives a[1] the non-integer value False"),
    ],
)
def test_the_api_rejects_a_non_integer_parameter(call, message):
    # int() used to read these as other integers: 1.5 as 1, "1" and True as 1
    with pytest.raises(ParameterError) as e:
        call()
    assert str(e.value) == "the caller " + message


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: generate(2, 5), "c", 5),
        (lambda: generate(2, (1, 1), 0), "d", 0),
        (lambda: Bounds(5, (0,)), "c", 5),
        (lambda: zero_bounds(3), "c", 3),
        (lambda: weyl_dimension(4), "c", 4),
        (lambda: weyl_dimension((1, 1), 0), "d", 0),
        (lambda: branching_multiplicity(3, (1,)), "c", 3),
        (lambda: GTPattern((1,)), "rows[0]", 1),
        (lambda: principal_interval(generate(2, (1, 1)), 5, (1, 1)), "a", 5),
    ],
)
def test_the_api_rejects_a_parameter_that_is_not_a_sequence(call, name, value):
    # tuple() raised a bare TypeError for each
    with pytest.raises(ParameterError) as e:
        call()
    assert str(e.value) == f"the caller gives {name} the non-sequence value {value!r}"


def test_anchor_crystal_counts(crystals):
    K = crystals(2, (1, 2))
    assert (K.num_vertices, K.num_edges) == (15, 18)
    assert K.source == 0
    assert all(K.prv[c][K.source] == -1 and K.nxt[c][K.sink] == -1 for c in K.colors)


def test_equal_bounds_give_a_single_vertex():
    K = generate(2, (1, 2), (1, 2))
    assert K.num_vertices == 1 and K.num_edges == 0
    assert K.source == K.sink == 0


def test_cap_is_enforced():
    # K(2; 1,2) has 15 vertices, known from the Weyl dimension before any move
    with pytest.raises(CapExceededError) as e:
        generate(2, (1, 2), cap=7)
    assert e.value.cap == 7 and e.value.size == 15
    assert str(e.value) == "vertex cap 7 exceeded: the crystal has 15 vertices"
    assert generate(2, (1, 2), cap=15).num_vertices == 15


def test_a_closure_beyond_the_weyl_dimension_is_a_model_error(monkeypatch):
    # the columns are sized by the preflight, so the closure may not pass it
    monkeypatch.setattr(crystal, "weyl_dimension", lambda c, d: 1)
    with pytest.raises(ModelError, match="the closure passed the Weyl dimension 1$"):
        generate(2, (1, 2))


def test_a_closure_short_of_the_weyl_dimension_is_a_model_error(monkeypatch):
    # K(2; 1,2) has 15 vertices; the closure's count is checked after it
    monkeypatch.setattr(crystal, "weyl_dimension", lambda c, d: 16)
    with pytest.raises(ModelError, match="found 15 vertices, not the Weyl dimension 16"):
        generate(2, (1, 2))


@pytest.mark.parametrize("n,c,move,message", [
    # 1 -1-> 2 becomes 1 -1-> 1: vertex 1 already has its 1-edge from 0
    (1, (2,), (1, 1, 1), "vertex 1 received two incoming 1-edges"),
    # 1 -1-> 0 closes a cycle, so no vertex is left without an incoming edge
    (1, (1,), (1, 0, 1), "generation produced more than one zero-indegree vertex"),
    # 2 -1-> 2 gives the last vertex of 0 -1-> 1 -2-> 2 an outgoing edge
    (2, (1, 0), (2, 2, 1), "generation produced more than one zero-outdegree vertex"),
])
def test_a_closure_with_a_wrong_move_is_a_model_error(monkeypatch, n, c, move, message):
    K = generate(n, c)
    u, w, i = move
    real = crystal.forward_move

    def forward_move(f, color):
        return K.function(w) if color == i and f.values == K.keys[u] else real(f, color)

    monkeypatch.setattr(crystal, "forward_move", forward_move)
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        generate(n, c)


def test_an_oversized_crystal_fails_before_the_closure():
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="the crystal has 2737800 vertices"):
        generate(4, (4, 3, 3, 4))
    assert time.perf_counter() - start < 1.0


def refuse_to_build(n):
    raise AssertionError(f"built the supporting graph for n={n}")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: generate(50, (1,)), ParameterError),
        (lambda: generate(0, ()), ParameterError),
        (lambda: generate(40, (1,) + (0,) * 39, cap=10), CapExceededError),
    ],
    ids=["short-bounds", "bad-n", "over-cap"],
)
def test_generate_checks_its_parameters_before_building_the_graph(monkeypatch, call, error):
    monkeypatch.setattr(crystal, "build_supporting_graph", refuse_to_build)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_dimension_is_the_pattern_count(n):
    for c in itertools.product(range(3), repeat=n):
        assert weyl_dimension(c) == count_bounded_patterns(n, sigma_bound(c)), c
    # only c - d matters
    assert weyl_dimension((3,) * n, (1,) * n) == weyl_dimension((2,) * n)


@pytest.mark.parametrize("n,c", DESK_PARAMS)
def test_sizes_match_the_pattern_count(n, c, crystals):
    K = crystals(n, c)
    assert K.num_vertices == count_bounded_patterns(n, sigma_bound(c))


def test_vertex_lookup_and_weight(crystals):
    K = crystals(2, (1, 2))
    for v in K.vertex_ids():
        assert K.vertex_by_function(K.function(v)) == v
    assert K.wt(K.source) == {1: 1, 2: 2}
    assert K.wt(K.sink) == {1: -2, 2: -1}


def test_dual_reverses_everything(crystals):
    K = crystals(3, (1, 1, 1))
    D = dual(K)
    assert D.source == K.sink and D.sink == K.source
    assert {(w, u, c) for (u, w, c) in K.edges()} == set(D.edges())
    assert dual(D) == K


def test_crystal_equality_follows_the_graph_bounds_colors_keys_and_nxt(crystals):
    K = crystals(2, (1, 1))
    D = dual(K)
    # prv, h and t are derived from nxt, so other columns there leave K equal
    assert dataclasses.replace(K, prv=D.prv, h=D.h, t=D.t) == K
    other = crystals(2, (1, 2))
    nxt = {c: array("i", col) for c, col in K.nxt.items()}
    nxt[1][K.source] = -1
    for change in [
        {"nxt": nxt},
        {"nxt": D.nxt},
        {"keys": K.keys[::-1]},
        {"colors": K.colors[:1]},
        {"bounds": other.bounds},
        {"graph": build_supporting_graph(3)},
    ]:
        assert dataclasses.replace(K, **change) != K
    assert K != K.keys and K.keys != K
    with pytest.raises(TypeError, match="unhashable"):
        hash(K)


def test_a_copy_derives_its_source_and_sink_from_its_columns(crystals):
    # the copy test_structure.without_edge makes: deleting the 1-edge out of
    # the source leaves its head a second vertex without incoming edges
    K = crystals(3, (1, 1, 1))
    w = K.nxt[1][K.source]
    nxt = {c: array("i", col) for c, col in K.nxt.items()}
    prv = {c: array("i", col) for c, col in K.prv.items()}
    nxt[1][K.source] = prv[1][w] = -1
    J = dataclasses.replace(K, nxt=nxt, prv=prv)
    assert J.source is None and J.sink == K.sink
    assert dual(J).sink is None and dual(J).source == K.sink
    assert K.source == 0


def restated_end(K, columns):
    """The one id whose entry is -1 in the column of every color, per vertex
    with ``all``; every vertex of a colorless graph is an end."""
    ends = [v for v in K.vertex_ids() if all(columns[c][v] < 0 for c in K.colors)]
    return ends[0] if len(ends) == 1 else None


def edge_deleted_copies(K):
    """One copy of K per edge, with that edge deleted."""
    for (u, w, color) in K.edges():
        nxt = {c: array("i", col) for c, col in K.nxt.items()}
        prv = {c: array("i", col) for c, col in K.prv.items()}
        nxt[color][u] = prv[color][w] = -1
        yield dataclasses.replace(K, nxt=nxt, prv=prv)


@pytest.mark.parametrize("n,c", [(1, (0,)), (1, (3,)), (2, (1, 1)), (3, (1, 0, 1))])
def test_source_and_sink_match_a_per_vertex_restatement(n, c, crystals):
    K = crystals(n, c)
    graphs = [K, dual(K), *edge_deleted_copies(K)]
    graphs += [subgraph(K, ids, colors=()) for ids in ([], [0], [0, K.num_vertices - 1])]
    graphs += [subgraph(K, K.vertex_ids(), colors=K.colors[:1])]
    for J in graphs:
        assert (J.source, J.sink) == (restated_end(J, J.prv), restated_end(J, J.nxt))
    assert K.source == 0 and K.sink is not None
    if n == 1:  # one line, discovered from its start
        assert K.sink == K.num_vertices - 1
    assert (dual(K).source, dual(K).sink) == (K.sink, K.source)
    # without colors every vertex is both a source and a sink
    assert subgraph(K, [0], colors=()).source == subgraph(K, [0], colors=()).sink == 0
    if K.num_vertices > 1:
        two = subgraph(K, [0, 1], colors=())
        assert two.source is None and two.sink is None


# Hand-built nxt columns, per color, over a few vertices; each graph's prv
# columns are these reversed.  In the last two, rows 1 to 3 are -1 in all
# colors but one, so their flags tell an AND of the colors from an OR.
HAND_COLUMNS = [
    {},
    {1: []},
    {1: [1, 2, 3, -1]},
    {1: [-1, -1, 3, -1], 2: [-1, -1, -1, -1]},
    {1: [-1, 2, -1, -1], 2: [-1, -1, -1, 0], 3: [-1, -1, 0, -1]},
    {2: [-1, -1, -1, 0], 4: [-1, 3, -1, -1], 5: [-1, -1, 1, -1]},
]


@pytest.mark.parametrize(
    "columns", HAND_COLUMNS,
    ids=["no-colors", "no-vertices", "one-color", "two-colors", "three-colors", "colors-2-4-5"],
)
def test_end_flags_source_and_sink_match_a_per_row_restatement(columns, crystals):
    K = crystals(3, (1, 1, 1))
    colors = tuple(columns)
    num = len(next(iter(columns.values()), range(4)))  # four vertices without colors
    nxt = {c: array("i", col) for c, col in columns.items()}
    prv = {c: array("i", reversed(col)) for c, col in columns.items()}
    J = dataclasses.replace(K, colors=colors, keys=K.keys[:num], nxt=nxt, prv=prv)
    for cols in (nxt, prv):
        restated = bytes(all(cols[c][v] == -1 for c in colors) for v in range(num))
        assert J._end_flags(cols) == restated
        # a subset of the colors, as a subcrystal side asks for
        assert J._end_flags(cols, colors[1:]) == bytes(
            all(cols[c][v] == -1 for c in colors[1:]) for v in range(num)
        )
    assert (J.source, J.sink) == (restated_end(J, prv), restated_end(J, nxt))


CRYSTAL_OF_8 = (2, (1, 1))


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda K: subgraph(K, [0, -1]), -1),
        (lambda K: subgraph(K, [0, 99]), 99),
        (lambda K: subgraph(K, [-1, 0, 8]), -1),
        (lambda K: interval(K, -1, 7), -1),
        (lambda K: interval(K, 0, 99), 99),
        (lambda K: find_sink_by_operators(K, 99), 99),
        (lambda K: find_sink_by_operators(K, -1), -1),
        (lambda K: K.function(-1), -1),
        (lambda K: K.wt(-1), -1),
        (lambda K: K.wt(8), 8),
        (lambda K: apply_string(K, -1, canonical_string(2, 1)), -1),
        # a bool or non-int id is rejected for its type, not read as another id
        (lambda K: K.wt(True), True),
        (lambda K: K.function(True), True),
        (lambda K: K.wt(1.5), 1.5),
        (lambda K: interval(K, 0.0, 7), 0.0),
        (lambda K: subgraph(K, [0, 0.5, 1]), 0.5),
        (lambda K: subgraph(K, ["a", 1]), "a"),
        (lambda K: subgraph(K, [1, True]), True),
        (lambda K: subgraph(K, [1.0, 1]), 1.0),
    ],
    ids=[
        "subgraph-minus-one", "subgraph-99", "subgraph-both-ends", "interval-minus-one",
        "interval-99", "sink-99", "sink-minus-one", "function", "wt-minus-one", "wt-8",
        "apply-string", "wt-bool", "function-bool", "wt-float", "interval-float",
        "subgraph-float-inside", "subgraph-str", "subgraph-bool-equal-to-an-id",
        "subgraph-float-equal-to-an-id",
    ],
)
def test_a_vertex_id_out_of_range_is_a_parameter_error(call, bad, crystals):
    K = crystals(*CRYSTAL_OF_8)
    assert K.num_vertices == 8
    with pytest.raises(ParameterError) as exc:
        call(K)
    if type(bad) is int:
        assert str(exc.value) == f"vertex id {bad} out of range for a crystal of 8 vertices"
    else:
        assert str(exc.value) == f"the caller gives vertex id the non-integer value {bad!r}"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda K: subgraph(K, [0, 1], colors=(5,)), "color 5 is not one of the crystal's colors"),
        (lambda K: subgraph(K, [0, 1], colors=(0,)), "color 0 is not one of the crystal's colors"),
        # True and 1.0 equal color 1, and once read its columns under their own name
        (lambda K: subgraph(K, [0, 1], colors=(True,)), "gives color the non-integer value True"),
        (lambda K: subgraph(K, [0, 1], colors=(2, 1.0)), "gives color the non-integer value 1.0"),
        (lambda K: subgraph(K, [0, 1], colors=(2, 2)), "colors (2, 2) name a color twice"),
        (lambda K: find_isomorphism(K, K, {1: 1}), "color_map gives no image for color 2"),
        (lambda K: isomorphic(K, K, {2: 1}), "color_map gives no image for color 1"),
    ],
    ids=["subgraph-5", "subgraph-0", "subgraph-bool", "subgraph-float", "subgraph-twice",
         "isomorphism-map-without-2", "isomorphism-map-without-1"],
)
def test_a_color_argument_outside_the_colors_is_a_parameter_error(call, message, crystals):
    K = crystals(*CRYSTAL_OF_8)
    with pytest.raises(ParameterError, match=re.escape(message)):
        call(K)


def test_the_color_check_passes_every_color(crystals):
    K = crystals(*CRYSTAL_OF_8)
    assert [K.check_color(c) for c in K.colors] == [1, 2]
    assert subgraph(K, K.vertex_ids(), colors=(2, 1)).colors == (2, 1)
    assert isomorphic(K, K, {1: 1, 2: 2, 3: 3})  # an extra entry is not read


def test_the_vertex_id_check_passes_every_id(crystals):
    K = crystals(*CRYSTAL_OF_8)
    assert [K.check_vertex_id(v) for v in K.vertex_ids()] == list(K.vertex_ids())
    assert subgraph(K, [0, 7]).keys == (K.keys[0], K.keys[7])
    assert interval(K, 7, 7).num_vertices == 1
    assert find_sink_by_operators(K, 7) == K.sink == 7


def test_interval_between_source_and_sink_is_everything(crystals):
    K = crystals(2, (1, 2))
    assert interval(K, K.source, K.sink).num_vertices == K.num_vertices
    assert interval(K, K.sink, K.source).num_vertices == 0
    mid = K.nxt[1][K.source]
    J = interval(K, mid, K.sink)
    assert 0 < J.num_vertices < K.num_vertices
    assert all(K.keys[0] != key for key in J.keys) or mid == 0


def test_subgraph_restricts_colors(crystals):
    K = crystals(2, (1, 2))
    S = subgraph(K, K.vertex_ids(), colors=(1,))
    assert S.num_vertices == K.num_vertices
    assert all(c == 1 for (_, _, c) in S.edges())
    assert S.num_edges == sum(1 for (_, _, c) in K.edges() if c == 1)


def test_isomorphism_identity_and_shift(crystals):
    K = crystals(2, (1, 2))
    m = find_isomorphism(K, K)
    assert m == {v: v for v in K.vertex_ids()}
    # shifting both bounds by the same amount leaves the graph unchanged
    K2 = generate(2, (2, 3), (1, 1))
    assert isomorphic(K, K2)
    assert not isomorphic(K, crystals(2, (2, 1)))
    assert not isomorphic(K, crystals(2, (2, 2)))


def test_isomorphism_with_a_color_map(crystals):
    # reversing the color order maps K(c) onto K(reversed c) for n = 2
    K = crystals(2, (1, 2))
    K2 = crystals(2, (2, 1))
    assert isomorphic(K, K2, color_map={1: 2, 2: 1})


def hand_built(K, size, edges, colors=(1, 2)):
    """K with its columns replaced: ``size`` vertices and the given
    (tail, head, color) edges, at most one per color each way."""
    nxt = {c: array("i", [-1]) * size for c in colors}
    prv = {c: array("i", [-1]) * size for c in colors}
    for u, v, c in edges:
        nxt[c][u], prv[c][v] = v, u
    return dataclasses.replace(K, colors=colors, keys=tuple((v,) for v in range(size)), nxt=nxt, prv=prv, h={}, t={})


def test_find_isomorphism_refusals(crystals):
    K = crystals(2, (1, 1))
    # the closed square 0 -> 3 and a 5-vertex graph whose 1-edge from 2 misses it
    square = hand_built(K, 5, [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1), (3, 4, 1)])
    open_square = hand_built(K, 5, [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1), (3, 4, 2)])
    assert find_isomorphism(square, square) == {v: v for v in range(5)}
    # color sets differ, also through a color map
    assert find_isomorphism(square, hand_built(K, 5, [(0, 1, 1)], colors=(1,))) is None
    assert find_isomorphism(square, square, color_map={1: 1, 2: 1}) is None
    # two empty graphs match by the empty map
    assert find_isomorphism(hand_built(K, 0, []), hand_built(K, 0, [])) == {}
    # vertices 0 and 1 are both sources
    with pytest.raises(ParameterError, match="unique sources"):
        find_isomorphism(hand_built(K, 5, [(0, 2, 1), (1, 2, 2), (2, 3, 1), (3, 4, 1)]), square)
    # vertex 3 is matched through 1; the 1-edge from 2 leads to 3 in one graph, to 4 in the other
    assert find_isomorphism(square, open_square) is None
    # the 2-edge from 0 leads to a new vertex in one graph, to the matched 1 in the other
    fork = hand_built(K, 3, [(0, 1, 1), (0, 2, 2)])
    assert find_isomorphism(fork, hand_built(K, 3, [(0, 1, 1), (0, 1, 2), (1, 2, 1)])) is None
    # 2 and 3 form a cycle that no edge from the source reaches
    unreached = hand_built(K, 4, [(0, 1, 1), (2, 3, 1), (3, 2, 2)])
    assert find_isomorphism(unreached, unreached) is None


@pytest.mark.parametrize("n,c,d", [(2, (2, 2), (1, 0)), (3, (2, 1, 1), (1, 1, 0))])
def test_shifted_bounds_reduce_to_zero_based_crystals(n, c, d):
    K = generate(n, c, d)
    K0 = generate(n, tuple(ci - di for ci, di in zip(c, d)))
    assert isomorphic(K, K0)


def test_find_sink_by_operators_from_every_vertex(crystals):
    for n, c in ((2, (1, 2)), (3, (1, 1, 1))):
        K = crystals(n, c)
        for v in K.vertex_ids():
            assert find_sink_by_operators(K, v) == K.sink


def test_json_schema_and_determinism(crystals):
    K = crystals(2, (1, 2))
    data = K.to_json()
    assert data["n"] == 2 and data["c"] == [1, 2] and data["d"] == [0, 0]
    assert len(data["vertices"]) == 15 and len(data["edges"]) == 18
    assert "colors" not in data  # only written for color-restricted graphs
    assert data["vertices"][0]["h"] == [1, 2]
    assert json.dumps(K.to_json()) == json.dumps(K.to_json())
    S = subgraph(K, K.vertex_ids(), colors=(2,))
    assert S.to_json()["colors"] == [2]


def test_edge_list_and_dot_output(crystals):
    K = crystals(2, (1, 2))
    lines = K.to_edge_list_text().splitlines()
    assert len(lines) == 18
    assert all(len(line.split()) == 3 for line in lines)
    dot = K.to_dot()
    assert dot.startswith("digraph crystal {")
    assert '"p00"' in dot and '"p12"' in dot
    assert dot.count("->") == 18


# Every (n, c, d) with n <= 3, lower bounds in [-2, 2] not all zero, and
# c_k - d_k in [0, 2].  Nonzero d is what makes the right-hand extra nodes carry
# a value other than 0 in the slacks.
shifted_bounds = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


@settings(max_examples=12, deadline=None)
@given(shifted_bounds)
def test_shifted_bounds_property(params):
    n, d, width = params
    assume(any(d))
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    assert K.num_vertices == count_bounded_patterns(n, sigma_bound(width))
    assert isomorphic(K, generate(n, width))
    assert all_pass(verify_graph(from_crystal_json(K.to_json()), strict_a4=True))


def walked_strings(S):
    """Per color and vertex, the head and tail string lengths walked one edge
    at a time from the vertex itself."""
    h, t = {}, {}
    for c in S.colors:
        for adj, out in ((S.nxt[c], h), (S.prv[c], t)):
            out[c] = []
            for v in S.vertex_ids():
                m, w = 0, v
                while adj[w] >= 0:
                    w, m = adj[w], m + 1
                out[c].append(m)
    return h, t


@settings(max_examples=12, deadline=None)
@given(shifted_bounds)
def test_monochromatic_strings_agree_with_stored_lengths(params):
    """The generator's slack-based h and t are the walked string lengths."""
    n, d, width = params
    assume(any(d))
    K = generate(n, tuple(dk + wk for dk, wk in zip(d, width)), d)
    h, t = walked_strings(K)
    assert all(list(K.h[c]) == h[c] and list(K.t[c]) == t[c] for c in K.colors)


@settings(max_examples=25, deadline=None)
@given(shifted_bounds, st.randoms(use_true_random=False))
def test_measured_strings_match_a_walk_from_each_vertex(params, rng):
    n, d, width = params
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    ids = [v for v in K.vertex_ids() if rng.random() < 0.6]
    colors = tuple(rng.sample(K.colors, rng.randint(0, n)))
    S = subgraph(K, ids, colors)
    h, t = walked_strings(S)
    assert all(list(S.h[c]) == h[c] and list(S.t[c]) == t[c] for c in colors)
    # the columns follow the order of S.colors
    assert list(S.h) == list(colors) == list(S.t)


@settings(max_examples=12, deadline=None)
@given(shifted_bounds)
def test_constants_match_the_values_on_each_subgraph(params):
    n, d, width = params
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    g = K.graph
    for f in map(K.function, K.vertex_ids()):
        expected = []
        for k in range(1, n + 1):
            values = [f.value(v) for v in g.nodes if v.k == k]
            assert f.subgraph_values(k) == tuple(values)
            expected.append(values[0] if len(set(values)) == 1 else None)
        assert f.constants() == tuple(expected)
        assert f.is_principal() == all(x is not None for x in expected)


def test_json_text_is_the_indented_dump(crystals):
    K = crystals(2, (1, 2))
    graphs = [
        crystals(1, (0,)),  # one vertex, "edges": []
        K,
        subgraph(K, range(0, K.num_vertices, 2), colors=(2,)),  # adds "colors"
        subgraph(K, K.vertex_ids(), colors=()),  # empty h and t lists
        subgraph(K, []),  # no vertices
    ]
    # not a crystal: a string field, an empty (int or record) list, and
    # records with strings, an empty list and a key that is a % format
    other = {
        "name": 'K "2" %d',
        "empty": [],
        "rows": [{"side": "%s", "%d": [1, 2], "q": []}, {"side": "\u00e9", "%d": [3, 4], "q": []}],
    }
    for data in [G.to_json() for G in graphs] + [other]:
        assert json_text(data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_json_text_across_chunk_boundaries(crystals, monkeypatch, chunk):
    monkeypatch.setattr(crystal, "JSON_CHUNK", chunk)
    K = crystals(2, (1, 2))  # 15 vertices, 22 edges
    graphs = [
        crystals(1, (0,)),
        K,
        subgraph(K, range(0, K.num_vertices, 2), colors=(2,)),
        subgraph(K, K.vertex_ids(), colors=()),
        subgraph(K, range(chunk)),
    ]
    for G in graphs:
        data = G.to_json()
        assert json_text(data) == json.dumps(data, indent=2) + "\n"


def test_json_text_without_colors_and_with_a_colors_key(crystals):
    K = crystals(3, (1, 0, 1))
    for colors in [(), (2,), (3, 1)]:
        data = subgraph(K, K.vertex_ids(), colors=colors).to_json()
        assert data["colors"] == list(colors)
        assert json_text(data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("chunk", [2, 2048])
def test_json_text_rejects_a_record_of_another_shape(crystals, monkeypatch, chunk):
    monkeypatch.setattr(crystal, "JSON_CHUNK", chunk)
    K = crystals(2, (1, 2))
    edits = [
        lambda vs: vs[5]["h"].append(0),
        lambda vs: vs[-1]["t"].pop(),
        lambda vs: vs[0]["weights"].pop(),
        # as many values in all, but misaligned across two records
        lambda vs: (vs[3]["weights"].append(1), vs[4]["weights"].pop()),
        lambda vs: (vs[6]["h"].append(1), vs[6]["t"].pop()),
    ]
    for edit in edits:
        data = K.to_json()
        edit(data["vertices"])
        with pytest.raises(ValueError, match=r"vertices\[0\] has"):
            json_text(data)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"r": [{"a": 1}, {"a": 1, "b": 2}]}, "r[1] has the keys ('a', 'b'); r[0] has ('a',)"),
        ({"r": [{"a": 1, "b": 2}, {"b": 2, "a": 1}]},
         "r[1] has the keys ('b', 'a'); r[0] has ('a', 'b')"),
        ({"r": [{"a": 1}, {"a": True}]}, "r[1]['a'] is True, of another type than in r[0]"),
        ({"r": [{"a": True}]}, "r[0]['a'] is True, not an int, a string or an int list"),
        ({"r": [{"a": "x"}, {"a": 1}]}, "r[1]['a'] is 1, of another type than in r[0]"),
        ({"r": [{"a": [1]}, {"a": {2: 3}}]}, "r[1]['a'] is {2: 3}, of another type than in r[0]"),
        ({"r": [{1: 2}]}, "r[0] has the key 1, not a string"),
        ({1: 2}, "key 1 is not a string"),
        ({"t": (1, 2)}, None),
        ({"r": [{}, {}]}, None),
        ({"b": [True, None], "m": {"k": [1, (2,)]}, "f": 1.5, "r": ({"a": 1}, {"b": 0})}, None),
    ],
    ids=["extra-key", "key-order", "bool-in-a-later-record", "bool-in-the-first-record",
         "int-for-a-string", "dict-for-a-list", "int-record-key", "int-key", "tuple",
         "empty-records", "values-json-dumps-writes-whole"],
)
def test_json_text_is_the_indented_dump_or_a_value_error(data, message):
    # each of these once came out otherwise than from json.dumps, without an error
    if message is None:
        assert json_text(data) == json.dumps(data, indent=2) + "\n"
    else:
        with pytest.raises(ValueError) as exc:
            json_text(data)
        assert str(exc.value) == message


@settings(max_examples=12, deadline=None)
@given(shifted_bounds)
def test_json_text_property(params):
    n, d, width = params
    c = tuple(dk + wk for dk, wk in zip(d, width))
    data = generate(n, c, d).to_json()
    assert json_text(data) == json.dumps(data, indent=2) + "\n"


def reference_closure(n, c, d):
    """K(c, d) by a plain breadth-first closure over ``forward_move`` and
    ``string_lengths``, one dict per vertex: (keys, succ, pred, h, t), where
    ``succ[v][i]`` is the head of v's i-edge and ``h[v][i]`` its head string
    length."""
    g = build_supporting_graph(n)
    functions = [principal_function(g, d, Bounds(c, d))]
    index = {functions[0].values: 0}
    succ, pred = [{}], [{}]
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in range(1, n + 1):
            moved = forward_move(functions[v], i)
            if moved is None:
                continue
            w = index.setdefault(moved.values, len(functions))
            if w == len(functions):
                functions.append(moved)
                succ.append({})
                pred.append({})
                queue.append(w)
            succ[v][i] = w
            pred[w][i] = v
    lengths = [{i: string_lengths(f, i) for i in range(1, n + 1)} for f in functions]
    h = [{i: ht[0] for i, ht in row.items()} for row in lengths]
    t = [{i: ht[1] for i, ht in row.items()} for row in lengths]
    return [f.values for f in functions], succ, pred, h, t


# (n, d, c - d) with n <= 4, small enough for the reference closure
small_shifted_bounds = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2 if n <= 3 else 1), min_size=n, max_size=n),
    )
)


@settings(max_examples=15, deadline=None)
@given(small_shifted_bounds)
def test_columns_match_a_reference_closure(params):
    n, d, width = params
    assume(any(d))
    c = tuple(dk + wk for dk, wk in zip(d, width))
    K = generate(n, c, d)
    keys, succ, pred, h, t = reference_closure(n, c, tuple(d))
    assert list(K.keys) == keys
    assert all(K.key_to_id[key] == v for v, key in enumerate(keys))
    for i in K.colors:
        assert list(K.nxt[i]) == [s.get(i, -1) for s in succ]
        assert list(K.prv[i]) == [p.get(i, -1) for p in pred]
        assert list(K.h[i]) == [row[i] for row in h]
        assert list(K.t[i]) == [row[i] for row in t]
    assert [K.source] == [v for v, p in enumerate(pred) if not p]
    assert [K.sink] == [v for v, s in enumerate(succ) if not s]
    assert dual(dual(K)) == K


dual_bounds = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 2 if n <= 3 else 1), min_size=n, max_size=n),
    )
)


@settings(max_examples=20, deadline=None)
@given(dual_bounds)
def test_the_dual_is_the_reversed_crystal_and_the_crystal_with_colors_reversed(params):
    # dual(B(lambda)) is B(-w0 lambda); reversing the colors is the
    # Schutzenberger-Lusztig involution, which maps B(lambda) onto its dual
    n, d, width = params
    K = generate(n, tuple(dk + wk for dk, wk in zip(d, width)), d)
    D = dual(K)
    assert isomorphic(D, generate(n, width[::-1]))
    assert isomorphic(D, K, color_map={i: n + 1 - i for i in range(1, n + 1)})


def test_generate_keeps_at_most_150_bytes_per_vertex():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = generate(2, (24, 24))
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert K.num_vertices == 15625
    assert used / K.num_vertices <= 150
