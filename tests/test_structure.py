import dataclasses
import itertools
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from ancrystal import (
    LOWER,
    UPPER,
    ModelError,
    ParameterError,
    SubcrystalRecord,
    apply_string,
    base_crystal,
    branching_multiplicity,
    build_supporting_graph,
    canonical_string,
    fundamental_strings,
    generate,
    isomorphic,
    lower_parameter,
    principal_interval,
    principal_lattice,
    principal_location,
    skeleton,
    subcrystals,
    subgraph,
    upper_parameter,
    weyl_dimension,
)


def lattice_size(c, d=None):
    d = d or (0,) * len(c)
    result = 1
    for ck, dk in zip(c, d):
        result *= ck - dk + 1
    return result


@pytest.mark.parametrize("n,c", [(2, (1, 2)), (3, (1, 1, 1)), (3, (2, 1, 0))])
def test_principal_lattice_size_and_membership(n, c, crystals):
    K = crystals(n, c)
    lat = principal_lattice(K)
    assert lat.size == lattice_size(c)
    assert lat.tuples() == sorted(itertools.product(*[range(x + 1) for x in c]))
    assert lat.vertex((0,) * n) == K.source
    assert lat.vertex(c) == K.sink


def test_the_constants_column_is_computed_once_per_crystal(crystals):
    K = crystals(3, (2, 1, 2))
    column = K.constants
    assert column is K.constants
    assert column == tuple(map(K.graph.constants_of, K.keys))
    # equal tuples are one object
    assert len({id(a) for a in column}) == len(set(column))
    assert principal_lattice(K).by_tuple == {
        a: v for v, a in enumerate(column) if None not in a
    }


@pytest.mark.parametrize("n,c", [(2, (1, 2)), (3, (1, 1, 1))])
def test_principal_intervals_are_crystals_of_the_difference(n, c, crystals):
    K = crystals(n, c)
    tuples = list(itertools.product(*[range(x + 1) for x in c]))
    for a in tuples:
        for b in tuples:
            if not all(x <= y for x, y in zip(a, b)):
                continue
            diff = tuple(y - x for x, y in zip(a, b))
            J = principal_interval(K, a, b)
            assert isomorphic(J, crystals(n, diff)), (a, b)


def test_principal_interval_rejects_bad_tuples(crystals):
    K = crystals(2, (1, 2))
    with pytest.raises(ParameterError):
        principal_interval(K, (1, 0), (0, 0))
    with pytest.raises(ParameterError):
        principal_interval(K, (0, 0), (2, 0))
    with pytest.raises(ParameterError):
        principal_interval(K, (0,), (1, 1))


def test_two_color_skeleton_is_the_whole_crystal(crystals):
    K = crystals(2, (1, 2))
    sk = skeleton(K)
    assert len(sk.vertex_ids) == K.num_vertices


def test_skeleton_piece_counts_and_shapes(crystals):
    n, c = 3, (1, 1, 1)
    K = crystals(n, c)
    sk = skeleton(K)
    total = 0
    for k in range(1, n + 1):
        pieces = sk.pieces_for(k)
        expected = 1
        for i in range(1, n + 1):
            if i != k:
                expected *= c[i - 1] + 1
        assert len(pieces) == expected
        base = base_crystal(n, k, c[k - 1])
        for p in pieces:
            assert isomorphic(subgraph(K, p.vertex_ids), base), (k, p.fixed)
            total += len(p.vertex_ids)
    # union size by inclusion-exclusion: pieces overlap exactly in the lattice
    assert len(sk.vertex_ids) == total - (n - 1) * lattice_size(c)
    assert len(sk.vertex_ids) == 40


@pytest.mark.parametrize("k, message", [(5, "1..2, got 5"), (0, "1..2, got 0"), (True, "True")])
def test_base_crystal_refuses_a_color_outside_1_to_n(k, message):
    # these once gave the one-vertex K(0, 0), or color 1 for True
    with pytest.raises(ParameterError, match=re.escape(message)):
        base_crystal(2, k, 3)


def restated_skeleton(K):
    """(k, fixed, vertex_ids) per skeleton piece, cut once per (vertex, color)."""
    groups = {}
    for v, key in enumerate(K.keys):
        consts = K.graph.constants_of(key)
        for k in range(1, K.n + 1):
            fixed = consts[:k - 1] + consts[k:]
            if None not in fixed:
                groups.setdefault((k, fixed), []).append(v)
    return [(k, fixed, tuple(ids)) for (k, fixed), ids in sorted(groups.items())]


# widths up to 2, and up to 1 at n = 4: at most 1 024 vertices
@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2 if n < 4 else 1), min_size=n, max_size=n),
    )
))
def test_skeleton_pieces_match_a_per_vertex_restatement(params):
    d, width = params
    K = generate(len(d), tuple(map(sum, zip(d, width))), d)
    sk = skeleton(K)
    restated = restated_skeleton(K)
    assert [(p.k, p.fixed, p.vertex_ids) for p in sk.pieces] == restated
    assert sk.vertex_ids == tuple(sorted({v for *_, ids in restated for v in ids}))


def test_fundamental_strings_for_the_middle_color():
    strings = {str(s) for s in fundamental_strings(3, 2)}
    assert strings == {"2312", "2132"}
    assert all(s.k == 2 for s in fundamental_strings(3, 2))


def independent_string_count(n, k):
    """Count admissible orders by brute force over all node permutations."""
    g = build_supporting_graph(n)
    nodes = g.base_nodes(k)
    edges = [(u, w) for (u, w) in g.edges() if u.k == k]
    count = 0
    for perm in itertools.permutations(nodes):
        pos = {v: p for p, v in enumerate(perm)}
        if all(pos[u] < pos[w] for (u, w) in edges):
            count += 1
    return count


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4) for k in range(1, n + 1)])
def test_string_counts_match_brute_force(n, k):
    assert len(fundamental_strings(n, k)) == independent_string_count(n, k)


@pytest.mark.parametrize("k", [0, 4])
def test_fundamental_strings_reject_a_color_out_of_range(k):
    with pytest.raises(ParameterError, match=f"color {k} out of range for n=3"):
        fundamental_strings(3, k)


def test_canonical_string_examples():
    assert str(canonical_string(4, 2)) == "342312"
    assert str(canonical_string(3, 1)) == "321"
    assert str(canonical_string(3, 3)) == "123"
    with pytest.raises(ParameterError):
        canonical_string(3, 4)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert canonical_string(n, k) in fundamental_strings(n, k)


def test_strings_step_through_the_principal_lattice(crystals):
    n, c = 3, (1, 1, 1)
    K = crystals(n, c)
    lat = principal_lattice(K)
    for a in lat.tuples():
        for k in range(1, n + 1):
            reachable = a[k - 1] < c[k - 1]
            target = tuple(x + (1 if i == k else 0) for i, x in enumerate(a, start=1))
            for s in fundamental_strings(n, k):
                got = apply_string(K, lat.vertex(a), s)
                if reachable:
                    assert got == lat.vertex(target), (a, k, str(s))
                else:
                    assert got is None, (a, k, str(s))


def test_parameter_formulas():
    assert upper_parameter((1, 1, 1), (0, 1, 0)) == (2, 0)
    assert lower_parameter((1, 1, 1), (0, 1, 0)) == (0, 2)
    assert upper_parameter((2, 1, 0), (2, 1, 0)) == (1, 0)


@pytest.mark.parametrize("side", [UPPER, LOWER])
@pytest.mark.parametrize("n,c", [(3, (1, 1, 1)), (3, (2, 1, 0))])
def test_subcrystal_decomposition(n, c, side, crystals):
    K = crystals(n, c)
    records = subcrystals(K, side)
    # the records partition the vertex set
    all_ids = sorted(v for r in records for v in r.vertex_ids)
    assert all_ids == list(K.vertex_ids())
    # one record per anchor tuple, each matching its reference crystal
    anchors = [r.anchor for r in records]
    assert len(set(anchors)) == len(anchors) == lattice_size(c)
    color_map = (
        {i: i for i in range(1, n)}
        if side == UPPER
        else {i: i - 1 for i in range(2, n + 1)}
    )
    for r in records:
        sub = subgraph(K, r.vertex_ids, tuple(color_map))
        assert isomorphic(sub, generate(n - 1, r.parameter), color_map), r.anchor
        assert K.function(r.principal_vertex).is_principal()


@pytest.mark.parametrize("side", [UPPER, LOWER])
@pytest.mark.parametrize(
    "n,c,d", [(2, (2, 2), (1, 1)), (3, (2, 1, 2), (1, 0, 1)), (3, (1, 2, 0), (-1, 1, -1))]
)
def test_subcrystals_with_lower_bounds_shift_the_anchors(n, c, d, side, crystals):
    """K(c, d) is K(c - d) with every value raised by d: the same records, with
    the anchors shifted by d and the parameters unchanged."""
    width = tuple(ck - dk for ck, dk in zip(c, d))

    def rows(K, shift):
        return [
            (tuple(a + s for a, s in zip(r.anchor, shift)), r.parameter, r.vertex_ids,
             r.principal_vertex)
            for r in subcrystals(K, side)
        ]

    assert rows(crystals(n, c, d), (0,) * n) == rows(crystals(n, width), d)
    K = crystals(n, c, d)
    for a in itertools.product(*[range(dk, ck + 1) for ck, dk in zip(c, d)]):
        shifted = tuple(x - dk for x, dk in zip(a, d))
        expected = shifted[1:] if side == UPPER else shifted[:-1]
        assert principal_location(K, a, side) == expected


def test_subcrystals_reject_bad_side(crystals):
    with pytest.raises(ParameterError):
        subcrystals(crystals(2, (1, 1)), "sideways")
    with pytest.raises(ParameterError, match="side must be 'upper' or 'lower'"):
        principal_location(crystals(2, (1, 1)), (0, 0), "sideways")


@pytest.mark.parametrize("side", [UPPER, LOWER])
def test_principal_location_refuses_one_color(side, crystals):
    # its reference crystal would have 0 colors
    message = "principal_location needs n >= 2 colors, got n=1"
    with pytest.raises(ParameterError, match=re.escape(message)):
        principal_location(crystals(1, (2,)), (1,), side)


@pytest.mark.parametrize("side", [UPPER, LOWER])
@pytest.mark.parametrize(
    "a,message",
    [
        ((5, 5), "principal tuple (5, 5) outside bounds c=(1, 2), d=(0, 0)"),
        ((0,), "principal tuple has length 1, expected 2"),
        ((0, 0, 0), "principal tuple has length 3, expected 2"),
    ],
)
def test_principal_location_rejects_bad_tuples(a, message, side, crystals):
    with pytest.raises(ParameterError, match=re.escape(message)):
        principal_location(crystals(2, (1, 2)), a, side)


def without_edge(K, u, w, color):
    """A copy of K with the color-edge u -> w deleted; K itself is untouched."""
    nxt = {c: array("i", col) for c, col in K.nxt.items()}
    prv = {c: array("i", col) for c, col in K.prv.items()}
    assert nxt[color][u] == w and prv[color][w] == u
    nxt[color][u] = prv[color][w] = -1
    return dataclasses.replace(K, nxt=nxt, prv=prv)


# One deleted kept-color edge per row, and the exact error each form of damage
# gets: a component whose source is not unique, a line shorter than the
# formula, and a split-off part without the principal vertex.
@pytest.mark.parametrize(
    "n,c,side,edge,message",
    [
        (3, (1, 1, 1), UPPER, (0, 1, 1), "upper component through vertex 0 has no unique source"),
        (3, (1, 1, 1), LOWER, (0, 2, 2), "lower component through vertex 0 has no unique source"),
        (2, (1, 2), UPPER, (0, 1, 1),
         "upper subcrystal at anchor (0, 0): measured parameter (0,) differs from formula (1,)"),
        (2, (1, 2), LOWER, (0, 2, 2),
         "lower subcrystal at anchor (0, 0): measured parameter (0,) differs from formula (2,)"),
        (3, (1, 1, 1), UPPER, (37, 47, 2),
         "upper subcrystal at anchor (1, 1, 0) contains 0 principal vertices"),
        (3, (1, 1, 1), LOWER, (45, 53, 2),
         "lower subcrystal at anchor (0, 1, 1) contains 0 principal vertices"),
    ],
)
def test_subcrystals_reject_a_crystal_missing_one_kept_edge(n, c, side, edge, message, crystals):
    K = crystals(n, c)
    with pytest.raises(ModelError) as exc:
        subcrystals(without_edge(K, *edge), side)
    assert str(exc.value) == message
    assert len(subcrystals(K, side)) == lattice_size(c)


def restated_subcrystals(K, side):
    """``subcrystals`` restated with a set-based search per component and an
    ``all`` test per vertex: its sorted records, or its ModelError's message."""
    n = K.n
    colors = tuple(range(1, n)) if side == UPPER else tuple(range(2, n + 1))
    g = K.graph
    ends = [g.index[g.bottom(k) if side == UPPER else g.top(k)] for k in range(1, n + 1)]
    parameter = upper_parameter if side == UPPER else lower_parameter
    adjacent = [K.nxt[col] for col in colors] + [K.prv[col] for col in colors]
    seen = set()
    records = []
    for start in K.vertex_ids():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for col in adjacent:
                if col[v] >= 0 and col[v] not in comp:
                    comp.add(col[v])
                    stack.append(col[v])
        seen |= comp
        comp = sorted(comp)
        anchor = tuple(K.keys[comp[0]][p] for p in ends)
        formula = parameter(K.bounds.width, tuple(a - x for a, x in zip(anchor, K.bounds.d)))
        sources = [v for v in comp if all(K.prv[col][v] < 0 for col in colors)]
        if len(sources) != 1:
            return f"{side} component through vertex {comp[0]} has no unique source"
        measured = []
        for col in colors:
            v, m = sources[0], 0
            while K.nxt[col][v] >= 0:
                v, m = K.nxt[col][v], m + 1
            measured.append(m)
        if tuple(measured) != formula:
            return (
                f"{side} subcrystal at anchor {anchor}: measured parameter "
                f"{tuple(measured)} differs from formula {formula}"
            )
        principals = [v for v in comp if None not in g.constants_of(K.keys[v])]
        if len(principals) != 1:
            return f"{side} subcrystal at anchor {anchor} contains {len(principals)} principal vertices"
        records.append(SubcrystalRecord(side, anchor, tuple(comp), formula, principals[0]))
    return sorted(records, key=lambda r: r.anchor)


def subcrystals_or_message(K, side):
    try:
        return subcrystals(K, side)
    except ModelError as exc:
        return str(exc)


# Every (n, c, d) with n <= 3, lower bounds in [-2, 2] and c_k - d_k in [0, 2].
bounded_crystals = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


@settings(max_examples=30, deadline=None)
@given(bounded_crystals, st.sampled_from([UPPER, LOWER]), st.randoms(use_true_random=False))
def test_subcrystals_match_a_set_search_restatement(params, side, rng):
    """The same records on K(c, d), and on a copy with one kept-color edge
    deleted the same records or the same message."""
    d, width = params
    n = len(d)
    K = generate(n, tuple(dk + wk for dk, wk in zip(d, width)), d)
    assert subcrystals(K, side) == restated_subcrystals(K, side)
    kept = range(1, n) if side == UPPER else range(2, n + 1)
    edges = [e for e in K.edges() if e[2] in kept]
    if edges:
        J = without_edge(K, *rng.choice(edges))
        assert subcrystals_or_message(J, side) == restated_subcrystals(J, side)


@pytest.mark.parametrize("side", [UPPER, LOWER])
def test_subcrystals_match_the_restatement_after_every_single_edge_deletion(side, crystals):
    K = crystals(3, (1, 1, 1))
    errors = ("no unique source", "differs from formula", "principal vertices")
    reached = set()
    for edge in K.edges():
        J = without_edge(K, *edge)
        got = subcrystals_or_message(J, side)
        assert got == restated_subcrystals(J, side), edge
        if isinstance(got, str):
            reached.add(next(e for e in errors if e in got))
    assert reached == set(errors)


@pytest.mark.parametrize("side", [UPPER, LOWER])
def test_principal_locations(side, crystals):
    n, c = 3, (1, 1, 1)
    K = crystals(n, c)
    for a in itertools.product(*[range(x + 1) for x in c]):
        loc = principal_location(K, a, side)
        expected = tuple(a[1:]) if side == UPPER else tuple(a[:-1])
        assert loc == expected


def test_branching_multiplicities_count_the_parts(crystals):
    for c in ((1, 1, 1), (2, 1, 0), (1, 2)):
        K = crystals(len(c), c)
        records = subcrystals(K, UPPER)
        from collections import Counter

        by_q = Counter(r.parameter for r in records)
        for q, count in by_q.items():
            assert branching_multiplicity(c, q) == count, (c, q)
        # parameters that occur in no record have multiplicity zero
        assert branching_multiplicity(c, tuple(x + 5 for x in list(by_q)[0])) == 0
        assert sum(by_q.values()) == lattice_size(c)
    with pytest.raises(ParameterError):
        branching_multiplicity((1, 1, 1), (0,))
    for c in [(), (1, -1)]:
        with pytest.raises(ParameterError, match=re.escape(f"got {c}")):
            branching_multiplicity(c, (0,) * (len(c) - 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)))
def test_branching_multiplicities_restate_the_weyl_dimension(c):
    # A_n -> A_{n-1}: K(c) is the sum of the K(q) of its upper parts, each
    # taken as often as its multiplicity; no generation is needed.  Every q
    # with a part lies in [0, sum(c)]^(n-1), so the sum covers all of them.
    qs = itertools.product(range(sum(c) + 1), repeat=len(c) - 1)
    total = sum(branching_multiplicity(c, q) * weyl_dimension(q) for q in qs)
    assert total == weyl_dimension(c)


def test_six_upper_parts_of_the_staircase_crystal(crystals):
    K = crystals(3, (2, 1, 0))
    records = subcrystals(K, UPPER)
    assert len(records) == 6
    qs = sorted(r.parameter for r in records)
    # c_3 = 0 forces every multiplicity to be at most one
    assert len(set(qs)) == 6
    assert sum(branching_multiplicity((2, 1, 0), q) for q in qs) == 6
