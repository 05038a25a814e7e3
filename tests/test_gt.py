import re

import pytest
from hypothesis import given, settings, strategies as st

from ancrystal import (
    GTPattern,
    InfeasibleError,
    ParameterError,
    build_supporting_graph,
    count_bounded_patterns,
    from_gt,
    generate,
    principal_function,
    sigma_bound,
    to_gt,
    zero_bounds,
)


def test_pattern_validation():
    with pytest.raises(ParameterError):
        GTPattern(((0, 0),))
    with pytest.raises(InfeasibleError):
        GTPattern(((2,), (1, 0)))  # x_21 < x_11 breaks interleaving
    p = GTPattern(((1,), (2, 0)))
    assert p.n == 2 and p.x(2, 1) == 2
    assert p.is_bounded_by((3, 1))
    assert not p.is_bounded_by((1, 1))  # x_21 = 2 above the first bound
    assert GTPattern(()).is_bounded_by(())  # no entry to violate


def test_pattern_json_round_trip():
    p = GTPattern(((1,), (2, 0), (3, 1, 0)))
    assert GTPattern.from_json(p.to_json()) == p
    with pytest.raises(ParameterError):
        GTPattern.from_json({"rows": []})


def test_sigma_bound():
    assert sigma_bound((1, 2)) == (3, 1)
    assert sigma_bound((1, 1, 1)) == (3, 2, 1)
    assert sigma_bound((2, 0, 1)) == (3, 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sigma_bound(5), "the caller gives c the non-sequence value 5"),
        (lambda: GTPattern(5), "the caller gives rows the non-sequence value 5"),
        (lambda: GTPattern(((1,), 5)), "the caller gives rows[1] the non-sequence value 5"),
        (lambda: GTPattern(((True,),)), "the caller gives rows[0][0] the non-integer value True"),
        (lambda: sigma_bound((1, True)), "the caller gives c[1] the non-integer value True"),
        (
            lambda: GTPattern(((1,),)).is_bounded_by(5),
            "the caller gives bound the non-sequence value 5",
        ),
        (
            lambda: GTPattern(((1,),)).is_bounded_by((1.5,)),
            "the caller gives bound[0] the non-integer value 1.5",
        ),
        (lambda: GTPattern(((0,),)).is_bounded_by(()), "bound has length 0, expected 1"),
        (lambda: GTPattern(()).is_bounded_by((1,)), "bound has length 1, expected 0"),
        (lambda: GTPattern(((1,),)).is_bounded_by((1, 0)), "bound has length 2, expected 1"),
        (
            lambda: GTPattern(((1,), (2, 0))).is_bounded_by((0, 5, 7)),
            "bound has length 3, expected 2",
        ),
    ],
)
def test_a_bound_that_is_not_an_integer_tuple_is_a_parameter_error(call, message):
    # 5 was a bare TypeError (also as GTPattern's rows), and True or 1.5 passed
    # as if they were 1; a bound of another length was a bare IndexError, or
    # was read on its first n entries
    with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
        call()


def test_source_and_sink_patterns():
    g = build_supporting_graph(2)
    b = zero_bounds((1, 2))
    assert to_gt(principal_function(g, (0, 0), b)).rows == ((0,), (1, 0))
    assert to_gt(principal_function(g, (1, 2), b)).rows == ((3,), (3, 1))


def test_to_gt_requires_zero_lower_bounds():
    from ancrystal import Bounds

    g = build_supporting_graph(2)
    f = principal_function(g, (1, 1), Bounds((1, 2), (0, 1)))
    with pytest.raises(InfeasibleError):
        to_gt(f)


def test_from_gt_rejects_out_of_bound_patterns():
    g = build_supporting_graph(2)
    with pytest.raises(InfeasibleError):
        from_gt(g, GTPattern(((4,), (4, 0))), (1, 2))
    with pytest.raises(ParameterError):
        from_gt(g, GTPattern(((0,),)), (1, 2))
    # a negative bound is a bad parameter, not an unbounded pattern
    with pytest.raises(ParameterError, match=r"c=\(1, -1\)"):
        from_gt(g, GTPattern(((1,), (1, 0))), (1, -1))


def test_from_gt_refuses_a_multinode_sum_it_cannot_reach(monkeypatch):
    # behind the bound check; reached with a check that lets [[3]] pass for c = (1,)
    monkeypatch.setattr(GTPattern, "is_bounded_by", lambda self, bound: True)
    with pytest.raises(InfeasibleError, match=r"^multinode V_1\(1\) sum 3 is unreachable$"):
        from_gt(build_supporting_graph(1), GTPattern(((3,),)), (1,))


@pytest.mark.parametrize("n,c", [(2, (1, 2)), (2, (2, 2)), (3, (1, 1, 1)), (3, (2, 1, 0))])
def test_round_trip_and_exact_image(n, c, crystals):
    g = build_supporting_graph(n)
    K = crystals(n, c)
    images = set()
    for f in map(K.function, K.vertex_ids()):
        p = to_gt(f)
        assert p.is_bounded_by(sigma_bound(c))
        assert from_gt(g, p, c) == f
        images.add(p.rows)
    assert from_gt(g, p, iter(c)) == f  # the bounds may be any iterable
    # the image is exactly the set of bounded patterns
    assert len(images) == K.num_vertices == count_bounded_patterns(n, sigma_bound(c))


# n <= 6 colors and a few fundamental weights: K(c) has at most 784 vertices
small_crystals = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=3 if n < 5 else 2))
)


@settings(max_examples=40, deadline=None)
@given(small_crystals, st.randoms(use_true_random=False))
def test_from_gt_inverts_to_gt_on_random_vertices(params, rng):
    """from_gt(g, to_gt(f), c) == f on 40 vertices, drawn at random, of each
    K(c), where the round trip above covers every vertex of a few with n <= 3."""
    n, units = params
    c = tuple(units.count(k) for k in range(1, n + 1))
    K = generate(n, c)
    for f in map(K.function, (rng.randrange(K.num_vertices) for _ in range(40))):
        assert from_gt(K.graph, to_gt(f), c) == f


def test_to_gt_sums_each_multinode_of_every_function_of_k4():
    """x_{i,j} is the sum of f over the nodes v_i^k(j), through the checked
    f.value, plus c_1 + ... + c_{i-j}, on all 1 024 functions of K(4; 1^4)."""
    c = (1, 1, 1, 1)
    K = generate(4, c)
    g = build_supporting_graph(4)
    assert K.num_vertices == 1024
    for f in map(K.function, K.vertex_ids()):
        rows = tuple(
            tuple(
                sum(f.value(v) for v in g.nodes if (v.i, v.j) == (i, j)) + sum(c[: i - j])
                for j in range(1, i + 1)
            )
            for i in range(1, 5)
        )
        assert to_gt(f).rows == rows


def test_count_examples():
    assert count_bounded_patterns(1, (2,)) == 3
    assert count_bounded_patterns(2, (3, 1)) == 15
    assert count_bounded_patterns(3, (1, 1, 1)) == 4
    assert count_bounded_patterns(3, (0, 0, 0)) == 1


def test_count_matches_generation_for_a_fundamental_weight():
    K = generate(3, (1, 0, 0))
    assert K.num_vertices == count_bounded_patterns(3, sigma_bound((1, 0, 0))) == 4


def test_count_rejects_bad_bounds():
    with pytest.raises(ParameterError):
        count_bounded_patterns(2, (1, 2))
    with pytest.raises(ParameterError):
        count_bounded_patterns(2, (1, -1))
    with pytest.raises(ParameterError):
        count_bounded_patterns(3, (1, 1))
    # n = 0 is refused before the enumeration, which would recurse on () forever
    with pytest.raises(ParameterError, match="got 0"):
        count_bounded_patterns(0, ())
