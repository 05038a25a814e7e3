import pytest

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


def test_pattern_json_round_trip():
    p = GTPattern(((1,), (2, 0), (3, 1, 0)))
    assert GTPattern.from_json(p.to_json()) == p
    with pytest.raises(ParameterError):
        GTPattern.from_json({"rows": []})


def test_sigma_bound():
    assert sigma_bound((1, 2)) == (3, 1)
    assert sigma_bound((1, 1, 1)) == (3, 2, 1)
    assert sigma_bound((2, 0, 1)) == (3, 2, 2)


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
