import itertools

import pytest

from ancrystal import NodeRef, generate

# the desk-scale parameter set used throughout the acceptance suite:
# every (n, c) with n <= 3 and entries <= 2, plus n = 4 with entries <= 1
DESK_PARAMS = tuple(
    (n, c)
    for n in (1, 2, 3)
    for c in itertools.product(range(3), repeat=n)
) + tuple((4, c) for c in itertools.product(range(2), repeat=4))


@pytest.fixture(scope="session")
def crystals():
    """Session-wide cache of generated crystals keyed by (n, c, d)."""
    cache = {}

    def get(n, c, d=None):
        key = (n, tuple(c), None if d is None else tuple(d))
        if key not in cache:
            cache[key] = generate(n, c, d)
        return cache[key]

    return get


def allowed_switch_members(value, members):
    """Positions of the members of a multinode that may be its switch node.

    The switch condition, restated member by member: every member before m is
    SE-tight (equal to its SE neighbor v_{i+1}^k(j+1)) and every member after m
    is SW-tight (equal to its SW neighbor v_{i+1}^k(j)).
    """
    se_tight = [value(v) == value(NodeRef(v.k, v.i + 1, v.j + 1)) for v in members[:-1]]
    sw_tight = [value(NodeRef(v.k, v.i + 1, v.j)) == value(v) for v in members[1:]]
    return [m for m in range(len(members)) if all(se_tight[:m]) and all(sw_tight[m:])]
