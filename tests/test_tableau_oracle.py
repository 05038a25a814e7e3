"""An independent model of B(lambda): semistandard tableaux with the bracket rule.

K(c, d) is K(c - d) shifted by d, and K(w) is the crystal B(lambda) of the
partition lambda = sigma_bound(w).  This file builds B(lambda) a second way, as
the semistandard Young tableaux (SSYT) of shape lambda with entries 1..n+1,
and shows that the two are isomorphic under the colors i -> n+1-i.  It takes
only ``generate`` from the package, restates ``sigma_bound``, and matches the
two graphs with its own matcher, anchored at their sources, so it shares no
code with the path it checks.

The crystal operator f_i reads a tableau's row word: rows from the bottom up,
each left to right.  Scanning the word left to right, an i+1 opens a bracket
and an i closes the latest open one; f_i turns the rightmost unbracketed i
into i+1, and is undefined when every i is bracketed.
"""

from collections import deque
from itertools import combinations_with_replacement

import pytest

from ancrystal import generate

CASES = [
    (1, (2,), None),
    (2, (1, 1), None),
    (2, (2, 1), None),
    (2, (2, 2), None),
    (3, (1, 0, 1), None),
    (3, (1, 1, 1), None),
    (4, (0, 1, 0, 1), None),
    (3, (1, 2, 1), (-1, 0, -1)),
]


def sigma_bound(width):
    """The partition lambda: lambda_j = w_1 + ... + w_{n-j+1}, j = 1..n."""
    n = len(width)
    return tuple(sum(width[: n - j]) for j in range(n))


def tableaux(shape, top):
    """Every SSYT of ``shape`` with entries 1..top, as a tuple of row tuples:
    rows weakly increase, and each entry exceeds the one above it."""
    found = [()]
    for length in shape:
        grown = []
        for rows in found:
            above = rows[-1] if rows else ()
            for row in combinations_with_replacement(range(1, top + 1), length):
                if all(x > y for x, y in zip(row, above)):
                    grown.append(rows + (row,))
        found = grown
    return found


def raise_letter(tableau, i, slip=None):
    """f_i of ``tableau`` by the bracket rule, or None.  ``slip`` names a wrong
    rule: "leftmost" raises the leftmost unbracketed i, and "i opens" lets an i
    open a bracket and an i+1 close it."""
    opens, closes = (i, i + 1) if slip == "i opens" else (i + 1, i)
    word = [(r, p) for r in reversed(range(len(tableau))) for p in range(len(tableau[r]))]
    open_at, free = [], []
    for r, p in word:
        x = tableau[r][p]
        if x == opens:
            open_at.append((r, p))
        elif x == closes and open_at:
            open_at.pop()
        elif x == i:
            free.append((r, p))
    if slip == "i opens":  # the unbracketed i are the ones still open
        free = open_at
    if not free:
        return None
    r, p = free[0] if slip == "leftmost" else free[-1]
    row = list(tableau[r])
    row[p] += 1
    return tableau[:r] + (tuple(row),) + tableau[r + 1:]


def tableau_crystal(n, c, d, slip=None):
    """``(vertices, succ)``: the SSYT of shape sigma_bound(c - d) and, per
    tableau, its f_i image for each color i = 1..n (None where f_i is
    undefined)."""
    width = c if d is None else tuple(ck - dk for ck, dk in zip(c, d))
    vertices = tableaux(sigma_bound(width), n + 1)
    succ = {T: {i: raise_letter(T, i, slip) for i in range(1, n + 1)} for T in vertices}
    return vertices, succ


def unclosed(vertices, succ):
    """The images f_i(T) that are not among the vertices."""
    known = set(vertices)
    return [S for images in succ.values() for S in images.values() if S is not None and S not in known]


def only_source(vertices, succ):
    """The one vertex that no edge enters."""
    entered = {S for images in succ.values() for S in images.values()}
    (source,) = [v for v in vertices if v not in entered]
    return source


def matched(size1, source1, succ1, size2, source2, succ2, color_map):
    """True iff following the two successor maps from the sources, color c on
    the first side against ``color_map[c]`` on the second, pairs every vertex
    of each side with exactly one of the other, edge for edge."""
    if size1 != size2:
        return False
    m, rm = {source1: source2}, {source2: source1}
    queue = deque([source1])
    while queue:
        v1 = queue.popleft()
        v2 = m[v1]
        for c, c2 in color_map.items():
            w1, w2 = succ1(v1, c), succ2(v2, c2)
            if (w1 is None) != (w2 is None):
                return False
            if w1 is None:
                continue
            if m.get(w1, w2) != w2 or rm.get(w2, w1) != w1:
                return False
            if w1 not in m:
                m[w1], rm[w2] = w2, w1
                queue.append(w1)
    return len(m) == size1


def crystal_successors(K):
    """``(source, succ)`` of a generated crystal, read from its columns."""
    heads = {w for column in K.nxt.values() for w in column if w >= 0}
    (source,) = [v for v in range(K.num_vertices) if v not in heads]

    def succ(v, c):
        w = K.nxt[c][v]
        return None if w < 0 else w

    return source, succ


def matches_k(n, c, d, color_map):
    """True iff the tableau crystal matches K(c, d), color i against color_map[i]."""
    vertices, succ = tableau_crystal(n, c, d)
    K = generate(n, c, d)
    source, k_succ = crystal_successors(K)
    return matched(
        len(vertices), only_source(vertices, succ), lambda T, i: succ[T][i],
        K.num_vertices, source, k_succ, color_map,
    )


@pytest.mark.parametrize("n, c, d", CASES)
def test_the_crossing_model_is_the_tableau_crystal_with_colors_reversed(n, c, d):
    assert unclosed(*tableau_crystal(n, c, d)) == []
    assert matches_k(n, c, d, {i: n + 1 - i for i in range(1, n + 1)})


def test_the_colors_must_be_reversed():
    assert not matches_k(2, (2, 1), None, {1: 1, 2: 2})


@pytest.mark.parametrize("n, c, d", CASES[1:5])
@pytest.mark.parametrize("slip", ["leftmost", "i opens"])
def test_a_slip_in_the_bracket_rule_leaves_the_tableaux_unclosed(n, c, d, slip):
    assert unclosed(*tableau_crystal(n, c, d, slip))


def test_the_tableaux_of_a_column_and_a_row():
    # B(omega_1) of sl_3 is the column of one box, B(omega_2) a column of two
    assert tableaux((1, 0), 3) == [((1,), ()), ((2,), ()), ((3,), ())]
    assert tableaux((1, 1), 3) == [((1,), (2,)), ((1,), (3,)), ((2,), (3,))]
    assert len(tableaux((2, 0), 3)) == 6
