"""Acceptance gate: twelve end-to-end criteria, one printed verdict line each."""

import random
import time

from ancrystal import (
    UPPER,
    LOWER,
    backward_move,
    base_crystal,
    branching_multiplicity,
    build_supporting_graph,
    count_bounded_patterns,
    find_sink_by_operators,
    forward_move,
    from_gt,
    fundamental_strings,
    generate,
    isomorphic,
    apply_string,
    principal_interval,
    principal_lattice,
    residual_slacks_by_cancelation,
    sigma_bound,
    skeleton,
    slack_dicts,
    subcrystals,
    subgraph,
    to_gt,
)
from ancrystal.axioms import ColoredDigraph, all_pass, from_crystal_json, verify_graph
from conftest import DESK_PARAMS


def report(capsys, name, ok):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_criterion_01_dimensions(crystals, capsys):
    start = time.monotonic()
    ok = True
    for n, c in DESK_PARAMS:
        K = crystals(n, c)
        if K.num_vertices != count_bounded_patterns(n, sigma_bound(c)):
            ok = False
    K = crystals(2, (1, 2))
    # longest path length: each unit of c_k contributes one move per G^k node
    length = sum(ck * k * (2 - k + 1) for k, ck in enumerate((1, 2), start=1))
    ok = ok and (K.num_vertices, K.num_edges) == (15, 18) and length == 6
    ok = ok and time.monotonic() - start < 10
    report(capsys, "criterion-01 dimension oracle and anchor counts", ok)


def test_criterion_02_axioms(crystals, capsys):
    start = time.monotonic()
    ok = True
    for n, c in DESK_PARAMS:
        g = from_crystal_json(crystals(n, c).to_json())
        if not all_pass(verify_graph(g, strict_a4=True, fail_fast=False)):
            ok = False
    ok = ok and time.monotonic() - start < 30
    report(capsys, "criterion-02 axiom battery on every desk crystal", ok)


def test_criterion_03_mutation_detection(crystals, capsys):
    start = time.monotonic()
    ok = True
    for n, c in ((2, (1, 2)), (3, (1, 1, 1))):
        K = crystals(n, c)
        base = list(K.edges())
        vertices = tuple(range(K.num_vertices))
        for p in range(len(base)):
            g = ColoredDigraph(vertices, tuple(base[:p] + base[p + 1 :]), n)
            if all_pass(verify_graph(g)):
                ok = False
        present = {(u, w) for (u, w, _) in base}
        rng = random.Random(20240817)
        tried = 0
        while tried < 50:
            u, w = rng.randrange(len(vertices)), rng.randrange(len(vertices))
            col = rng.randint(1, n)
            if u == w or (u, w) in present:
                continue
            tried += 1
            g = ColoredDigraph(vertices, tuple(base + [(u, w, col)]), n)
            if all_pass(verify_graph(g)):
                ok = False
    ok = ok and time.monotonic() - start < 60
    report(capsys, "criterion-03 single-edge mutations are always detected", ok)


def test_criterion_04_involution(crystals, capsys):
    ok = True
    for n, c in DESK_PARAMS:
        K = crystals(n, c)
        for f in map(K.function, K.vertex_ids()):
            for i in range(1, n + 1):
                out = forward_move(f, i)
                if out is not None and backward_move(out, i) != f:
                    ok = False
                outb = backward_move(f, i)
                if outb is not None and forward_move(outb, i) != f:
                    ok = False
    report(capsys, "criterion-04 forward and backward moves are mutually inverse", ok)


def test_criterion_05_pattern_bijection(crystals, capsys):
    ok = True
    for n, c in ((2, (1, 2)), (2, (2, 2)), (3, (1, 1, 1)), (3, (2, 1, 0))):
        g = build_supporting_graph(n)
        K = crystals(n, c)
        images = set()
        for f in map(K.function, K.vertex_ids()):
            p = to_gt(f)
            if not p.is_bounded_by(sigma_bound(c)) or from_gt(g, p, c) != f:
                ok = False
            images.add(p.rows)
        if len(images) != K.num_vertices:
            ok = False
        if len(images) != count_bounded_patterns(n, sigma_bound(c)):
            ok = False
    report(capsys, "criterion-05 pattern bijection round trip with exact image", ok)


def test_criterion_06_principal_lattice(crystals, capsys):
    ok = True
    for n, c in ((2, (1, 2)), (3, (1, 1, 1))):
        K = crystals(n, c)
        lat = principal_lattice(K)
        expected = 1
        for x in c:
            expected *= x + 1
        if lat.size != expected:
            ok = False
        for a in lat.tuples():
            for b in lat.tuples():
                if all(x <= y for x, y in zip(a, b)):
                    diff = tuple(y - x for x, y in zip(a, b))
                    if not isomorphic(principal_interval(K, a, b), crystals(n, diff)):
                        ok = False
    report(capsys, "criterion-06 principal lattice size and interval crystals", ok)


def test_criterion_07_subcrystals(crystals, capsys):
    ok = True
    for n, c in ((3, (1, 1, 1)), (3, (2, 1, 0))):
        K = crystals(n, c)
        for side, cmap in (
            (UPPER, {i: i for i in range(1, n)}),
            (LOWER, {i: i - 1 for i in range(2, n + 1)}),
        ):
            records = subcrystals(K, side)
            covered = sorted(v for r in records for v in r.vertex_ids)
            if covered != list(K.vertex_ids()):
                ok = False
            for r in records:
                sub = subgraph(K, r.vertex_ids, tuple(cmap))
                if not isomorphic(sub, generate(n - 1, r.parameter), cmap):
                    ok = False
        upper = subcrystals(K, UPPER)
        qs = {r.parameter for r in upper}
        total = sum(branching_multiplicity(c, q) for q in qs)
        if total != len(upper):
            ok = False
    report(capsys, "criterion-07 subcrystal decomposition and branching counts", ok)


def test_criterion_08_skeleton(crystals, capsys):
    ok = True
    K2 = crystals(2, (1, 2))
    if len(skeleton(K2).vertex_ids) != K2.num_vertices:
        ok = False
    n, c = 3, (1, 1, 1)
    K = crystals(n, c)
    sk = skeleton(K)
    for k in range(1, n + 1):
        pieces = sk.pieces_for(k)
        expected = 1
        for i in range(1, n + 1):
            if i != k:
                expected *= c[i - 1] + 1
        if len(pieces) != expected:
            ok = False
        ref = base_crystal(n, k, c[k - 1])
        if not all(isomorphic(subgraph(K, p.vertex_ids), ref) for p in pieces):
            ok = False
    report(capsys, "criterion-08 skeleton pieces, counts and base-crystal shapes", ok)


def test_criterion_09_fundamental_strings(crystals, capsys):
    ok = {str(s) for s in fundamental_strings(3, 2)} == {"2312", "2132"}
    n, c = 3, (1, 1, 1)
    K = crystals(n, c)
    lat = principal_lattice(K)
    for a in lat.tuples():
        for k in range(1, n + 1):
            target = tuple(x + (1 if i == k else 0) for i, x in enumerate(a, 1))
            for s in fundamental_strings(n, k):
                got = apply_string(K, lat.vertex(a), s)
                if a[k - 1] < c[k - 1]:
                    if got != lat.vertex(target):
                        ok = False
                elif got is not None:
                    ok = False
    report(capsys, "criterion-09 fundamental strings step through the lattice", ok)


def reference_residuals(eps, delta, top):
    A = [0]
    for j in range(1, top + 1):
        A.append(A[-1] + eps[j] - delta[j - 1])
    er, dr = {}, {}
    run = A[0]
    for j in range(1, top + 1):
        er[j] = max(0, A[j] - run)
        run = max(run, A[j])
    run = A[top]
    for j in range(top - 1, -1, -1):
        dr[j] = max(0, A[j] - run)
        run = max(run, A[j])
    return er, dr


def test_criterion_10_residual_slacks(crystals, capsys):
    ok = True
    for n, c in ((2, (1, 2)), (2, (2, 2)), (3, (1, 1, 1)), (3, (2, 1, 2))):
        K = crystals(n, c)
        for f in map(K.function, K.vertex_ids()):
            for i in range(1, n + 1):
                eps, delta, eps_res, delta_res = slack_dicts(f, i)
                if residual_slacks_by_cancelation(eps, delta) != (eps_res, delta_res):
                    ok = False
    rng = random.Random(20240817)
    for _ in range(10_000):
        top = rng.randint(1, 7)
        eps = {j: rng.randint(0, 6) for j in range(1, top + 1)}
        delta = {j: rng.randint(0, 6) for j in range(0, top)}
        if residual_slacks_by_cancelation(eps, delta) != reference_residuals(
            eps, delta, top
        ):
            ok = False
    report(capsys, "criterion-10 cancelation process equals the closed form", ok)


def test_criterion_11_anti_symmetry(crystals, capsys):
    ok = True
    for n, c in DESK_PARAMS:
        K = crystals(n, c)
        for i in range(1, n + 1):
            if K.h[i][K.source] != K.t[n + 1 - i][K.sink]:
                ok = False
    report(capsys, "criterion-11 source and sink string lengths are anti-symmetric", ok)


def test_criterion_12_sink_by_operators(crystals, capsys):
    K = crystals(3, (1, 1, 1))
    ok = all(find_sink_by_operators(K, v) == K.sink for v in K.vertex_ids())
    report(capsys, "criterion-12 the operator schedule reaches the sink everywhere", ok)
