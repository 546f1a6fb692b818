"""Folding and the one-walk odd-cycle decomposition."""

import random
from fractions import Fraction

import pytest

from matchcore.bipartite import PrimalDualCertificate, double_graph, solve_bipartite
from matchcore.errors import InvariantViolation
from matchcore.halfint import (
    HalfIntegralSolution,
    decompose_components,
    fold_solution,
)
from matchcore.instances import GameInstance, gen_gap_family, gen_odd_cycle, gen_random, parse_instance

from oracles import (
    ReferenceHalfIntegralSolution,
    bipartite_max_weight_dp,
    doubled_edges,
    reference_decompose_components,
    reference_normalize,
    solution_weight2,
)

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")


def pipeline_fold(g):
    return fold_solution(g, solve_bipartite(double_graph(g)))


def test_fold_k3():
    s = pipeline_fold(K3)
    assert s.x2 == (1, 1, 1)
    assert s.v2 == (1, 1, 1)  # cover 1/2 on each vertex
    assert Fraction(solution_weight2(K3, s), 2) == Fraction(3, 2)


def test_fold_single_edge():
    s = pipeline_fold(EDGE5)
    assert s.x2 == (2,)
    assert s.v2[0] + s.v2[1] == 10
    assert min(s.v2) >= 0


def test_fold_empty():
    g = GameInstance(0, ())
    s = pipeline_fold(g)
    assert s.x2 == () and s.v2 == ()


def test_fold_rejects_broken_certificate():
    d = double_graph(EDGE5)
    cert = solve_bipartite(d)
    # drop the matching but keep the duals: strong duality must fail
    bad = PrimalDualCertificate((-1, -1), cert.u, cert.v)
    with pytest.raises(InvariantViolation):
        fold_solution(EDGE5, bad)


def test_normalize_path_keeps_low_endpoint_edge():
    g = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")
    comps = decompose_components(g, HalfIntegralSolution((1, 1), (0, 2, 0)))
    assert comps.integral_edges == (0,)
    assert comps.odd_cycles == ()


def test_normalize_even_cycle_picks_opposite_edges():
    g = parse_instance("p mg 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
    comps = decompose_components(g, HalfIntegralSolution((1, 1, 1, 1), (1,) * 4))
    assert comps.integral_edges == (0, 2)
    assert comps.odd_cycles == ()


def test_normalize_unequal_path_is_hard_failure():
    g = parse_instance("p mg 3 2\ne 1 2 2\ne 2 3 1\n")
    s = HalfIntegralSolution((1, 1), (2, 2, 0))
    with pytest.raises(InvariantViolation, match="differ in weight"):
        decompose_components(g, s)


def test_normalize_lone_half_edge_is_hard_failure():
    s = HalfIntegralSolution((1,), (5, 5))
    with pytest.raises(InvariantViolation):
        decompose_components(EDGE5, s)


def test_decompose_rejects_three_half_edges_at_a_vertex():
    # a theta graph: vertices 1 and 2 joined by paths of 2, 2 and 3 edges
    g = parse_instance("p mg 6 7\ne 1 3 1\ne 3 2 1\ne 1 4 1\ne 4 2 1\n"
                       "e 1 5 1\ne 5 6 1\ne 6 2 1\n")
    s = HalfIntegralSolution((1,) * 7, (1,) * 6)
    with pytest.raises(InvariantViolation, match="vertex 0 has 3 half-edges"):
        decompose_components(g, s)


def test_decompose_k3():
    comps = decompose_components(K3, pipeline_fold(K3))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.vertices == (0, 1, 2)
    assert cyc.k == 1
    assert cyc.weights == (1, 1, 1)
    assert cyc.w_C == 3
    assert comps.integral_edges == ()


def test_decompose_c5():
    g = gen_odd_cycle(2)
    comps = decompose_components(g, pipeline_fold(g))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.k == 2 and cyc.weights == (1,) * 5 and cyc.w_C == 5
    assert Fraction(solution_weight2(g, pipeline_fold(g)), 2) == Fraction(5, 2)


def test_decompose_weights_in_walk_order():
    # triangle with weights 2 on 1-2 and 1 elsewhere, cover (1, 1, 0)
    g = parse_instance("p mg 3 3\ne 1 2 2\ne 1 3 1\ne 2 3 1\n")
    comps = decompose_components(g, HalfIntegralSolution((1, 1, 1), (2, 2, 0)))
    cyc = comps.odd_cycles[0]
    assert cyc.vertices == (0, 1, 2)
    assert cyc.weights == (2, 1, 1)  # edges 0-1, 1-2, 2-0
    assert cyc.w_C == 4


def test_decompose_bipartite_has_no_cycles():
    g = gen_random(8, Fraction(3, 4), 9, seed=5, bipartite=True)
    s = pipeline_fold(g)
    comps = decompose_components(g, s)
    assert comps.odd_cycles == ()
    assert 2 * sum(g.edges[e][2] for e in comps.integral_edges) == sum(s.v2)


def rand_instances():
    out = []
    for seed in range(60):
        n = 2 + seed % 9
        p = Fraction(1 + seed % 4, 4)
        out.append(gen_random(n, p, 1 + seed % 10, seed=seed,
                              bipartite=bool(seed % 5 == 0)))
    return out


def test_fold_weight_matches_brute_force_lp():
    # the folded matching weight is the LP optimum: cross-check against
    # an independent DP on the doubled graph
    for g in rand_instances():
        s = pipeline_fold(g)
        n = g.vertex_count
        dp = bipartite_max_weight_dp(n, n, doubled_edges(g.edges))
        assert Fraction(solution_weight2(g, s), 2) == Fraction(dp, 2)


def test_normalize_preserves_weight_and_cover():
    for g in rand_instances():
        s = pipeline_fold(g)
        comps = decompose_components(g, s)
        # 2 * integral weight + sum of w_C is 2 * weight(x) = sum(v2)
        integral = sum(g.edges[e][2] for e in comps.integral_edges)
        assert 2 * integral + sum(c.w_C for c in comps.odd_cycles) == sum(s.v2)
        # every odd cycle walks half-edges of the fold
        half = {(a, b) for e, (a, b, _) in enumerate(g.edges) if s.x2[e] == 1}
        for c in comps.odd_cycles:
            L = len(c.vertices)
            assert L == 2 * c.k + 1
            assert all(tuple(sorted((c.vertices[t], c.vertices[(t + 1) % L]))) in half
                       for t in range(L))


def reference_cases():
    """(instance, solution) pairs: folded solves plus hand-made half-edges."""
    cases = []
    graphs = rand_instances() + [gen_odd_cycle(k) for k in range(1, 51)]
    graphs += [gen_gap_family(k, connected=c) for k in range(1, 6) for c in (False, True)]
    for g in graphs:
        s = pipeline_fold(g)
        cases.append((g, s))
        if g.vertex_count:
            # a cover moved at vertex 0: w_C = 2 v_C fails if 0 is on a cycle
            cases.append((g, HalfIntegralSolution(s.x2, (s.v2[0] + 2,) + s.v2[1:])))
    path = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")
    square = parse_instance("p mg 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
    unequal = parse_instance("p mg 3 2\ne 1 2 2\ne 2 3 1\n")
    cases += [(path, HalfIntegralSolution((1, 1), (0, 2, 0))),
              (square, HalfIntegralSolution((1, 1, 1, 1), (1,) * 4)),
              (unequal, HalfIntegralSolution((1, 1), (2, 2, 0))),
              (EDGE5, HalfIntegralSolution((1,), (5, 5)))]
    cases += [mixed_components(seed) for seed in range(300)]
    return cases


def mixed_components(seed):
    """A raw solution whose half-edges form vertex-disjoint runs, even
    cycles and odd cycles, next to integral edges and edges at 0.

    Vertex ids and edge order are shuffled, so the components
    interleave. Most runs and even cycles have alternating matchings of
    equal weight and most odd cycles a cover with w_C = 2 v_C; the rest
    break them, and now and then an integral edge touches a half-edge.
    """
    rng = random.Random(seed)
    sizes = {"run": lambda: rng.randint(2, 7), "even": lambda: 2 * rng.randint(2, 5),
             "odd": lambda: 2 * rng.randint(1, 5) + 1, "integral": lambda: 2}
    shapes = [(kind, size()) for kind, size in sizes.items() for _ in range(rng.randint(0, 2))]
    rng.shuffle(shapes)
    n = sum(size for _, size in shapes) + rng.randint(0, 3)
    ids = list(range(n))
    rng.shuffle(ids)
    edges, x2, v2, pos = [], [], [rng.randint(0, 9) for _ in range(n)], 0
    for kind, size in shapes:
        verts = ids[pos:pos + size]
        pos += size
        if kind == "integral":
            if rng.random() < 0.1 and edges:  # meets some earlier edge
                verts[1] = edges[0][0]
            edges.append((verts[0], verts[1], rng.randint(0, 9)))
            x2.append(2)
            continue
        count = size - 1 if kind == "run" else size
        weights = [rng.randint(0, 9) for _ in range(count)]
        if kind != "odd" and rng.random() < 0.8:
            keep, drop = sum(weights[0::2]), sum(weights[1::2])
            if count == 1:
                weights[0] = 0
            elif keep > drop:
                weights[1] += keep - drop
            else:
                weights[0] += drop - keep
        for t in range(count):
            edges.append((verts[t], verts[(t + 1) % size], weights[t]))
            x2.append(1)
        if kind == "odd":
            v2[verts[-1]] = sum(weights) - sum(v2[i] for i in verts[:-1])
            if rng.random() < 0.2:
                v2[verts[-1]] += 1
    pairs = {frozenset(e[:2]) for e in edges}
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges.append((u, v, rng.randint(0, 9)))
            x2.append(0)
    order = list(range(len(edges)))
    rng.shuffle(order)
    g = GameInstance(n, tuple(edges[e] for e in order))
    return g, HalfIntegralSolution(tuple(x2[e] for e in order), tuple(v2))


def test_decompose_matches_two_walk_reference():
    raised = 0
    for g, s in reference_cases():
        try:
            want = reference_decompose_components(
                g, reference_normalize(g, ReferenceHalfIntegralSolution(s.x2, s.v2, False)))
        except InvariantViolation as err:
            with pytest.raises(InvariantViolation) as got:
                decompose_components(g, s)
            assert str(got.value) == str(err)
            raised += 1
            continue
        comps = decompose_components(g, s)
        assert comps.integral_edges == want.integral_edges
        assert comps.odd_cycles == want.odd_cycles
    assert raised > 0


def test_cover_feasible_and_strong_duality():
    for g in rand_instances():
        s = pipeline_fold(g)
        assert Fraction(sum(s.v2), 2) == Fraction(solution_weight2(g, s), 2)
        for (i, j, w) in g.edges:
            assert s.v2[i] + s.v2[j] >= 2 * w
        assert all(type(x) is int for x in s.v2)
