"""Folding, normalization, and odd-cycle decomposition."""

from fractions import Fraction

import pytest

from matchcore.bipartite import PrimalDualCertificate, double_graph, solve_bipartite
from matchcore.errors import InvariantViolation
from matchcore.halfint import (
    HalfIntegralSolution,
    decompose_components,
    fold_solution,
    normalize,
    solution_weight,
)
from matchcore.instances import GameInstance, gen_odd_cycle, gen_random, parse_instance

from oracles import bipartite_max_weight_dp, doubled_edges

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")


def pipeline_fold(g):
    d = double_graph(g)
    return fold_solution(g, d, solve_bipartite(d))


def test_fold_k3():
    s = pipeline_fold(K3)
    assert s.x2 == (1, 1, 1)
    assert s.v2 == (1, 1, 1)  # cover 1/2 on each vertex
    assert solution_weight(K3, s) == Fraction(3, 2)
    assert not s.normalized


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
        fold_solution(EDGE5, d, bad)


def test_normalize_path_keeps_low_endpoint_edge():
    g = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")
    s = HalfIntegralSolution((1, 1), (0, 2, 0), False)
    out = normalize(g, s)
    assert out.x2 == (2, 0)
    assert out.v2 == s.v2
    assert solution_weight(g, out) == solution_weight(g, s) == 1


def test_normalize_even_cycle_picks_opposite_edges():
    g = parse_instance("p mg 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
    s = HalfIntegralSolution((1, 1, 1, 1), (1,) * 4, False)
    out = normalize(g, s)
    assert out.x2 == (2, 0, 2, 0)
    assert solution_weight(g, out) == 2


def test_normalize_odd_cycle_is_fixed_point():
    s = pipeline_fold(K3)
    out = normalize(K3, s)
    assert out.x2 == s.x2
    assert out.normalized
    assert normalize(K3, out) is out


def test_normalize_unequal_path_is_hard_failure():
    g = parse_instance("p mg 3 2\ne 1 2 2\ne 2 3 1\n")
    s = HalfIntegralSolution((1, 1), (2, 2, 0), False)
    with pytest.raises(InvariantViolation):
        normalize(g, s)


def test_normalize_lone_half_edge_is_hard_failure():
    s = HalfIntegralSolution((1,), (5, 5), False)
    with pytest.raises(InvariantViolation):
        normalize(EDGE5, s)


def test_decompose_k3():
    comps = decompose_components(K3, normalize(K3, pipeline_fold(K3)))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.vertices == (0, 1, 2)
    assert cyc.k == 1
    assert cyc.weights == (1, 1, 1)
    assert cyc.w_C == 3
    assert comps.integral_edges == ()


def test_decompose_c5():
    g = gen_odd_cycle(2)
    comps = decompose_components(g, normalize(g, pipeline_fold(g)))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.k == 2 and cyc.weights == (1,) * 5 and cyc.w_C == 5
    assert solution_weight(g, normalize(g, pipeline_fold(g))) == Fraction(5, 2)


def test_decompose_weights_in_walk_order():
    # triangle with weights 2 on 1-2 and 1 elsewhere, cover (1, 1, 0)
    g = parse_instance("p mg 3 3\ne 1 2 2\ne 1 3 1\ne 2 3 1\n")
    comps = decompose_components(g, HalfIntegralSolution((1, 1, 1), (2, 2, 0), True))
    cyc = comps.odd_cycles[0]
    assert cyc.vertices == (0, 1, 2)
    assert cyc.weights == (2, 1, 1)  # edges 0-1, 1-2, 2-0
    assert cyc.w_C == 4


def test_decompose_bipartite_has_no_cycles():
    g = gen_random(8, Fraction(3, 4), 9, seed=5, bipartite=True)
    s = normalize(g, pipeline_fold(g))
    comps = decompose_components(g, s)
    assert comps.odd_cycles == ()
    assert all(val in (0, 2) for val in s.x2)


def test_decompose_requires_normalized():
    with pytest.raises(ValueError):
        decompose_components(K3, pipeline_fold(K3))


def test_decompose_rejects_half_paths():
    g = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")
    s = HalfIntegralSolution((1, 1), (0, 2, 0), True)
    with pytest.raises(InvariantViolation):
        decompose_components(g, s)


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
        assert solution_weight(g, s) == Fraction(dp, 2)


def test_normalize_preserves_weight_and_cover():
    for g in rand_instances():
        s = pipeline_fold(g)
        out = normalize(g, s)
        assert out.normalized
        assert solution_weight(g, out) == solution_weight(g, s)
        assert out.v2 == s.v2
        # degree constraint still holds and halves are exactly the cycles
        comps = decompose_components(g, out)
        on_cycles = sum(len(c.vertices) for c in comps.odd_cycles)
        assert on_cycles == sum(1 for e, val in enumerate(out.x2) if val == 1) and \
            all(len(c.vertices) % 2 == 1 for c in comps.odd_cycles)


def test_cover_feasible_and_strong_duality():
    for g in rand_instances():
        s = pipeline_fold(g)
        assert Fraction(sum(s.v2), 2) == solution_weight(g, s)
        for (i, j, w) in g.edges:
            assert s.v2[i] + s.v2[j] >= 2 * w
        assert all(type(x) is int for x in s.v2)
