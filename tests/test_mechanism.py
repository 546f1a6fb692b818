"""Scaled-cover mechanism: cycle analyses, factors, payouts."""

from dataclasses import replace
from fractions import Fraction

import pytest

from matchcore.halfint import OddCycle, decompose_components, normalize
from matchcore.instances import GameInstance, gen_gap_family, gen_odd_cycle, gen_random, parse_instance
from matchcore.mechanism import (
    CycleMatching,
    analyze_cycle,
    audit_pipeline,
    heaviest_tiebreak,
    run_mechanism,
    run_pipeline,
    scaling_profile,
)

from oracles import max_matching_by_edge_subsets

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
TRI211 = parse_instance("p mg 3 3\ne 1 2 2\ne 1 3 1\ne 2 3 1\n")


def test_k3_analysis():
    trace = run_pipeline(K3)
    assert len(trace.analyses) == 1
    analysis = trace.analyses[0]
    assert [m.weight for m in analysis.matchings] == [1, 1, 1]
    assert all(len(m.edges) == 1 for m in analysis.matchings)
    assert analysis.heaviest_weight == 1
    # ties break to the smallest removed vertex id
    assert analysis.matchings[analysis.heaviest_index].removed_vertex == 0


def test_c5_analysis():
    trace = run_pipeline(gen_odd_cycle(2))
    analysis = trace.analyses[0]
    assert [m.weight for m in analysis.matchings] == [2, 2, 2, 2, 2]
    assert all(len(m.edges) == 2 for m in analysis.matchings)
    assert analysis.heaviest_weight == 2
    # 5 * w(M') >= 4 * v_C = 2 * w_C holds with equality here
    assert 5 * analysis.heaviest_weight == 2 * analysis.cycle.w_C


def test_uneven_triangle_analysis_by_hand():
    # cover (1, 1, 0) on the triangle with weights (2, 1, 1)
    cycle = OddCycle((0, 1, 2), 1, (2, 1, 1), 4)
    analysis = analyze_cycle(cycle, (2, 2, 0))
    assert [m.weight for m in analysis.matchings] == [1, 1, 2]
    assert analysis.heaviest_weight == 2
    assert analysis.matchings[analysis.heaviest_index].removed_vertex == 2


def test_uneven_triangle_full_pipeline():
    # this instance also has an integral optimum; the solver's
    # deterministic choice is the half cycle, and the payout it induces
    # is a valid 2/3-approximate one either way
    trace = run_pipeline(TRI211)
    assert trace.normalized.v2 == (2, 2, 0)
    res = trace.result
    assert res.worth_fractional == 2
    assert res.c == (Fraction(2, 3), Fraction(2, 3), Fraction(0))
    assert res.matching == ((0, 1),)
    assert res.allocated == Fraction(4, 3)
    assert res.matching_weight == 2


def test_heaviest_tiebreak_rules():
    mk = lambda rv, w: CycleMatching(rv, (), w)
    assert heaviest_tiebreak([mk(4, 1), mk(2, 1), mk(3, 1)]) == 1
    assert heaviest_tiebreak([mk(4, 1), mk(2, 3), mk(3, 3)]) == 1
    with pytest.raises(ValueError):
        heaviest_tiebreak([])


def test_scaling_profile_values():
    trace = run_pipeline(K3)
    assert trace.profile.factors == (Fraction(2, 3),) * 3
    trace5 = run_pipeline(gen_odd_cycle(2))
    assert trace5.profile.factors == (Fraction(4, 5),) * 5
    bip = gen_random(8, Fraction(1, 2), 5, seed=11, bipartite=True)
    assert set(run_pipeline(bip).profile.factors) == {Fraction(1)}


def test_k3_mechanism():
    res = run_mechanism(K3)
    assert res.c == (Fraction(1, 3),) * 3
    assert len(res.matching) == 1
    assert res.allocated == 1 == res.matching_weight
    assert res.worth_fractional == Fraction(3, 2)
    assert res.factor_guarantee == Fraction(2, 3)


def test_c5_mechanism():
    res = run_mechanism(gen_odd_cycle(2))
    assert res.c == (Fraction(2, 5),) * 5
    assert res.allocated == 2 == res.matching_weight
    assert len(res.matching) == 2


def test_single_edge_mechanism():
    res = run_mechanism(EDGE5)
    assert res.allocated == 5 == res.matching_weight
    assert res.matching == ((0, 1),)
    assert res.factor_guarantee == 1
    assert sum(res.c) == 5


def test_unit_odd_cycles_formula():
    for k in range(1, 7):
        res = run_mechanism(gen_odd_cycle(k))
        length = 2 * k + 1
        assert res.c == (Fraction(k, length),) * length
        assert res.allocated == k == res.matching_weight
        assert res.factor_guarantee == Fraction(2 * k, length)
        assert len(res.matching) == k


def test_gap_family_mechanism():
    res = run_mechanism(gen_gap_family(2))
    assert res.worth_fractional == 6
    assert res.matching_weight == 4
    assert res.allocated == 4
    assert set(res.c) == {Fraction(1, 3)}


def test_empty_and_isolated():
    res = run_mechanism(GameInstance(0, ()))
    assert res.c == () and res.matching == ()
    assert res.factor_guarantee == 1
    iso = run_mechanism(GameInstance(3, ((0, 1, 4),)))
    assert iso.c[2] == 0
    assert iso.allocated == 4


def test_deterministic():
    g = gen_random(9, Fraction(1, 2), 8, seed=77)
    assert run_mechanism(g) == run_mechanism(g)


def rand_instances():
    out = []
    for seed in range(80):
        n = 2 + seed % 9
        p = Fraction(1 + seed % 4, 4)
        out.append(gen_random(n, p, 1 + seed % 10, seed=seed,
                              bipartite=bool(seed % 7 == 0)))
    return out


def test_mechanism_properties_random():
    for g in rand_instances():
        trace = run_pipeline(g)
        res = trace.result
        # per-edge bounds, exact
        for (i, j, w) in g.edges:
            assert 3 * (res.c[i] + res.c[j]) >= 2 * w
            fmin = min(trace.profile.factors[i], trace.profile.factors[j])
            assert res.c[i] + res.c[j] >= fmin * w
            assert res.c[i] + res.c[j] >= res.factor_guarantee * w
        # budget chain against an independent exhaustive matcher
        assert res.allocated <= res.matching_weight
        if g.edge_count <= 14:
            assert res.matching_weight <= max_matching_by_edge_subsets(list(g.edges))
        assert audit_pipeline(trace) == []


def test_audit_reports_tampered_payout():
    trace = run_pipeline(K3)
    # payouts over different denominators: 1/3 + 1/4 covers edge 1-3 at 7/12 < 2/3
    c = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))
    bad = replace(trace, result=replace(trace.result, c=c))
    problems = audit_pipeline(bad)
    assert "payout at vertex 2 is not factor * cover" in problems
    assert "payout covers edge (0, 2) below 2/3" in problems
    assert "payout covers edge (1, 2) below 2/3" in problems
    assert len(problems) == 3


def test_cycle_identities_random():
    for g in rand_instances():
        trace = run_pipeline(g)
        v = [Fraction(x, 2) for x in trace.normalized.v2]
        for analysis in trace.analyses:
            cyc = analysis.cycle
            k = cyc.k
            v_C = sum(v[i] for i in cyc.vertices)
            assert cyc.w_C == 2 * v_C
            assert sum(m.weight for m in analysis.matchings) == 2 * k * v_C
            assert (2 * k + 1) * analysis.heaviest_weight >= 2 * k * v_C
            for j, m in enumerate(analysis.matchings):
                assert v[cyc.vertices[j]] == v_C - m.weight


@pytest.mark.parametrize("n, degree, seed", [
    (100, 3, 1), (150, 6, 2), (200, 4, 3), (250, 5, 4), (300, 3, 5), (300, 6, 6),
])
def test_payout_against_exact_matching_past_brute_force(n, degree, seed):
    # networkx's blossom algorithm stays in integers on integer weights,
    # so nu is the exact maximum-matching worth of the grand coalition
    nx = pytest.importorskip("networkx")
    g = gen_random(n, Fraction(degree, n - 1), 100, seed=seed)
    graph = nx.Graph()
    graph.add_weighted_edges_from(g.edges)
    nu = sum(graph[u][v]["weight"] for (u, v) in nx.max_weight_matching(graph))
    res = run_mechanism(g)
    assert res.allocated <= res.matching_weight <= nu <= res.worth_fractional
    assert 3 * nu >= 2 * res.worth_fractional
    print(f"\n{g.name}: {g.edge_count} edges, nu {nu}, allocated "
          f"{res.allocated} (shortfall {nu - res.allocated}), fractional "
          f"optimum {res.worth_fractional}")
