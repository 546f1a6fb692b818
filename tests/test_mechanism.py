"""Scaled-cover mechanism: cycle analyses, factors, payouts."""

import random
from fractions import Fraction

import pytest

from matchcore import mechanism
from matchcore.errors import InvariantViolation
from matchcore.halfint import OddCycle
from matchcore.instances import GameInstance, gen_gap_family, gen_odd_cycle, gen_random, parse_instance
from matchcore.mechanism import (
    analyze_cycle,
    audit_pipeline,
    check_cycle,
    check_payout,
    run_mechanism,
    run_pipeline,
)

from oracles import alternating_matching, max_matching_by_edge_subsets, reference_analyze_cycle

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
TRI211 = parse_instance("p mg 3 3\ne 1 2 2\ne 1 3 1\ne 2 3 1\n")


def test_k3_analysis():
    trace = run_pipeline(K3)
    assert len(trace.analyses) == 1
    analysis = trace.analyses[0]
    assert analysis.matching_weights == (1, 1, 1)
    assert len(analysis.heaviest.edges) == 1
    assert analysis.heaviest.weight == 1
    # ties break to the smallest removed vertex id
    assert analysis.heaviest.removed_vertex == 0


def test_c5_analysis():
    trace = run_pipeline(gen_odd_cycle(2))
    analysis = trace.analyses[0]
    assert analysis.matching_weights == (2, 2, 2, 2, 2)
    assert len(analysis.heaviest.edges) == 2
    assert analysis.heaviest.weight == 2
    # 5 * w(M') >= 4 * v_C = 2 * w_C holds with equality here
    assert 5 * analysis.heaviest.weight == 2 * analysis.cycle.w_C


def test_uneven_triangle_analysis_by_hand():
    # cover (1, 1, 0) on the triangle with weights (2, 1, 1)
    cycle = OddCycle((0, 1, 2), 1, (2, 1, 1), 4)
    analysis = analyze_cycle(cycle, (2, 2, 0))
    assert analysis.matching_weights == (1, 1, 2)
    assert analysis.heaviest.weight == 2
    assert analysis.heaviest.removed_vertex == 2
    assert analysis.heaviest.edges == ((0, 1),)


def test_uneven_triangle_full_pipeline():
    # this instance also has an integral optimum; the solver's
    # deterministic choice is the half cycle, and the payout it induces
    # is a valid 2/3-approximate one either way
    trace = run_pipeline(TRI211)
    assert trace.folded.v2 == (2, 2, 0)
    res = trace.result
    assert res.worth_fractional == 2
    assert res.c == (Fraction(2, 3), Fraction(2, 3), Fraction(0))
    assert res.matching == ((0, 1),)
    assert res.allocated == Fraction(4, 3)
    assert res.matching_weight == 2


def test_analyze_cycle_tiebreak_rules():
    # a triangle walked 4, 2, 3: M_j is the one edge opposite vertices[j]
    v2 = [0] * 5
    # all three matchings weigh 1: the smallest removed id, 2, wins
    v2[4] = v2[2] = v2[3] = 1
    analysis = analyze_cycle(OddCycle((4, 2, 3), 1, (1, 1, 1), 3), v2)
    assert analysis.matching_weights == (1, 1, 1)
    assert analysis.heaviest.removed_vertex == 2
    assert analysis.heaviest.edges == ((3, 4),)
    # weights 1, 3, 3: the tie between removing 2 and 3 goes to 2
    v2[4], v2[2], v2[3] = 5, 1, 1
    analysis = analyze_cycle(OddCycle((4, 2, 3), 1, (3, 1, 3), 7), v2)
    assert analysis.matching_weights == (1, 3, 3)
    assert analysis.heaviest.removed_vertex == 2
    assert analysis.heaviest.edges == ((3, 4),)
    assert analysis.heaviest.weight == 3


def test_scaling_profile_values():
    trace = run_pipeline(K3)
    assert trace.result.factors == (Fraction(2, 3),) * 3
    trace5 = run_pipeline(gen_odd_cycle(2))
    assert trace5.result.factors == (Fraction(4, 5),) * 5
    bip = gen_random(8, Fraction(1, 2), 5, seed=11, bipartite=True)
    assert set(run_pipeline(bip).result.factors) == {Fraction(1)}


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
            fmin = min(trace.result.factors[i], trace.result.factors[j])
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
    bad = trace._replace(result=trace.result._replace(c=c))
    # the first differing payout is named, not every edge it underpays
    assert audit_pipeline(bad) == ["stored result.c[2] is 1/4; the certificate gives 1/3"]


def test_audit_reports_payout_over_budget():
    trace = run_pipeline(gen_odd_cycle(1))
    # vertex 0 paid its full cover 1/2 at factor 1: the payouts would sum
    # to 7/6, over the backing matching's weight 1
    res = trace.result
    bad = trace._replace(result=res._replace(
        c=(Fraction(1, 2),) + res.c[1:], factors=(Fraction(1),) + res.factors[1:]))
    assert audit_pipeline(bad) == [
        "stored result.c[0] is 1/2; the certificate gives 1/3",
        "stored result.factors[0] is 1; the certificate gives 2/3",
    ]


def test_audit_checks_factors_against_cycle_lengths():
    # a lone edge lies on no cycle, so both endpoints must keep factor 1
    trace = run_pipeline(GameInstance(2, ((0, 1, 4),)))
    res = trace.result
    assert res.c == (2, 2)
    bad = trace._replace(result=res._replace(
        c=(Fraction(4, 3), res.c[1]), factors=(Fraction(2, 3), res.factors[1])))
    assert audit_pipeline(bad) == [
        "stored result.c[0] is 4/3; the certificate gives 2",
        "stored result.factors[0] is 2/3; the certificate gives 1",
    ]


def test_audit_reports_a_factor_missing():
    trace = run_pipeline(gen_odd_cycle(1))
    res = trace.result
    bad = trace._replace(result=res._replace(factors=res.factors[:-1]))
    assert audit_pipeline(bad) == ["stored result.factors has length 2; the certificate gives 3"]


def test_audit_reports_a_payout_missing():
    trace = run_pipeline(gen_odd_cycle(1))
    res = trace.result
    bad = trace._replace(result=res._replace(c=res.c[:-1]))
    assert audit_pipeline(bad) == ["stored result.c has length 2; the certificate gives 3"]


# each case id names the fault the case plants
@pytest.mark.parametrize("field, expected", [
    pytest.param("matching_weight", "stored result.matching_weight is 3; the certificate gives 2",
                 id="matching_weight-matching weight 3 != output edges' total 2"),
    pytest.param("worth_fractional",
                 "stored result.worth_fractional is 7/2; the certificate gives 5/2",
                 id="worth_fractional-fractional optimum 7/2 is not half the cover total 5"),
    pytest.param("allocated", "stored result.allocated is 3; the certificate gives 2",
                 id="allocated-allocation is not the sum of the payouts"),
    pytest.param("factor_guarantee",
                 "stored result.factor_guarantee is 9/5; the certificate gives 4/5",
                 id="factor_guarantee-factor guarantee 9/5 is not the least factor"),
])
def test_audit_recomputes_stored_totals(field, expected):
    trace = run_pipeline(gen_odd_cycle(2))
    res = trace.result
    bad = trace._replace(result=res._replace(**{field: getattr(res, field) + 1}))
    assert audit_pipeline(trace) == []
    assert audit_pipeline(bad) == [expected]


def test_check_cycle_reports_each_identity():
    # the triangle of K3 under cover 1/2 everywhere, but with matching
    # weights that follow from no cycle
    cycle = OddCycle((0, 1, 2), 1, (1, 1, 1), 3)
    assert check_cycle(cycle, (1, 1, 1), (1, 1, 1)) == []
    assert check_cycle(cycle, (0, 0, 0), (1, 1, 1)) == [
        "cycle cover at vertex 0: 2v = 1 != 3 - 2*0",
        "cycle cover at vertex 1: 2v = 1 != 3 - 2*0",
        "cycle cover at vertex 2: 2v = 1 != 3 - 2*0",
        "cycle matching weights sum to 0, expected 3",
    ]


COMPLETE12 = gen_random(12, 1, 9, seed=3)
ONE_CYCLE14 = gen_random(14, Fraction(1, 3), 9, seed=3)  # one odd cycle, 11 vertices


def _with_cycle(trace, cycle):
    """`trace` with its one odd cycle replaced by `cycle` in both the
    components and the analysis."""
    (analysis,) = trace.analyses
    return trace._replace(components=trace.components._replace(odd_cycles=(cycle,)),
                          analyses=(analysis._replace(cycle=cycle),))


def test_audit_reports_a_short_cover():
    trace = run_pipeline(COMPLETE12)
    bad = trace._replace(folded=trace.folded._replace(v2=trace.folded.v2[:-1]))
    assert audit_pipeline(bad) == ["stored folded.v2 has length 11; the certificate gives 12"]


def test_audit_reports_a_short_folded_matching():
    trace = run_pipeline(COMPLETE12)
    bad = trace._replace(folded=trace.folded._replace(x2=trace.folded.x2[:-1]))
    assert audit_pipeline(bad) == ["stored folded.x2 has length 65; the certificate gives 66"]


def test_audit_stops_at_a_short_certificate():
    # the fold reads the certificate, so nothing after its check can run
    trace = run_pipeline(EDGE5)
    bad = trace._replace(certificate=trace.certificate._replace(u=(5,)))
    assert audit_pipeline(bad) == ["match_l, u and v have 2, 1, 2 entries, not 2"]


def test_audit_reports_a_cycle_vertex_outside_the_instance():
    trace = run_pipeline(ONE_CYCLE14)
    cycle = trace.components.odd_cycles[0]
    bad = _with_cycle(trace, cycle._replace(vertices=(14,) + cycle.vertices[1:]))
    assert audit_pipeline(bad) == [
        "stored components.odd_cycles[0].vertices[0] is 14; the certificate gives 0",
        "stored analyses[0].cycle.vertices[0] is 14; the certificate gives 0",
    ]


def test_audit_reports_an_over_matched_vertex():
    trace = run_pipeline(K3)
    bad = trace._replace(folded=trace.folded._replace(x2=(2, 1, 1)))
    assert audit_pipeline(bad) == ["stored folded.x2[0] is 2; the certificate gives 1"]


def test_audit_reports_a_lowered_cover():
    trace = run_pipeline(EDGE5)
    assert trace.folded.v2 == (5, 5)
    bad = trace._replace(folded=trace.folded._replace(v2=(4, 5)))
    assert audit_pipeline(bad) == ["stored folded.v2[0] is 4; the certificate gives 5"]


def test_audit_reports_a_negative_cover():
    # cover 3/2 + 3/2 meets the edge and sums to its weight 2, so the fold
    # of this cover alone looks optimal; vertex 2 would pay 1
    trace = run_pipeline(GameInstance(3, [(0, 1, 2)]))
    assert trace.folded.v2 == (2, 2, 0)
    c = (Fraction(3, 2), Fraction(3, 2), Fraction(-1))
    bad = trace._replace(folded=trace.folded._replace(v2=(3, 3, -2)),
                         result=trace.result._replace(c=c))
    assert audit_pipeline(bad) == [
        "stored folded.v2[0] is 3; the certificate gives 2",
        "stored result.c[0] is 3/2; the certificate gives 1",
    ]


PATH3 = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")


# each case id names the fault the case plants
@pytest.mark.parametrize("matching, expected", [
    pytest.param(((0, 1), (1, 2)), "stored result.matching has length 2; the certificate gives 1",
                 id="matching0-output edges are not a matching at (1, 2)"),
    pytest.param(((0, 2),), "stored result.matching[0][1] is 2; the certificate gives 1",
                 id="matching1-output edge (0, 2) not in the instance"),
])
def test_audit_reports_output_edges_that_do_not_fit(matching, expected):
    trace = run_pipeline(PATH3)
    bad = trace._replace(result=trace.result._replace(matching=matching))
    assert audit_pipeline(bad) == [expected]


def test_audit_reports_a_cycle_the_certificate_does_not_give():
    # a triangle through the non-edge (2, 0) that passes every identity
    # of `check_cycle` under the cover (0, 1, 0), with the payouts, the
    # factors and the matching that such a cycle would give
    trace = run_pipeline(PATH3)
    cycle = OddCycle((0, 1, 2), 1, (1, 1, 0), 2)
    assert check_cycle(cycle, (1, 0, 1), trace.folded.v2) == []
    analysis = analyze_cycle(cycle, trace.folded.v2)
    comps = trace.components._replace(odd_cycles=(cycle,), integral_edges=())
    third = Fraction(2, 3)
    result = trace.result._replace(c=(0, third, 0), matching=((1, 2),), factors=(third,) * 3,
                                   allocated=third, factor_guarantee=third)
    bad = trace._replace(components=comps, analyses=(analysis,), result=result)
    assert audit_pipeline(bad) == [
        "stored components.odd_cycles has length 1; the certificate gives 0",
        "stored components.integral_edges has length 0; the certificate gives 1",
        "stored analyses has length 1; the certificate gives 0",
        "stored result.c[1] is 2/3; the certificate gives 1",
        "stored result.matching[0][0] is 1; the certificate gives 0",
        "stored result.factors[0] is 2/3; the certificate gives 1",
        "stored result.allocated is 2/3; the certificate gives 1",
        "stored result.factor_guarantee is 2/3; the certificate gives 1",
    ]


def test_audit_reports_a_stored_value_of_another_shape():
    trace = run_pipeline(PATH3)
    res = trace.result
    bad = trace._replace(result=res._replace(c=list(res.c), matching_weight=(1,)))
    assert audit_pipeline(bad) == ["stored result.c is not a tuple",
                                   "stored result.matching_weight is a tuple"]


@pytest.mark.parametrize("matching, weight, expected", [
    (((0, 1), (1, 2)), 2, ["output edges are not a matching at (1, 2)"]),
    (((0, 2),), 1, ["output edge (0, 2) not in the instance",
                    "matching weight 1 != output edges' total 0"]),
    ((), 0, ["payouts exceed the backing matching weight"]),
])
def test_check_payout_reports_each_problem(matching, weight, expected):
    # the payouts (0, 1, 0) as numerators over the scale 2
    assert check_payout(PATH3, [0, 2, 0], 2, ((0, 1),), 1) == []
    assert check_payout(PATH3, [0, 2, 0], 2, matching, weight) == expected


def test_run_pipeline_raises_on_a_payout_problem(monkeypatch):
    def heavier(cycle, v2):
        analysis = analyze_cycle(cycle, v2)
        return analysis._replace(heaviest=analysis.heaviest._replace(weight=2))

    monkeypatch.setattr(mechanism, "analyze_cycle", heavier)
    with pytest.raises(InvariantViolation,
                       match=r"^matching weight 2 != output edges' total 1$"):
        run_pipeline(K3)


def test_audit_reports_a_lowered_dual():
    trace = run_pipeline(COMPLETE12)
    u = list(trace.certificate.u)
    u[0] -= 1
    bad = trace._replace(certificate=trace.certificate._replace(u=tuple(u)))
    problems = audit_pipeline(bad)
    assert problems[0].startswith("dual infeasible on edge (0, ")
    assert problems[0].endswith("short by 1")


def test_audit_reports_a_swapped_matched_pair():
    trace = run_pipeline(COMPLETE12)
    match_l = list(trace.certificate.match_l)
    assert match_l[:2] == [1, 0]
    match_l[0], match_l[1] = match_l[1], match_l[0]
    bad = trace._replace(certificate=trace.certificate._replace(match_l=tuple(match_l)))
    problems = audit_pipeline(bad)
    assert "left copy 0 matched to right copy 0: not a doubled edge" in problems
    assert "left copy 1 matched to right copy 1: not a doubled edge" in problems


def test_audit_reports_a_changed_cycle_weight():
    trace = run_pipeline(ONE_CYCLE14)
    cycle = trace.components.odd_cycles[0]
    assert cycle.weights[0] == 9 and cycle.w_C == 65
    bad = _with_cycle(trace, cycle._replace(weights=(10,) + cycle.weights[1:]))
    assert audit_pipeline(bad) == [
        "stored components.odd_cycles[0].weights[0] is 10; the certificate gives 9",
        "stored analyses[0].cycle.weights[0] is 10; the certificate gives 9",
    ]


def test_audit_reports_a_raised_matching_weight():
    trace = run_pipeline(ONE_CYCLE14)
    (analysis,) = trace.analyses
    weights = (analysis.matching_weights[0] + 1,) + analysis.matching_weights[1:]
    bad = trace._replace(analyses=(analysis._replace(matching_weights=weights),))
    assert audit_pipeline(bad) == [
        "stored analyses[0].matching_weights[0] is 28; the certificate gives 27"]


def test_audit_reports_analyses_of_other_cycles():
    trace = run_pipeline(ONE_CYCLE14)
    bad = trace._replace(components=trace.components._replace(odd_cycles=()))
    assert audit_pipeline(bad) == [
        "stored components.odd_cycles has length 0; the certificate gives 1"]


@pytest.mark.parametrize("integral_edges", [(), (0, 1, 2)])
def test_audit_reports_tampered_integral_edges(integral_edges):
    trace = run_pipeline(ONE_CYCLE14)
    assert trace.components.integral_edges == (19,)
    bad = trace._replace(components=trace.components._replace(integral_edges=integral_edges))
    assert audit_pipeline(bad) == [f"stored components.integral_edges has length "
                                   f"{len(integral_edges)}; the certificate gives 1"]


def test_cycle_identities_random():
    for g in rand_instances():
        trace = run_pipeline(g)
        v = [Fraction(x, 2) for x in trace.folded.v2]
        weight = {}
        for (a, b, w) in g.edges:
            weight[a, b] = weight[b, a] = w
        for analysis in trace.analyses:
            cyc = analysis.cycle
            k = cyc.k
            v_C = sum(v[i] for i in cyc.vertices)
            assert cyc.w_C == 2 * v_C
            assert sum(analysis.matching_weights) == 2 * k * v_C
            assert (2 * k + 1) * analysis.heaviest.weight >= 2 * k * v_C
            for j, mw in enumerate(analysis.matching_weights):
                assert v[cyc.vertices[j]] == v_C - mw
                edges = alternating_matching(cyc.vertices, j)
                assert mw == sum(weight[e] for e in edges)
                if cyc.vertices[j] == analysis.heaviest.removed_vertex:
                    assert analysis.heaviest.edges == edges
                    assert analysis.heaviest.weight == mw


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


def random_cycle(rng, length, draw):
    """An odd cycle on scattered vertex ids and a v2 that satisfies its
    identities, v2[vertices[j]] = w_C - 2 w(M_j), with w(M_j) summed
    edge by edge."""
    verts = tuple(rng.sample(range(3 * length), length))
    weights = tuple(draw() for _ in range(length))
    w_C = sum(weights)
    v2 = [0] * (3 * length)
    for j in range(length):
        mw = sum(weights[(j + 1 + 2 * t) % length] for t in range(length // 2))
        v2[verts[j]] = w_C - 2 * mw
    return OddCycle(verts, length // 2, weights, w_C), v2


CYCLE_WEIGHTS = {
    "0-2": lambda rng: rng.randint(0, 2),
    "1-100": lambda rng: rng.randint(1, 100),
    "2^63": lambda rng: 2 ** 63 + rng.randint(0, 3),
}


def assert_matches_reference(rng, length, draw):
    cycle, v2 = random_cycle(rng, length, draw)
    ref = reference_analyze_cycle(cycle, v2)
    got = analyze_cycle(cycle, v2)
    assert got.cycle == cycle
    assert got.matching_weights == tuple(m.weight for m in ref.matchings)
    assert got.heaviest == ref.matchings[ref.heaviest_index]
    assert got.heaviest.weight == ref.heaviest_weight

    # one vertex's cover moved by 2 either way: both name that vertex
    j = rng.randrange(length)
    for delta in (2, -2):
        bad = list(v2)
        bad[cycle.vertices[j]] += delta
        with pytest.raises(InvariantViolation) as want:
            reference_analyze_cycle(cycle, bad)
        with pytest.raises(InvariantViolation) as err:
            analyze_cycle(cycle, bad)
        assert str(err.value) == str(want.value)
        assert f"at vertex {cycle.vertices[j]}:" in str(err.value)


@pytest.mark.parametrize("kind", sorted(CYCLE_WEIGHTS))
def test_analyze_cycle_matches_reference(kind):
    rng = random.Random(f"analyze_cycle {kind}")
    for length in [3, 5, 601] + [2 * rng.randint(1, 300) + 1 for _ in range(12)]:
        assert_matches_reference(rng, length, lambda: CYCLE_WEIGHTS[kind](rng))


def test_analyze_cycle_1001_matches_reference():
    rng = random.Random("analyze_cycle 1001")
    assert_matches_reference(rng, 1001, lambda: CYCLE_WEIGHTS["0-2"](rng))
    assert_matches_reference(rng, 1001, lambda: CYCLE_WEIGHTS["2^63"](rng))
