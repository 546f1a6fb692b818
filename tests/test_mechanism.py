"""Scaled-cover mechanism: cycle analyses, factors, payouts."""

import collections
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcore import mechanism
from matchcore.errors import InvariantViolation
from matchcore.halfint import OddCycle, decompose_components, fold_solution
from matchcore.instances import GameInstance, gen_gap_family, gen_odd_cycle, gen_random, parse_instance
from matchcore.mechanism import (
    analyze_cycle,
    audit_pipeline,
    check_payout,
    run_mechanism,
    run_pipeline,
)

from oracles import alternating_matching, max_matching_by_edge_subsets, reference_analyze_cycle

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
TRI211 = parse_instance("p mg 3 3\ne 1 2 2\ne 1 3 1\ne 2 3 1\n")


def derive(trace):
    """The fold and the odd cycles of a run, derived from its certificate
    with the live run's stages: a trace keeps neither."""
    folded = fold_solution(trace.certificate)
    return folded, decompose_components(folded).odd_cycles


def assert_identities(cycle, v2, weights):
    """The identities hold on `cycle` under v2 with w(M_j) = weights[j]:
    `analyze_cycle` accepts v2, and a cover moved by 2 at any vertex
    makes it name that vertex with its weight."""
    analyze_cycle(cycle, v2)
    w_C = sum(cycle.weights)
    for i, weight in zip(cycle.vertices, weights):
        bad = list(v2)
        bad[i] += 2
        with pytest.raises(InvariantViolation) as err:
            analyze_cycle(cycle, bad)
        assert str(err.value) == f"cycle cover at vertex {i}: 2v = {bad[i]} != {w_C} - 2*{weight}"


def test_k3_analysis():
    folded, cycles = derive(run_pipeline(K3))
    assert len(cycles) == 1
    assert_identities(cycles[0], folded.v2, (1, 1, 1))
    heaviest = analyze_cycle(cycles[0], folded.v2)
    assert len(heaviest.edges) == 1
    assert heaviest.weight == 1
    # ties break to the smallest removed vertex id
    assert heaviest.removed_vertex == 0


def test_c5_analysis():
    folded, (cycle,) = derive(run_pipeline(gen_odd_cycle(2)))
    assert_identities(cycle, folded.v2, (2, 2, 2, 2, 2))
    heaviest = analyze_cycle(cycle, folded.v2)
    assert len(heaviest.edges) == 2
    assert heaviest.weight == 2
    # 5 * w(M') >= 4 * v_C = 2 * w_C holds with equality here
    assert 5 * heaviest.weight == 2 * sum(cycle.weights)


def test_uneven_triangle_analysis_by_hand():
    # cover (1, 1, 0) on the triangle with weights (2, 1, 1)
    cycle = OddCycle((0, 1, 2), (2, 1, 1))
    assert_identities(cycle, (2, 2, 0), (1, 1, 2))
    heaviest = analyze_cycle(cycle, (2, 2, 0))
    assert heaviest.weight == 2
    assert heaviest.removed_vertex == 2
    assert heaviest.edges == ((0, 1),)


def test_uneven_triangle_full_pipeline():
    # this instance also has an integral optimum; the solver's
    # deterministic choice is the half cycle, and the payout it induces
    # is a valid 2/3-approximate one either way
    trace = run_pipeline(TRI211)
    folded, cycles = derive(trace)
    assert folded.v2 == (2, 2, 0) and len(cycles) == 1
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
    cycle = OddCycle((4, 2, 3), (1, 1, 1))
    ref = reference_analyze_cycle(cycle, v2)
    assert tuple(m.weight for m in ref.matchings) == (1, 1, 1)
    heaviest = analyze_cycle(cycle, v2)
    assert heaviest == ref.matchings[ref.heaviest_index]
    assert heaviest.removed_vertex == 2
    assert heaviest.edges == ((3, 4),)
    # weights 1, 3, 3: the tie between removing 2 and 3 goes to 2
    v2[4], v2[2], v2[3] = 5, 1, 1
    cycle = OddCycle((4, 2, 3), (3, 1, 3))
    ref = reference_analyze_cycle(cycle, v2)
    assert tuple(m.weight for m in ref.matchings) == (1, 3, 3)
    heaviest = analyze_cycle(cycle, v2)
    assert heaviest == ref.matchings[ref.heaviest_index]
    assert heaviest.removed_vertex == 2
    assert heaviest.edges == ((3, 4),)
    assert heaviest.weight == 3


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


def test_analyze_cycle_names_each_identity():
    # the triangle of K3: each matching weighs 1, so each 2v is 3 - 2*1
    cycle = OddCycle((0, 1, 2), (1, 1, 1))
    assert analyze_cycle(cycle, (1, 1, 1)).weight == 1
    # every vertex fails: the first vertex is named
    assert same_fault(cycle, (3, 3, 3)) == "cycle cover at vertex 0: 2v = 3 != 3 - 2*1"
    # the uneven triangle (w_C = 4, cover (2, 2, 0)) under (0, 2, 2): 0 and 2 fail, 0 is named
    cycle = OddCycle((0, 1, 2), (2, 1, 1))
    assert same_fault(cycle, (0, 2, 2)) == "cycle cover at vertex 0: 2v = 0 != 4 - 2*1"
    # a walk of even length, or with a weight missing, is no odd cycle
    with pytest.raises(ValueError, match=r"^not an odd cycle: 4 vertices and 4 weights$"):
        analyze_cycle(OddCycle((0, 1, 2, 3), (1, 1, 1, 1)), (2, 2, 2, 2))
    with pytest.raises(ValueError, match=r"^not an odd cycle: 3 vertices and 2 weights$"):
        analyze_cycle(OddCycle((0, 1, 2), (1, 1)), (1, 1, 1))
    # a 5-cycle walked 4, 2, 3, 0, 1, each matching weighing 2 under
    # 2v = 1 everywhere: covers moved at j = 1 and j = 2, which the pass
    # meets second and first, name the vertex at j = 1 of the walk
    cycle = OddCycle((4, 2, 3, 0, 1), (1, 1, 1, 1, 1))
    assert analyze_cycle(cycle, (1,) * 5).weight == 2
    assert same_fault(cycle, (1, 1, 3, -1, 1)) == "cycle cover at vertex 2: 2v = 3 != 5 - 2*2"


COMPLETE12 = gen_random(12, 1, 9, seed=3)


def test_audit_stops_at_a_short_certificate():
    # the fold reads the certificate, so nothing after its check can run
    trace = run_pipeline(EDGE5)
    bad = trace._replace(certificate=trace.certificate._replace(u=(5,)))
    assert audit_pipeline(bad) == ["match_l, u and v have 2, 1, 2 entries, not 2"]


def test_audit_reports_a_negative_cover():
    # the payouts of the cover (3/2, 3/2, -1): it meets the edge and sums
    # to its weight 2, so it looks optimal; vertex 2 would pay 1
    trace = run_pipeline(GameInstance(3, [(0, 1, 2)]))
    assert derive(trace)[0].v2 == (2, 2, 0)
    c = (Fraction(3, 2), Fraction(3, 2), Fraction(-1))
    bad = trace._replace(result=trace.result._replace(c=c))
    assert audit_pipeline(bad) == ["stored result.c[0] is 3/2; the certificate gives 1"]


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
    # of `analyze_cycle` under the cover (0, 1, 0), with the payouts, the
    # factors and the matching that such a cycle would give
    trace = run_pipeline(PATH3)
    v2 = derive(trace)[0].v2
    cycle = OddCycle((0, 1, 2), (1, 1, 0))
    assert_identities(cycle, v2, (1, 0, 1))
    assert analyze_cycle(cycle, v2).edges == ((1, 2),)
    third = Fraction(2, 3)
    result = trace.result._replace(c=(0, third, 0), matching=((1, 2),), factors=(third,) * 3,
                                   allocated=third, factor_guarantee=third)
    bad = trace._replace(result=result)
    assert audit_pipeline(bad) == [
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


# each case stores a result equal in value to the derived one, which the
# audit compares with ==, whatever the stored value's type
@pytest.mark.parametrize("stored", [
    pytest.param(lambda res: res._replace(c=(res.c[0], 1, res.c[2])), id="a payout as an int"),
    pytest.param(lambda res: res._replace(c=(res.c[0], 1.0, res.c[2])), id="a payout as a float"),
    pytest.param(lambda res: res._replace(c=(res.c[0], True, res.c[2])), id="a payout as True"),
    pytest.param(lambda res: res._replace(allocated=1.0), id="a total as a float"),
    pytest.param(tuple, id="a plain tuple for the record"),
])
def test_audit_accepts_a_result_equal_in_value(stored):
    trace = run_pipeline(PATH3)
    assert trace.result.c == (0, 1, 0)
    assert audit_pipeline(trace._replace(result=stored(trace.result))) == []


def test_audit_reports_a_factor_changed_alone():
    # every payout is left as it is
    trace = run_pipeline(gen_odd_cycle(1))
    res = trace.result
    bad = trace._replace(result=res._replace(factors=(res.factors[0], Fraction(1), res.factors[2])))
    assert audit_pipeline(bad) == ["stored result.factors[1] is 1; the certificate gives 2/3"]


@pytest.mark.parametrize("connected", [False, True])
def test_fractions_built_once_per_distinct_value(monkeypatch, connected):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    g = gen_gap_family(4, connected=connected)
    mechanism._fraction.cache_clear()  # else the memo may hold every value already
    monkeypatch.setattr(Fraction, "__new__", counted)
    trace = run_pipeline(g)
    res = trace.result
    # one per distinct payout and factor, plus the three totals
    assert len(built) <= len(set(res.c)) + len(set(res.factors)) + 3 == 5
    built.clear()
    assert audit_pipeline(trace) == []
    assert built == []


RND9 = gen_random(9, Fraction(1, 2), 7, seed=5)  # a 5-cycle and 7 distinct payouts


def derived_result(trace):
    """The result the audit derives from the trace's certificate."""
    folded = fold_solution(trace.certificate)
    return mechanism._assemble(folded, decompose_components(folded))


def values(res):
    return (*res.c, *res.factors, res.worth_fractional, res.allocated, res.factor_guarantee)


@pytest.mark.parametrize("g", [K3, gen_gap_family(3, connected=True), COMPLETE12, RND9],
                         ids=["K3", "gap_3c", "complete12", "rnd_9"])
def test_assembly_asks_the_memo_once_per_distinct_value(monkeypatch, g):
    calls = []
    memo = mechanism._fraction
    monkeypatch.setattr(mechanism, "_fraction", lambda *args: calls.append(args) or memo(*args))
    res = run_pipeline(g).result
    # one per distinct payout and factor, plus the three totals
    assert len(calls) == len(set(res.c)) + len(set(res.factors)) + 3


@pytest.mark.parametrize("g", [K3, gen_gap_family(3, connected=True), COMPLETE12, RND9],
                         ids=["K3", "gap_3c", "complete12", "rnd_9"])
def test_audit_derives_the_stored_objects(g):
    # so the audit's == matches each value by identity, with no Fraction.__eq__
    trace = run_pipeline(g)
    assert all(map(operator.is_, values(trace.result), values(derived_result(trace))))


def stored_results(res):
    """Results a caller could store in place of `res`: the record as a
    tuple or a list; each field, or the first entry of a tuple field, as
    equal values of other types and as changed values; and each tuple
    field as a list, shorter and longer."""
    def others(x):
        if type(x) is tuple:  # an edge
            return [list(x), (x[0] + 1, x[1])]
        return [float(x), Fraction(x), x + 1, (x,), *([int(x), x == 1] if x in (0, 1) else [])]

    yield tuple(res)
    yield list(res)
    for field, value in zip(res._fields, res):
        if type(value) is tuple:
            variants = [list(value), value[:-1], value + value[:1]]
            variants += [(x,) + value[1:] for x in others(value[0])]
        else:
            variants = others(value)
        for other in variants:
            yield res._replace(**{field: other})


@pytest.mark.parametrize("g", [PATH3, K3, gen_odd_cycle(2), gen_gap_family(2, connected=True), RND9],
                         ids=["path3", "K3", "C5", "gap_2c", "rnd_9"])
def test_audit_verdicts_do_not_depend_on_the_memo(g):
    # warm: the memo holds the stored objects; cold: it was cleared after
    # the run, so the derived values are other objects, compared by value
    trace = run_pipeline(g)
    cases = [trace._replace(result=stored) for stored in stored_results(trace.result)]
    warm = [audit_pipeline(case) for case in cases]
    mechanism._fraction.cache_clear()
    assert not any(map(operator.is_, values(trace.result), values(derived_result(trace))))
    assert audit_pipeline(trace) == []
    assert [audit_pipeline(case) for case in cases] == warm
    assert [] in warm and any(warm)


def test_json_of_a_result_built_from_generators():
    # each value is freed after its turn, so a later one may reuse its id()
    res = run_mechanism(K3)._replace(c=(Fraction(i, 7) for i in range(40)),
                                     factors=(Fraction(1, i) for i in range(1, 41)))
    out = res.to_json_dict()
    assert out["values"] == [str(Fraction(i, 7)) for i in range(40)]
    assert out["factors"] == [str(Fraction(1, i)) for i in range(1, 41)]


@pytest.mark.parametrize("matching, weight, expected", [
    (((0, 1), (0, 1)), 2, ["output edges are not a matching at (0, 1)"]),
    (((0, 2),), 1, ["output edge (0, 2) is not a matched pair of the certificate",
                    "matching weight 1 != output edges' total 0"]),
    ((), 0, ["payouts exceed the backing matching weight"]),
    # an instance edge, but no matched pair: x is 0 on it
    (((1, 2),), 1, ["output edge (1, 2) is not a matched pair of the certificate",
                    "matching weight 1 != output edges' total 0"]),
])
def test_check_payout_reports_each_problem(matching, weight, expected):
    # PATH3's fold: the mutual pair (0, 1) and the payouts (0, 1, 0) as
    # numerators over the scale 2
    folded = derive(run_pipeline(PATH3))[0]
    assert folded.match == (1, 0, -1)
    assert check_payout(folded, [0, 2, 0], 2, ((0, 1),), 1) == []
    assert check_payout(folded, [0, 2, 0], 2, matching, weight) == expected


@pytest.mark.parametrize("g", [gen_gap_family(5), gen_odd_cycle(50)], ids=["gap5", "cycle101"])
def test_the_timed_stages_run_through_their_module_call_sites(monkeypatch, g):
    # the benchmark times the decomposition and the cycle analyses by
    # wrapping these two names of `mechanism`; an inlined or renamed call
    # would leave their layers at 0 s without any failure
    calls = collections.Counter()

    def count(name):
        stage = getattr(mechanism, name)

        def counted(*args):
            calls[name] += 1
            return stage(*args)

        monkeypatch.setattr(mechanism, name, counted)

    count("decompose_components")
    count("analyze_cycle")
    trace = run_pipeline(g)
    cycles = len(derive(trace)[1])
    assert cycles > 0
    assert calls == {"decompose_components": 1, "analyze_cycle": cycles}
    # the audit analyses every cycle again; its decomposition is not timed
    assert audit_pipeline(trace) == []
    assert calls == {"decompose_components": 1, "analyze_cycle": 2 * cycles}


def test_run_pipeline_raises_on_a_payout_problem(monkeypatch):
    def heavier(cycle, v2):
        return analyze_cycle(cycle, v2)._replace(weight=2)

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


def test_cycle_identities_random():
    for g in rand_instances():
        folded, cycles = derive(run_pipeline(g))
        v = [Fraction(x, 2) for x in folded.v2]
        weight = {}
        for (a, b, w) in g.edges:
            weight[a, b] = weight[b, a] = w
        for cyc in cycles:
            k = len(cyc.vertices) // 2
            v_C = sum(v[i] for i in cyc.vertices)
            assert sum(cyc.weights) == 2 * v_C
            matchings = [alternating_matching(cyc.vertices, j) for j in range(2 * k + 1)]
            matching_weights = [sum(weight[e] for e in edges) for edges in matchings]
            assert sum(matching_weights) == 2 * k * v_C
            for j, mw in enumerate(matching_weights):
                assert v[cyc.vertices[j]] == v_C - mw
            heaviest = analyze_cycle(cyc, folded.v2)
            assert (2 * k + 1) * heaviest.weight >= 2 * k * v_C
            j = cyc.vertices.index(heaviest.removed_vertex)
            assert heaviest.edges == matchings[j]
            assert heaviest.weight == matching_weights[j] == max(matching_weights)


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
    return OddCycle(verts, weights), v2


CYCLE_WEIGHTS = {
    "0-2": lambda rng: rng.randint(0, 2),
    "1-100": lambda rng: rng.randint(1, 100),
    "2^63": lambda rng: 2 ** 63 + rng.randint(0, 3),
}


def same_fault(cycle, v2) -> str:
    """The fault both analyses raise on v2, which must be one message."""
    with pytest.raises(InvariantViolation) as want:
        reference_analyze_cycle(cycle, v2)
    with pytest.raises(InvariantViolation) as err:
        analyze_cycle(cycle, v2)
    assert str(err.value) == str(want.value)
    return str(err.value)


def assert_matches_reference(rng, length, draw):
    cycle, v2 = random_cycle(rng, length, draw)
    ref = reference_analyze_cycle(cycle, v2)
    assert analyze_cycle(cycle, v2) == ref.matchings[ref.heaviest_index]
    verts = cycle.vertices

    # one vertex's cover moved by 2 either way: both name that vertex
    j = rng.randrange(length)
    for delta in (2, -2):
        bad = list(v2)
        bad[verts[j]] += delta
        assert f"at vertex {verts[j]}:" in same_fault(cycle, bad)

    # two covers moved, at an odd j and a later even one: the pass
    # j = 0, 2, 4, ... meets the even one first, the walk the odd one
    odd = rng.randrange(1, length - 1, 2)
    even = rng.randrange(odd + 1, length, 2)
    bad = list(v2)
    bad[verts[odd]] += 2
    bad[verts[even]] -= 2
    assert f"at vertex {verts[odd]}:" in same_fault(cycle, bad)


@pytest.mark.parametrize("kind", sorted(CYCLE_WEIGHTS))
def test_analyze_cycle_matches_reference(kind):
    rng = random.Random(f"analyze_cycle {kind}")
    for length in [3, 5, 601] + [2 * rng.randint(1, 300) + 1 for _ in range(12)]:
        assert_matches_reference(rng, length, lambda: CYCLE_WEIGHTS[kind](rng))


def test_analyze_cycle_1001_matches_reference():
    rng = random.Random("analyze_cycle 1001")
    assert_matches_reference(rng, 1001, lambda: CYCLE_WEIGHTS["0-2"](rng))
    assert_matches_reference(rng, 1001, lambda: CYCLE_WEIGHTS["2^63"](rng))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda k: st.lists(st.integers(0, 2 ** 62), min_size=2 * k + 1, max_size=2 * k + 1)))
def test_cycle_matchings_sum_to_k_times_the_cycle_weight(weights):
    # each edge lies in k of the 2k+1 matchings, so they sum to k * w_C
    # for any weights, the sum `analyze_cycle` does not test
    length, w_C = len(weights), sum(weights)
    verts = tuple(range(length))  # edge t runs from vertex t, and weighs weights[t]
    matching_weights = [sum(weights[a] for a, _ in alternating_matching(verts, j))
                        for j in range(length)]
    assert sum(matching_weights) == length // 2 * w_C
    # under the cover these weights give, the pass keeps the heaviest
    v2 = [w_C - 2 * mw for mw in matching_weights]
    assert analyze_cycle(OddCycle(verts, tuple(weights)), v2).weight == max(matching_weights)
