"""Doubling transform and the certified bipartite solver."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matchcore import _hungarian_py, bipartite
from matchcore.bipartite import (
    PrimalDualCertificate,
    check_certificate,
    double_graph,
    matched_weight,
    solve_bipartite,
)
from matchcore.instances import (
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
)

from oracles import bipartite_max_weight_dp, components, reference_max_weight_bipartite

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
EMPTY = GameInstance(0, ())


def doubled_pairs(d):
    return [(a, b) for (a, b, _) in d.edges]


def test_double_counts():
    d = double_graph(K3)
    assert d.vertex_count == 6
    assert len(d.edges) == 6
    assert all(a < 3 <= b for (a, b, _) in d.edges)
    assert all(w == 1 for (_, _, w) in d.edges)


def test_double_k3_is_six_cycle():
    d = double_graph(K3)
    comps = components(6, doubled_pairs(d))
    assert len(comps) == 1
    degree = [0] * 6
    for (a, b) in doubled_pairs(d):
        degree[a] += 1
        degree[b] += 1
    assert degree == [2] * 6


def test_double_odd_cycle_doubles_length():
    # a cycle of length 2k+1 becomes a single cycle of length 4k+2
    for k in (1, 2, 3):
        g = gen_odd_cycle(k)
        d = double_graph(g)
        comps = components(d.vertex_count, doubled_pairs(d))
        assert len(comps) == 1
        assert len(comps[0]) == 2 * (2 * k + 1)


def test_double_bipartite_gives_two_copies():
    g = gen_random(6, Fraction(1), 1, seed=0, bipartite=True)  # K_{3,3}
    d = double_graph(g)
    comps = components(d.vertex_count, doubled_pairs(d))
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [6, 6]


def test_double_single_edge():
    d = double_graph(EDGE5)
    assert set(d.edges) == {(0, 3, 5), (1, 2, 5)}


def test_double_empty():
    d = double_graph(EMPTY)
    assert d.edges == () and d.vertex_count == 0


def test_solve_doubled_k3():
    d = double_graph(K3)
    cert = solve_bipartite(d)
    # stored half-units: 3 here means a true fractional optimum of 3/2
    assert matched_weight(d, cert) == 3
    assert cert.total_dual() == 3
    assert check_certificate(d, cert) == []


def test_solve_doubled_single_edge():
    d = double_graph(EDGE5)
    cert = solve_bipartite(d)
    assert matched_weight(d, cert) == 10
    assert len(cert.matched_edges) == 2
    assert cert.total_dual() == 10


def test_solve_empty():
    d = double_graph(EMPTY)
    cert = solve_bipartite(d)
    assert cert.matched_edges == frozenset()
    assert cert.duals == ()


def test_solve_zero_weights_only():
    g = GameInstance(3, ((0, 1, 0), (1, 2, 0)))
    cert = solve_bipartite(double_graph(g))
    assert cert.matched_edges == frozenset()
    assert cert.duals == (0,) * 6


def test_certificate_tampering_detected():
    d = double_graph(K3)
    cert = solve_bipartite(d)
    duals = list(cert.duals)
    lowered = next(x for x in range(6) if duals[x] > 0)
    duals[lowered] -= 1
    bad = PrimalDualCertificate(cert.matched_edges, tuple(duals))
    msgs = " / ".join(check_certificate(d, bad))
    assert "infeasible" in msgs or "not tight" in msgs


def test_certificate_unmatched_positive_dual_detected():
    d = double_graph(EDGE5)
    cert = solve_bipartite(d)
    bad = PrimalDualCertificate(frozenset(), cert.duals)
    msgs = check_certificate(d, bad)
    assert any("positive dual" in m for m in msgs)


def test_certificate_non_matching_detected():
    d = double_graph(K3)
    bad = PrimalDualCertificate(frozenset({(0, 4), (0, 5)}), (0,) * 6)
    msgs = " ".join(check_certificate(d, bad))
    assert "matched 2 times" in msgs


def rand_instances():
    cases = []
    for seed in range(40):
        n = 1 + seed % 8
        p = Fraction(1 + seed % 4, 4)
        cases.append(gen_random(n, p, 1 + seed % 9, seed=seed))
        cases.append(gen_random(n, p, 7, seed=seed, bipartite=True))
    return cases


def test_solver_matches_bruteforce_dp():
    # oracle equivalence on every doubled graph with <= 16 doubled vertices
    for g in rand_instances():
        if g.vertex_count > 8:
            continue
        d = double_graph(g)
        cert = solve_bipartite(d)
        assert check_certificate(d, cert) == []
        n = g.vertex_count
        oracle = bipartite_max_weight_dp(
            n, n, [(a, b - n, w) for (a, b, w) in d.edges])
        assert matched_weight(d, cert) == oracle


def test_solver_certificates_on_larger_randoms():
    for g in rand_instances():
        d = double_graph(g)
        cert = solve_bipartite(d)
        assert check_certificate(d, cert) == []
        assert all(isinstance(x, int) for x in cert.duals)


def sparse_instance(n, degree, max_weight, seed):
    """Seeded graph with n*degree/2 distinct edges and weights 1..max_weight."""
    rng = random.Random(seed)
    chosen = {}
    while len(chosen) < n * degree // 2:
        a, b = rng.sample(range(n), 2)
        chosen.setdefault((min(a, b), max(a, b)), rng.randint(1, max_weight))
    return GameInstance(n, tuple((a, b, w) for (a, b), w in chosen.items()))


def parity_instances():
    cases = list(rand_instances())
    # weights 1..3: several vertices often turn tight in one dual step
    for seed in range(800):
        n = 4 + seed % 30
        cases.append(gen_random(n, Fraction(1 + seed % 3, 4), 1 + seed % 3, seed=seed))
    for seed in range(6):
        # low weights on sparse graphs: many ties between slacks
        g = sparse_instance(300 + 100 * seed, 3 + seed, 100, seed)
        cases.append(g)
        # the same graph in [2^63, 2^64), ties kept
        cases.append(GameInstance(g.vertex_count, tuple(
            (a, b, (1 << 63) + (w << 56)) for (a, b, w) in g.edges)))
    for k in range(1, 6):
        cases.append(gen_gap_family(k, connected=False))
        cases.append(gen_gap_family(k, connected=True))
    cases += [gen_odd_cycle(k) for k in range(1, 51)]
    return cases


def test_kernel_matches_reference_exactly():
    # same algorithm as the full-scan reference, so the same 4-tuple
    for g in parity_instances():
        n = g.vertex_count
        heads, rights, weights = bipartite._kernel_csr(n, double_graph(g).edges)
        got = _hungarian_py.solve_max_weight_bipartite(n, n, heads, rights, weights)
        assert got == reference_max_weight_bipartite(n, n, heads, rights, weights), g.name


def test_huge_weights_solved_exactly():
    w = 1 << 80
    g = GameInstance(2, ((0, 1, w),))
    d = double_graph(g)
    cert = solve_bipartite(d)
    assert matched_weight(d, cert) == 2 * w


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_property_random_graphs(data):
    n = data.draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # a general range, a tie-heavy one and one past 64-bit arithmetic
    weight = data.draw(st.sampled_from([
        st.integers(0, 12), st.integers(0, 2), st.integers(1 << 63, (1 << 63) + 4)]))
    edges = tuple((u, v, data.draw(weight)) for (u, v) in chosen)
    g = GameInstance(n, edges)
    d = double_graph(g)
    cert = solve_bipartite(d)
    assert check_certificate(d, cert) == []
    oracle = bipartite_max_weight_dp(n, n, [(a, b - n, w) for (a, b, w) in d.edges])
    assert matched_weight(d, cert) == oracle
