"""Doubling transform and the certified bipartite solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcore import _hungarian_py
from matchcore.bipartite import (
    PrimalDualCertificate,
    check_certificate,
    double_graph,
    solve_bipartite,
)
from matchcore.errors import InvariantViolation
from matchcore.instances import (
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
)

from oracles import (
    bipartite_max_weight_dp,
    components,
    doubled_edges,
    reference_max_weight_bipartite,
)

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
PATH3 = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")
EMPTY = GameInstance(0, ())


def doubled_triples(d):
    """(left id, right id, weight) of every doubled edge in the CSR,
    right ids shifted into the doubled id space n..2n-1."""
    n = d.original.vertex_count
    return [(i, n + d.rights[t], d.weights[t])
            for i in range(n) for t in range(d.heads[i], d.heads[i + 1])]


def doubled_pairs(d):
    return [(a, b) for (a, b, _) in doubled_triples(d)]


def matched_weight(g, cert):
    """Half-unit weight of the certificate's matching, from the instance."""
    return sum(w for (i, j, w) in doubled_edges(g.edges) if cert.match_l[i] == j)


def test_double_counts():
    d = double_graph(K3)
    assert len(d.heads) == 4
    assert len(doubled_triples(d)) == 6
    assert all(a < 3 <= b for (a, b, _) in doubled_triples(d))
    assert all(w == 1 for (_, _, w) in doubled_triples(d))


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
        comps = components(2 * g.vertex_count, doubled_pairs(d))
        assert len(comps) == 1
        assert len(comps[0]) == 2 * (2 * k + 1)


def test_double_bipartite_gives_two_copies():
    g = gen_random(6, Fraction(1), 1, seed=0, bipartite=True)  # K_{3,3}
    d = double_graph(g)
    comps = components(2 * g.vertex_count, doubled_pairs(d))
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [6, 6]


def test_double_single_edge():
    d = double_graph(EDGE5)
    assert (d.heads, d.rights, d.weights) == ([0, 1, 2], [1, 0], [5, 5])
    assert set(doubled_triples(d)) == {(0, 3, 5), (1, 2, 5)}


@pytest.mark.parametrize("n", [2, 5, 12, 40])
def test_double_rows_ascending_whatever_the_edge_order(n):
    # row i holds i's positive-weight neighbours in ascending order,
    # built here one row at a time, from edges given shuffled and with
    # endpoints in either order
    rng = random.Random(n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(2):
                a, b = (v, u) if rng.randrange(2) else (u, v)
                edges.append((a, b, rng.choice([0, 1, 7])))
    rng.shuffle(edges)
    g = GameInstance(n, edges)
    rows = [sorted((b, w) for (a, b, w) in doubled_edges(g.edges) if a == i and w > 0)
            for i in range(n)]
    d = double_graph(g)
    assert d.heads == [sum(len(r) for r in rows[:i]) for i in range(n + 1)]
    assert (d.rights, d.weights) == tuple(
        [x[col] for row in rows for x in row] for col in (0, 1))


def test_double_empty():
    d = double_graph(EMPTY)
    assert (d.heads, d.rights, d.weights) == ([0], [], [])


def test_solve_doubled_k3():
    d = double_graph(K3)
    cert = solve_bipartite(d)
    # stored half-units: 3 here means a true fractional optimum of 3/2
    assert matched_weight(K3, cert) == 3
    assert cert.total_dual() == 3
    assert check_certificate(K3, cert) == []


def test_solve_doubled_single_edge():
    d = double_graph(EDGE5)
    cert = solve_bipartite(d)
    assert matched_weight(EDGE5, cert) == 10
    assert cert.match_l == (1, 0)
    assert cert.total_dual() == 10


def test_solve_empty():
    d = double_graph(EMPTY)
    cert = solve_bipartite(d)
    assert cert.match_l == cert.u == cert.v == ()


def test_solve_zero_weights_only():
    g = GameInstance(3, ((0, 1, 0), (1, 2, 0)))
    d = double_graph(g)
    assert d.rights == []  # zero-weight edges never reach the kernel
    cert = solve_bipartite(d)
    assert cert.match_l == (-1,) * 3
    assert cert.u == cert.v == (0,) * 3
    assert check_certificate(g, cert) == []


def test_certificate_tampering_detected():
    d = double_graph(K3)
    cert = solve_bipartite(d)
    u = list(cert.u)
    lowered = next(x for x in range(3) if u[x] > 0)
    u[lowered] -= 1
    bad = PrimalDualCertificate(cert.match_l, tuple(u), cert.v)
    msgs = " / ".join(check_certificate(K3, bad))
    assert "infeasible" in msgs or "not tight" in msgs
    # raising a matched dual keeps feasibility but loses tightness
    raised = PrimalDualCertificate(cert.match_l, (cert.u[0] + 1,) + cert.u[1:], cert.v)
    assert any("not tight" in m for m in check_certificate(K3, raised))


def test_certificate_unmatched_positive_dual_detected():
    d = double_graph(EDGE5)
    cert = solve_bipartite(d)
    bad = PrimalDualCertificate((-1, -1), cert.u, cert.v)
    msgs = check_certificate(EDGE5, bad)
    assert any("positive dual" in m for m in msgs)


def test_solve_rejects_a_broken_kernel_certificate(monkeypatch):
    kernel = _hungarian_py.solve_max_weight_bipartite

    def lowered_dual(*args):
        match_l, match_r, u, v = kernel(*args)
        u[0] -= 1
        return match_l, match_r, u, v

    monkeypatch.setattr(_hungarian_py, "solve_max_weight_bipartite", lowered_dual)
    with pytest.raises(InvariantViolation,
                       match=r"^solver produced an invalid certificate: dual infeasible"):
        solve_bipartite(double_graph(EDGE5))


def test_certificate_non_matching_detected():
    # two left copies on one right copy: 0' and 1' both on 2'' (id 5)
    d = double_graph(K3)
    bad = PrimalDualCertificate((2, 2, -1), (0,) * 3, (0,) * 3)
    msgs = " ".join(check_certificate(K3, bad))
    assert "vertex 5 is matched 2 times" in msgs


@pytest.mark.parametrize("match_l, u, v, expected", [
    # (0', 2'') is not a copy of an edge of the path 1-2-3
    ((2, -1, -1), (0, 1, 0), (0, 0, 0), "not a doubled edge"),
    ((3, -1, -1), (0, 1, 0), (0, 0, 0), "right copy 3: not a doubled edge"),
    ((-2, -1, -1), (0, 1, 0), (0, 0, 0), "right copy -2: not a doubled edge"),
    ((-1, -1), (0, 1, 0), (0, 0, 0), "have 2, 3, 3 entries, not 3"),
    ((-1, -1, -1), (0, 1), (0, 0, 0), "have 3, 2, 3 entries"),
    ((-1, -1, -1), (0, 1, 0), (0, 0, 0, 0), "have 3, 3, 4 entries"),
    ((-1, -1, -1), (0, 1, 0), (0, 0, -1), "negative dual at vertex 5"),
])
def test_certificate_rejects_malformed_arrays(match_l, u, v, expected):
    msgs = check_certificate(PATH3, PrimalDualCertificate(match_l, u, v))
    assert any(expected in m for m in msgs), msgs


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
        assert check_certificate(g, cert) == []
        n = g.vertex_count
        oracle = bipartite_max_weight_dp(n, n, doubled_edges(g.edges))
        assert matched_weight(g, cert) == oracle


def test_solver_certificates_on_larger_randoms():
    for g in rand_instances():
        d = double_graph(g)
        cert = solve_bipartite(d)
        assert check_certificate(g, cert) == []
        assert all(isinstance(x, int) for x in cert.u + cert.v)


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
        d = double_graph(g)
        got = _hungarian_py.solve_max_weight_bipartite(n, n, d.heads, d.rights, d.weights)
        assert got == reference_max_weight_bipartite(
            n, n, d.heads, d.rights, d.weights), g.name


def test_huge_weights_solved_exactly():
    w = 1 << 80
    g = GameInstance(2, ((0, 1, w),))
    cert = solve_bipartite(double_graph(g))
    assert matched_weight(g, cert) == 2 * w


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
    assert check_certificate(g, cert) == []
    oracle = bipartite_max_weight_dp(n, n, doubled_edges(g.edges))
    assert matched_weight(g, cert) == oracle


def csr_certificate_problems(nl, nr, heads, rights, weights, out):
    """Check the kernel's contract on its own CSR input, sharing no code
    with `check_certificate`: nonnegative duals, u[i] + v[j] >= w on every
    CSR entry with equality on matched ones, zero dual on unmatched
    vertices, `match_l`/`match_r` mirror each other over CSR entries, and
    the matched weight equals the dual total."""
    match_l, match_r, u, v = out
    if (len(match_l), len(u), len(match_r), len(v)) != (nl, nl, nr, nr):
        return ["array lengths differ from nl/nr"]
    problems = []
    entry = {}
    for i in range(nl):
        for t in range(heads[i], heads[i + 1]):
            j, w = rights[t], weights[t]
            entry[i, j] = w
            if u[i] + v[j] < w:
                problems.append(f"infeasible on ({i}, {j})")
    if min(u + v, default=0) < 0:
        problems.append("negative dual")
    matched = 0
    for i, j in enumerate(match_l):
        if j == -1:
            if u[i] != 0:
                problems.append(f"unmatched left {i} has dual {u[i]}")
        elif (i, j) not in entry or match_r[j] != i:
            problems.append(f"left {i} matched to {j} inconsistently")
        elif u[i] + v[j] != entry[i, j]:
            problems.append(f"matched ({i}, {j}) not tight")
        else:
            matched += entry[i, j]
    for j, i in enumerate(match_r):
        if i == -1:
            if v[j] != 0:
                problems.append(f"unmatched right {j} has dual {v[j]}")
        elif not 0 <= i < nl or match_l[i] != j:
            problems.append(f"right {j} matched to {i} inconsistently")
    if matched != sum(u) + sum(v):
        problems.append(f"matched weight {matched} != dual total {sum(u) + sum(v)}")
    return problems


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_contract_on_raw_csr(data):
    # a general CSR graph, not a doubled one: unequal sides, so at least
    # |nl - nr| vertices end unmatched at dual zero
    nl = data.draw(st.integers(0, 8))
    nr = data.draw(st.integers(0, 8).filter(lambda x: x != nl))
    weight = data.draw(st.sampled_from([
        st.integers(1, 12), st.integers(1, 2), st.integers(1 << 63, (1 << 63) + 8)]))
    heads, rights, weights = [0], [], []
    for _ in range(nl):
        row = sorted(data.draw(st.sets(st.integers(0, nr - 1), max_size=nr))) if nr else []
        rights += row
        weights += [data.draw(weight) for _ in row]
        heads.append(len(rights))
    out = _hungarian_py.solve_max_weight_bipartite(nl, nr, heads, rights, weights)
    assert csr_certificate_problems(nl, nr, heads, rights, weights, out) == []
    if nr <= 6:
        # the dual total, equal to the matched weight as checked above
        triples = [(i, rights[t], weights[t])
                   for i in range(nl) for t in range(heads[i], heads[i + 1])]
        assert sum(out[2]) + sum(out[3]) == bipartite_max_weight_dp(nl, nr, triples)
