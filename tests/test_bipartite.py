"""Doubling transform and the certified bipartite solver."""

import copy
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
    """(left id, right id, weight) of every doubled edge in the rows,
    right ids shifted into the doubled id space n..2n-1."""
    n = d.original.vertex_count
    return [(i, n + j, w)
            for i in range(n) for j, w in zip(d.rights[i], d.weights[i])]


def csr(rights, weights):
    """The rows as `(heads, rights, weights)` CSR lists, the input of
    `reference_max_weight_bipartite`."""
    heads = [0]
    for row in rights:
        heads.append(heads[-1] + len(row))
    return heads, [j for row in rights for j in row], [w for row in weights for w in row]


def reference_on_id_rows(nr, rights, weights):
    """`reference_max_weight_bipartite` on the same rows with each row
    sorted by right id, the order that kernel was written for."""
    rows = [sorted(zip(r, w)) for r, w in zip(rights, weights)]
    return reference_max_weight_bipartite(
        len(rows), nr, *csr([[j for j, _ in row] for row in rows],
                            [[w for _, w in row] for row in rows]))


def doubled_pairs(d):
    return [(a, b) for (a, b, _) in doubled_triples(d)]


def matched_weight(g, cert):
    """Half-unit weight of the certificate's matching, from the instance."""
    return sum(w for (i, j, w) in doubled_edges(g.edges) if cert.match_l[i] == j)


def test_double_counts():
    d = double_graph(K3)
    assert len(d.rights) == len(d.weights) == 3
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
    assert (d.rights, d.weights) == ([[1], [0]], [[5], [5]])
    assert set(doubled_triples(d)) == {(0, 3, 5), (1, 2, 5)}


@pytest.mark.parametrize("n", [2, 5, 12, 40])
def test_double_rows_ascending_whatever_the_edge_order(n):
    # row i holds i's positive-weight neighbours by falling weight (the
    # name predates that order), the same (neighbour, weight) multiset
    # as the doubled edges leaving i', from edges given shuffled and
    # with endpoints in either order
    rng = random.Random(n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(2):
                a, b = (v, u) if rng.randrange(2) else (u, v)
                edges.append((a, b, rng.choice([0, 1, 7, 1 << 63])))
    rng.shuffle(edges)
    g = GameInstance(n, edges)
    d = double_graph(g)
    assert len(d.rights) == len(d.weights) == n
    for i in range(n):
        assert len(d.rights[i]) == len(d.weights[i])
        assert sorted(zip(d.rights[i], d.weights[i])) == sorted(
            (b, w) for (a, b, w) in doubled_edges(g.edges) if a == i and w > 0)
        assert d.weights[i] == sorted(d.weights[i], reverse=True)


def test_double_empty():
    d = double_graph(EMPTY)
    assert (d.rights, d.weights) == ([], [])


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
    assert d.rights == d.weights == [[]] * 3  # zero-weight edges never reach the kernel
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


@pytest.mark.parametrize("match_l, u, v, expected", [
    # both copies of the one edge of EDGE5 (weight 5) are infeasible
    ((-1, -1), (0, 0), (0, 0), [
        "dual infeasible on edge (0, 3): short by 5",
        "dual infeasible on edge (1, 2): short by 5"]),
    # (0', 1'') is infeasible and the matched (1', 0'') is not tight
    ((-1, 0), (1, 4), (2, 2), [
        "dual infeasible on edge (0, 3): short by 2",
        "matched edge (1, 2) is not tight: slack 1",
        "unmatched vertex 0 has positive dual 1",
        "unmatched vertex 3 has positive dual 2"]),
])
def test_certificate_reports_the_copy_i_j_before_j_i(match_l, u, v, expected):
    assert check_certificate(EDGE5, PrimalDualCertificate(match_l, u, v)) == expected


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
        got = _hungarian_py.solve_max_weight_bipartite(n, d.rights, d.weights)
        assert got == reference_on_id_rows(n, d.rights, d.weights), g.name


def test_kernel_matches_reference_on_long_rows():
    # rows of 21 to 72 entries; with weights 1..3 a row holds long runs
    # of equal weights, and a free vertex often turns tight in one of them
    for seed in range(6):
        g = gen_random(60 + 5 * seed, Fraction(2 + seed % 2, 4), 1 + seed % 3, seed=seed)
        n = g.vertex_count
        d = double_graph(g)
        got = _hungarian_py.solve_max_weight_bipartite(n, d.rights, d.weights)
        assert got == reference_on_id_rows(n, d.rights, d.weights)


def test_kernel_settles_a_vertex_that_joined_after_a_dual_step():
    # The star 1-2, 1-3, 1-4 of weights 2, 2, 3. In the stage of left copy
    # 3', D rises to 2 before right copy 0'' and its match 1' (dual 0)
    # join the tree; the next dual step stays at 2, where 1' reaches zero,
    # so the stage ends by dropping 1'. Settling moves 3' by 2 and the two
    # late vertices by nothing.
    g = parse_instance("p mg 4 3\ne 1 2 2\ne 1 3 2\ne 1 4 3\n")
    d = double_graph(g)
    got = _hungarian_py.solve_max_weight_bipartite(4, d.rights, d.weights)
    assert got == ([3, -1, -1, 0], [3, -1, -1, 0], [3, 0, 0, 1], [2, 0, 0, 0])
    assert got == reference_on_id_rows(4, d.rights, d.weights)


@pytest.mark.parametrize("edge", [
    lambda n, i: (i, i + 1, i + 1),
    lambda n, i: (i, i + 1, n - i),
    lambda n, i: (n - 2 - i, n - 1 - i, n - i),  # renumbered i -> n-1-i
], ids=["increasing", "decreasing", "decreasing-renumbered"])
def test_kernel_matches_reference_on_weighted_paths(edge):
    # the weighted paths of tools/kernel_paths.py: the longest chains of
    # dual steps and the deepest trees, so the most tree duals to settle,
    # each by the rise of D since its vertex joined
    n = 1000
    d = double_graph(GameInstance(n, tuple(edge(n, i) for i in range(n - 1))))
    got = _hungarian_py.solve_max_weight_bipartite(n, d.rights, d.weights)
    assert got == reference_on_id_rows(n, d.rights, d.weights)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_small_graphs(data):
    n = data.draw(st.integers(0, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # ties, then ties past 64-bit arithmetic
    weight = data.draw(st.sampled_from([
        st.integers(1, 3), st.integers(1 << 63, (1 << 63) + 4)]))
    d = double_graph(GameInstance(n, tuple((a, b, data.draw(weight)) for (a, b) in chosen)))
    # Every row's runs of equal weights permuted at random (a stable sort
    # of a random permutation; `double_graph`'s own order is one of them).
    # The kernel ends a stage at the least-id free tight vertex of a row
    # and queues the row's other tight vertices by id, so its 4-tuple
    # stays the reference's on id-ascending rows.
    rights, weights = [], []
    for row in zip(d.rights, d.weights):
        entries = sorted(data.draw(st.permutations(list(zip(*row)))),
                         key=lambda entry: entry[1], reverse=True)
        rights.append([j for j, _ in entries])
        weights.append([w for _, w in entries])
    got = _hungarian_py.solve_max_weight_bipartite(n, rights, weights)
    assert got == reference_on_id_rows(n, rights, weights)


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


def row_certificate_problems(nr, rights, weights, out):
    """Check the kernel's contract on its own rows, sharing no code with
    `check_certificate`: nonnegative duals, u[i] + v[j] >= w on every
    row entry with equality on matched ones, zero dual on unmatched
    vertices, `match_l`/`match_r` mirror each other over row entries, and
    the matched weight equals the dual total."""
    nl = len(rights)
    match_l, match_r, u, v = out
    if (len(match_l), len(u), len(match_r), len(v)) != (nl, nl, nr, nr):
        return ["array lengths differ from nl/nr"]
    problems = []
    entry = {}
    for i in range(nl):
        for j, w in zip(rights[i], weights[i]):
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
def test_kernel_contract_on_raw_rows(data):
    # a general graph, not a doubled one: unequal sides, so at least
    # |nl - nr| vertices end unmatched at dual zero
    nl = data.draw(st.integers(0, 8))
    nr = data.draw(st.integers(0, 8).filter(lambda x: x != nl))
    weight = data.draw(st.sampled_from([
        st.integers(1, 12), st.integers(1, 2), st.integers(1 << 63, (1 << 63) + 8)]))
    rights, weights = [], []
    for _ in range(nl):
        ids = sorted(data.draw(st.sets(st.integers(0, nr - 1), max_size=nr))) if nr else []
        # drawn by ascending id, then put in the kernel's order
        row = sorted(((j, data.draw(weight)) for j in ids),
                     key=lambda entry: entry[1], reverse=True)
        rights.append([j for j, _ in row])
        weights.append([w for _, w in row])
    rows = copy.deepcopy((rights, weights))
    out = _hungarian_py.solve_max_weight_bipartite(nr, rights, weights)
    assert (rights, weights) == rows  # read, never changed
    assert row_certificate_problems(nr, rights, weights, out) == []
    if nr <= 6:
        # the dual total, equal to the matched weight as checked above
        triples = [(i, j, w) for i in range(nl) for j, w in zip(rights[i], weights[i])]
        assert sum(out[2]) + sum(out[3]) == bipartite_max_weight_dp(nl, nr, triples)


@pytest.mark.parametrize("g", [
    gen_random(40, Fraction(1, 2), 3, seed=1),
    GameInstance(60, tuple((i, i + 1, 60 - i) for i in range(59))),
], ids=["dense", "decreasing-path"])
def test_kernel_leaves_its_rows_as_given(g):
    # a stage appends the right vertices it reaches to its own list, so
    # that list must not be the root's row
    d = double_graph(g)
    rows = copy.deepcopy((d.rights, d.weights))
    solve_bipartite(d)
    assert (d.rights, d.weights) == rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_duals_do_not_depend_on_the_numbering(data):
    # the duals are the u-greatest optimal point (see the kernel's
    # docstring), which names no vertex; so is the cover u + v
    n = data.draw(st.integers(1, 30))
    p = data.draw(st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1]))
    cap = data.draw(st.sampled_from([1, 2, 3, 10, 1000]))
    g = gen_random(n, p, cap, seed=data.draw(st.integers(0, 1 << 16)))
    perm = data.draw(st.permutations(range(n)))
    cert = solve_bipartite(double_graph(g))
    renumbered = solve_bipartite(double_graph(
        GameInstance(n, [(perm[a], perm[b], w) for (a, b, w) in g.edges])))
    for duals, moved in ((cert.u, renumbered.u), (cert.v, renumbered.v)):
        assert [moved[perm[i]] for i in range(n)] == list(duals)


def test_kernel_duals_are_u_greatest():
    # HiGHS maximises sum(u) over the optimal duals of the double, in
    # floats; that face of a bipartite dual polytope has integral
    # vertices, so its maximum is an integer and rounds exactly
    optimize = pytest.importorskip("scipy.optimize")
    for s in range(150):
        # n, p and the weight cap drawn from the seed; caps 1-3 give many ties
        rng = random.Random(s)
        n = rng.randint(3, 14)
        g = gen_random(n, Fraction(rng.randint(1, 9), 10), rng.choice([1, 2, 3, 10, 1000]), seed=s)
        cert = solve_bipartite(double_graph(g))
        rows, rhs = [], []
        for (i, j, w) in g.edges:
            for a, b in ((i, j), (j, i)):  # u_a + v_b >= w, as -u_a - v_b <= -w
                row = [0] * (2 * n)
                row[a] = row[n + b] = -1
                rows.append(row)
                rhs.append(-w)
        lp = optimize.linprog([-1] * n + [0] * n, A_ub=rows or None, b_ub=rhs or None,
                              A_eq=[[1] * (2 * n)], b_eq=[cert.total_dual()],
                              bounds=(0, None), method="highs")
        assert lp.status == 0, (g.name, lp.message)
        assert round(-lp.fun) == sum(cert.u), g.name
