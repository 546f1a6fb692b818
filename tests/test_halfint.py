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
from matchcore.mechanism import analyze_cycle, audit_pipeline, run_pipeline

from oracles import (
    ReferenceHalfIntegralSolution,
    bipartite_max_weight_dp,
    doubled_edges,
    fold_x2,
    reference_decompose_components,
    reference_normalize,
    solution_weight2,
)

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
PATH3 = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 1\n")


def pipeline_fold(g):
    return fold_solution(solve_bipartite(double_graph(g)))


def test_fold_k3():
    s = pipeline_fold(K3)
    assert fold_x2(K3, s) == (1, 1, 1)  # three one-way pairs
    assert s.weight == (1, 1, 1)
    assert s.v2 == (1, 1, 1)  # cover 1/2 on each vertex
    assert Fraction(solution_weight2(K3, s), 2) == Fraction(3, 2)


def test_fold_single_edge():
    s = pipeline_fold(EDGE5)
    assert s.match == (1, 0) and s.weight == (5, 5)  # one mutual pair
    assert fold_x2(EDGE5, s) == (2,)
    assert s.v2[0] + s.v2[1] == 10
    assert min(s.v2) >= 0


def test_fold_path_leaves_the_unmatched_vertex_at_0():
    s = pipeline_fold(PATH3)
    assert s.match == (1, 0, -1) and s.weight == (1, 1, 0)  # x = 1 on edge 1-2


def test_fold_empty():
    g = GameInstance(0, ())
    s = pipeline_fold(g)
    assert s == ((), (), ())


def test_audit_rejects_the_fold_of_a_broken_certificate():
    trace = run_pipeline(EDGE5)
    cert = trace.certificate
    # drop the matching but keep the duals: the fold would lose strong
    # duality, and the certificate check names the duals that break it
    bad = PrimalDualCertificate((-1, -1), cert.u, cert.v)
    problems = audit_pipeline(trace._replace(certificate=bad))
    assert "unmatched vertex 0 has positive dual 5" in problems
    assert "unmatched vertex 1 has positive dual 5" in problems


SQUARE = parse_instance("p mg 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
# each half-edge as one-way pairs i -> match[i], in either direction
PATH_FOLDS = [HalfIntegralSolution((1, 2, -1), (1, 1, 0), (0, 2, 0)),
              HalfIntegralSolution((-1, 0, 1), (0, 1, 1), (0, 2, 0))]
SQUARE_FOLDS = [HalfIntegralSolution((1, 2, 3, 0), (1,) * 4, (1,) * 4),
                HalfIntegralSolution((3, 0, 1, 2), (1,) * 4, (1,) * 4)]


def test_normalize_path_keeps_low_endpoint_edge():
    for s in PATH_FOLDS:
        comps = decompose_components(s)
        assert comps.integral == ((0, 1, 1),)
        assert comps.odd_cycles == ()


def test_normalize_even_cycle_picks_opposite_edges():
    for s in SQUARE_FOLDS:
        comps = decompose_components(s)
        assert comps.integral == ((0, 1, 1), (2, 3, 1))
        assert comps.odd_cycles == ()


def test_decompose_k3():
    comps = decompose_components(pipeline_fold(K3))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.vertices == (0, 1, 2)
    assert cyc.k == 1
    assert cyc.weights == (1, 1, 1)
    assert cyc.w_C == 3
    assert comps.integral == ()


def test_decompose_c5():
    g = gen_odd_cycle(2)
    comps = decompose_components(pipeline_fold(g))
    assert len(comps.odd_cycles) == 1
    cyc = comps.odd_cycles[0]
    assert cyc.k == 2 and cyc.weights == (1,) * 5 and cyc.w_C == 5
    assert Fraction(solution_weight2(g, pipeline_fold(g)), 2) == Fraction(5, 2)


def test_decompose_weights_in_walk_order():
    # triangle with weights 2 on 1-2 and 1 elsewhere, cover (1, 1, 0),
    # as the pairs 0 -> 1 -> 2 -> 0 and as 0 -> 2 -> 1 -> 0
    for match, weight in [((1, 2, 0), (2, 1, 1)), ((2, 0, 1), (1, 2, 1))]:
        comps = decompose_components(HalfIntegralSolution(match, weight, (2, 2, 0)))
        cyc = comps.odd_cycles[0]
        assert cyc.vertices == (0, 1, 2)
        assert cyc.weights == (2, 1, 1)  # edges 0-1, 1-2, 2-0
        assert cyc.w_C == 4


def test_decompose_bipartite_has_no_cycles():
    g = gen_random(8, Fraction(3, 4), 9, seed=5, bipartite=True)
    s = pipeline_fold(g)
    comps = decompose_components(s)
    assert comps.odd_cycles == ()
    assert 2 * sum(w for (_, _, w) in comps.integral) == sum(s.v2)


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
        comps = decompose_components(s)
        # 2 * integral weight + sum of w_C is 2 * weight(x) = sum(v2)
        integral = sum(w for (_, _, w) in comps.integral)
        assert 2 * integral + sum(c.w_C for c in comps.odd_cycles) == sum(s.v2)
        # the fold's pair weights are the instance's edge weights
        assert set(comps.integral) <= set(g.edges)
        # every odd cycle walks half-edges of the fold
        half = {(a, b): w for (a, b, w), x in zip(g.edges, fold_x2(g, s)) if x == 1}
        for c in comps.odd_cycles:
            L = len(c.vertices)
            assert L == 2 * c.k + 1
            pairs = [(c.vertices[t], c.vertices[(t + 1) % L]) for t in range(L)]
            assert [half[min(p), max(p)] for p in pairs] == list(c.weights)


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
            cases.append((g, s._replace(v2=(s.v2[0] + 2,) + s.v2[1:])))
    cases += [(PATH3, s) for s in PATH_FOLDS] + [(SQUARE, s) for s in SQUARE_FOLDS]
    cases += [mixed_components(seed) for seed in range(300)]
    return cases


def mixed_components(seed):
    """A raw solution whose one-way pairs are a random partial
    injection: vertex-disjoint runs, even cycles and odd cycles, each
    directed one way or the other, next to mutual pairs, unmatched
    vertices and instance edges at 0.

    Vertex ids and edge order are shuffled, so the components
    interleave. Most runs and even cycles have alternating matchings of
    equal weight and most odd cycles a cover with w_C = 2 v_C; the rest
    break them.
    """
    rng = random.Random(seed)
    sizes = {"run": lambda: rng.randint(2, 7), "even": lambda: 2 * rng.randint(2, 5),
             "odd": lambda: 2 * rng.randint(1, 5) + 1, "mutual": lambda: 2}
    shapes = [(kind, size()) for kind, size in sizes.items() for _ in range(rng.randint(0, 2))]
    rng.shuffle(shapes)
    n = sum(size for _, size in shapes) + rng.randint(0, 3)
    ids = list(range(n))
    rng.shuffle(ids)
    match, weight, v2, pos = [-1] * n, [0] * n, [rng.randint(0, 9) for _ in range(n)], 0
    edges = {}  # (u, v) with u < v -> weight
    for kind, size in shapes:
        verts = ids[pos:pos + size]
        pos += size
        if kind == "mutual":
            a, b = verts
            match[a], match[b] = b, a
            weight[a] = weight[b] = edges[min(a, b), max(a, b)] = rng.randint(0, 9)
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
        forward = rng.random() < 0.5
        for t in range(count):
            a, b = verts[t], verts[(t + 1) % size]
            if not forward:
                a, b = b, a
            match[a], weight[a] = b, weights[t]
            edges[min(a, b), max(a, b)] = weights[t]
        if kind == "odd":
            v2[verts[-1]] = sum(weights) - sum(v2[i] for i in verts[:-1])
            if rng.random() < 0.2:
                v2[verts[-1]] += 1
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.randint(0, 9))
    order = [(u, v, w) for (u, v), w in edges.items()]
    rng.shuffle(order)
    return GameInstance(n, order), HalfIntegralSolution(tuple(match), tuple(weight), tuple(v2))


def test_decompose_matches_two_walk_reference():
    # the reference walks the x2 that the fold's pairs give over the
    # edge list, and reports integral edges by edge index. It keeps the
    # checks that a checked certificate makes needless, so it refuses
    # some of the raw solutions, which are not certified folds; on those
    # with a moved cover on a cycle, `analyze_cycle` must name a vertex
    moved = 0
    for g, s in reference_cases():
        comps = decompose_components(s)
        try:
            want_cycles, want_edges = reference_decompose_components(
                g, reference_normalize(g, ReferenceHalfIntegralSolution(fold_x2(g, s), s.v2, False)))
        except InvariantViolation as err:
            if "twice its cover" in str(err):
                with pytest.raises(InvariantViolation, match=r"^cycle cover at vertex "):
                    for cycle in comps.odd_cycles:
                        analyze_cycle(cycle, s.v2)
                moved += 1
            continue
        assert comps.integral == tuple(sorted(g.edges[e] for e in want_edges))
        assert comps.odd_cycles == want_cycles
    assert moved > 0


def certified_graphs():
    """Graphs whose kernel folds have half-edges: weights in 0..3 tie
    often enough to give runs and even cycles, and the odd-cycle and
    gap families give odd cycles."""
    rng = random.Random(32)
    graphs = [gen_random(3 + seed % 12, Fraction(1 + seed % 3, 4), 3, seed=seed)
              for seed in range(100)]
    for seed in range(200):
        n = 3 + seed % 10
        p = rng.choice((0.3, 0.5, 0.8))
        graphs.append(GameInstance(n, tuple((u, v, rng.randrange(4)) for u in range(n)
                                            for v in range(u + 1, n) if rng.random() < p)))
    graphs += [gen_odd_cycle(k, weight) for k in range(1, 8) for weight in (0, 1, 3)]
    return graphs + [gen_gap_family(k, connected=c) for k in range(1, 4) for c in (False, True)]


def test_certified_folds_pass_the_checks_that_decompose_trusts():
    # `decompose_components` trusts the certificate for three facts:
    # the two halves of a mutual pair weigh the same, the alternating
    # matchings of a run or an even cycle weigh the same, and w_C = 2 v_C
    # on an odd cycle. The first is checked here against the instance's
    # edge weight, the others by the reference, which raises on a fault.
    resolved = odd = 0
    for g in certified_graphs():
        s = pipeline_fold(g)
        weights = {(u, v): w for (u, v, w) in g.edges}
        for i, j in enumerate(s.match):
            if j >= 0 and s.match[j] == i:
                assert s.weight[i] == s.weight[j] == weights[min(i, j), max(i, j)]
        x2 = fold_x2(g, s)
        normal = reference_normalize(g, ReferenceHalfIntegralSolution(x2, s.v2, False))
        cycles, _ = reference_decompose_components(g, normal)
        resolved += normal.x2 != x2  # a run or an even cycle was resolved
        odd += bool(cycles)
    assert resolved >= 10 and odd >= 10


def test_cover_feasible_and_strong_duality():
    for g in rand_instances():
        s = pipeline_fold(g)
        assert Fraction(sum(s.v2), 2) == Fraction(solution_weight2(g, s), 2)
        for (i, j, w) in g.edges:
            assert s.v2[i] + s.v2[j] >= 2 * w
        assert all(type(x) is int for x in s.v2)
