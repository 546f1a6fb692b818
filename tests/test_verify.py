"""Verification oracles: worths, coalition checks, gap, odd girth."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from matchcore import verify
from matchcore.errors import BoundExceeded, InvariantViolation
from matchcore.instances import (
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
)
from matchcore.mechanism import run_mechanism
from matchcore.verify import (
    check_core,
    coalition_worth_table,
    guaranteed_alpha,
    integrality_gap,
    odd_girth,
    worth_bruteforce,
)

from oracles import (
    max_matching_by_edge_subsets,
    odd_girth_by_double_cover,
    reference_check_core,
    reference_coalition_worth_table,
)

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
EDGE5 = parse_instance("p mg 2 1\ne 1 2 5\n")
THIRD = Fraction(1, 3)


def test_worth_k3():
    assert worth_bruteforce(K3) == 1
    for pair in ((0, 1), (1, 2), (0, 2)):
        assert worth_bruteforce(K3, pair) == 1
    for single in ((0,), (1,), (2,)):
        assert worth_bruteforce(K3, single) == 0
    assert worth_bruteforce(K3, ()) == 0


def test_worth_validates_members():
    with pytest.raises(ValueError):
        worth_bruteforce(K3, (0, 5))


@pytest.mark.parametrize("coalition", [
    (0, 1.5), (0, 1.0), (0, True), (1, True), (0, Fraction(1)), (0, "1"),
])
def test_worth_rejects_inexact_members(coalition):
    # 1.5 matched no vertex and 1.0 or True matched vertex 1 by value
    with pytest.raises(ValueError, match="not an int"):
        worth_bruteforce(K3, coalition)


def test_worth_bound_refusal():
    g = gen_random(12, Fraction(1), 3, seed=1)  # 66 edges
    with pytest.raises(BoundExceeded):
        worth_bruteforce(g)
    assert worth_bruteforce(g, max_edges=66) == coalition_worth_table(g)[-1]


@pytest.mark.parametrize("whole", [True, False])
def test_worth_refusal_builds_no_edge_list(whole):
    n = 250
    g = GameInstance(n, tuple((u, v, (u * v) % 7) for u in range(n)
                              for v in range(u + 1, n) if (u + v) % 3))  # 20,750 edges
    positive = sum(1 for e in g.edges if e[2])
    assert g.edge_count >= 20_000 and positive < g.edge_count
    coalition = None if whole else range(n)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded) as err:
            worth_bruteforce(g, coalition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"coalition has {positive} weighted edges, above the "
                              "bound 24; raise max_edges to force the enumeration")
    assert peak < 32 << 10  # a list of the 15,194 positive edges alone takes 134 KiB


def test_worth_ignores_zero_edges():
    g = gen_gap_family(3, connected=True)  # 18 unit edges + 15 zero edges
    assert worth_bruteforce(g) == 6


def test_worth_against_naive_oracle():
    for seed in range(30):
        g = gen_random(2 + seed % 6, Fraction(2, 3), 7, seed=seed)
        if g.edge_count > 14:
            continue
        assert worth_bruteforce(g) == max_matching_by_edge_subsets(list(g.edges))


def test_worth_table_matches_recursive():
    for seed in range(20):
        g = gen_random(2 + seed % 5, Fraction(1, 2), 9, seed=seed)
        table = coalition_worth_table(g)
        n = g.vertex_count
        for mask in range(1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            assert table[mask] == worth_bruteforce(g, members)


def random_graph(rng, n, heavy, isolated=2):
    """Edges with probability 1/2; weights in 0..9, or 0 and >= 2^63 when
    `heavy`; the last `isolated` vertices are left isolated."""
    edges = []
    for u in range(n - isolated):
        for v in range(u + 1, n - isolated):
            if rng.random() < 0.5:
                w = rng.choice((0, 1 << 63, (1 << 64) + rng.randrange(9))) if heavy \
                    else rng.randrange(10)
                edges.append((u, v, w))
    return GameInstance(n, tuple(edges))


# Sizes around the exhaustive check's 4,096-mask slices: the top block
# falls below, at and above one slice, and the bits above the low 12
# vertices take 1 to 32 values. The top vertex has neighbours.
SLICE_SIZES = (0, 1, 12, 13, 14, 16, 17)


def test_worth_table_matches_reference():
    rng = random.Random(7)
    for n in (0, 1, 2, 3, 5, 8, 11, 13, 14, 15, 16):
        for heavy in (False, True):
            g = random_graph(rng, n, heavy)
            assert coalition_worth_table(g) == reference_coalition_worth_table(g)
    for n in SLICE_SIZES:
        g = random_graph(rng, n, heavy=n % 2 == 1, isolated=0)
        assert coalition_worth_table(g) == reference_coalition_worth_table(g)


def random_imputations(rng, g):
    """The mechanism's payout, random fractions (often violating, some
    zero) and plain ints."""
    top = 2 * max((w for (_, _, w) in g.edges), default=1)
    n = g.vertex_count
    yield run_mechanism(g).c
    yield tuple(Fraction(rng.randrange(top), rng.choice((1, 2, 3, 6, 7, 10)))
                if rng.random() < 0.8 else Fraction(0) for _ in range(n))
    yield tuple(rng.randrange(top) if rng.random() < 0.8 else 0 for _ in range(n))


def test_check_core_matches_reference():
    rng = random.Random(11)
    compared = violating = 0
    for seed in range(30):
        n = seed % 15
        g = random_graph(rng, n, heavy=seed % 5 == 4)
        for c in random_imputations(rng, g):
            for alpha in (Fraction(2, 3), Fraction(3, 4), 1):
                for mode in ("exhaustive", "edges"):
                    report = check_core(g, c, alpha, mode=mode)
                    assert report == reference_check_core(g, c, alpha, mode=mode)
                    compared += 1
                    violating += bool(report.violations)
    assert violating > compared // 4  # the random imputations do violate
    for n in SLICE_SIZES:
        g = random_graph(rng, n, heavy=n % 2 == 0, isolated=0)
        fair, unfair, _ = random_imputations(rng, g)
        for c in (fair, unfair):
            report = check_core(g, c, Fraction(2, 3))
            assert report == reference_check_core(g, c, Fraction(2, 3))
        assert report.violations or n < 2  # no coalition of 0 or 1 agents has worth


def test_exhaustive_check_stores_less_than_one_table():
    # Weights above 256 keep the worths and sums out of the small-int
    # cache, so one 2^n table of them takes about 36 bytes per mask:
    # an 8-byte list slot and a 28-byte int.
    n = 16
    g = gen_random(n, Fraction(1, 2), 1000, seed=3)
    g = GameInstance(n, tuple((u, v, w + 300) for (u, v, w) in g.edges))
    c = run_mechanism(g).c
    tracemalloc.start()
    try:
        report = check_core(g, c, Fraction(2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok() and report.checked_count == 1 << n
    assert peak < (1 << n) * 36


def test_worth_table_bound():
    with pytest.raises(BoundExceeded):
        coalition_worth_table(gen_random(21, Fraction(1, 10), 2, seed=0))


def test_check_core_k3_at_two_thirds():
    report = check_core(K3, (THIRD,) * 3, Fraction(2, 3))
    assert report.checked_count == 8
    assert report.violations == ()
    assert report.budget_ok is True
    assert report.grand_worth == 1
    pairs = {(0, 1), (1, 2), (0, 2)}
    assert pairs <= set(report.tight_coalitions)
    assert report.worst_ratio == Fraction(2, 3)


def test_check_core_k3_at_three_quarters():
    report = check_core(K3, (THIRD,) * 3, Fraction(3, 4))
    broken = {v.members for v in report.violations}
    assert broken == {(0, 1), (1, 2), (0, 2)}
    assert all(v.worth == 1 and v.allocated == Fraction(2, 3)
               for v in report.violations)
    assert not report.ok()


def test_check_core_raw_cover_budget_failure():
    # the unscaled cover satisfies every coalition at alpha=1 but
    # overshoots the worth of the game: that is exactly why the exact
    # core of the unit triangle is empty
    half = Fraction(1, 2)
    report = check_core(K3, (half,) * 3, Fraction(1))
    assert report.violations == ()
    assert report.total_allocated == Fraction(3, 2)
    assert report.grand_worth == 1
    assert report.budget_ok is False
    assert not report.ok()


def test_check_core_worst_ratio_consistency():
    for seed in range(25):
        g = gen_random(2 + seed % 7, Fraction(1, 2), 6, seed=seed)
        res = run_mechanism(g)
        report = check_core(g, res.c, Fraction(2, 3))
        assert report.violations == ()
        if report.worst_ratio is not None:
            assert report.worst_ratio >= Fraction(2, 3)


def test_check_core_edges_mode():
    res = run_mechanism(K3)
    report = check_core(K3, res.c, Fraction(2, 3), mode="edges")
    assert report.checked_count == 3
    assert report.violations == ()
    assert report.worst_ratio == Fraction(2, 3)
    assert report.budget_ok is True
    failing = check_core(K3, res.c, Fraction(3, 4), mode="edges")
    assert len(failing.violations) == 3


def test_check_core_edges_mode_unknown_budget():
    g = gen_random(14, Fraction(1), 5, seed=2)  # 91 edges, past brute force
    res = run_mechanism(g)
    report = check_core(g, res.c, Fraction(2, 3), mode="edges")
    assert report.violations == ()
    assert report.grand_worth is None
    assert report.budget_ok is None
    assert report.ok()


@pytest.mark.parametrize("positive, known", [(24, True), (25, False)])
def test_check_core_edges_mode_grand_worth_bound(positive, known):
    # zero-weight edges do not count toward the brute force's bound
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    g = GameInstance(10, tuple((u, v, 1 + t % 3 if t < positive else 0)
                               for t, (u, v) in enumerate(pairs)))
    report = check_core(g, (Fraction(1),) * 10, Fraction(2, 3), mode="edges")
    if known:
        assert report.grand_worth == worth_bruteforce(g)
        assert report.budget_ok is (10 <= report.grand_worth)
    else:
        assert report.grand_worth is None and report.budget_ok is None


def test_check_core_bound_refusal():
    g = gen_random(21, Fraction(1, 10), 2, seed=0)
    with pytest.raises(BoundExceeded):
        check_core(g, (Fraction(0),) * 21, Fraction(2, 3))


def test_check_core_argument_validation():
    with pytest.raises(ValueError):
        check_core(K3, (THIRD,) * 2, Fraction(2, 3))
    with pytest.raises(ValueError):
        check_core(K3, (THIRD, THIRD, Fraction(-1)), Fraction(2, 3))
    with pytest.raises(ValueError):
        check_core(K3, (THIRD,) * 3, Fraction(3, 2))
    with pytest.raises(ValueError):
        check_core(K3, (THIRD,) * 3, Fraction(2, 3), mode="sampled")


@pytest.mark.parametrize("c, alpha", [
    ((THIRD, THIRD, 1 / 3), Fraction(2, 3)),
    ((THIRD, THIRD, True), Fraction(2, 3)),
    ((THIRD, THIRD, "1/3"), Fraction(2, 3)),
    ((THIRD,) * 3, 0.6666666),
    ((THIRD,) * 3, True),
    ((THIRD,) * 3, "2/3"),
])
def test_check_core_rejects_inexact_types(c, alpha):
    # a float would be taken at its binary value, `True` as 1
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        check_core(K3, c, alpha)


def test_check_core_accepts_ints():
    assert check_core(K3, (0, 1, 0), 1).budget_ok is True


def test_gap_family_reports():
    for n in (1, 2, 3):
        report = integrality_gap(gen_gap_family(n), max_edges=6 * n)
        assert report.opt_integral == 2 * n
        assert report.opt_fractional == 3 * n
        assert report.ratio == Fraction(2, 3)
        assert report.core_nonempty is False


def test_gap_k3():
    report = integrality_gap(K3)
    assert report.opt_integral == 1
    assert report.opt_fractional == Fraction(3, 2)
    assert report.ratio == Fraction(2, 3)
    assert report.core_nonempty is False


def test_gap_single_edge():
    report = integrality_gap(EDGE5)
    assert report.opt_integral == report.opt_fractional == 5
    assert report.ratio == 1
    assert report.core_nonempty is True


def test_gap_unknown_when_refused():
    g = gen_random(12, Fraction(1), 3, seed=1)
    report = integrality_gap(g)
    assert report.opt_integral is None
    assert report.ratio is None
    assert report.core_nonempty is None
    assert report.opt_fractional > 0
    assert report.to_json_dict()["core_nonempty"] == "unknown"


def test_gap_rejects_optima_out_of_order(monkeypatch):
    monkeypatch.setattr(verify, "worth_bruteforce", lambda g, max_edges: 2)
    with pytest.raises(InvariantViolation,
                       match=r"^optima out of order: integral 2, fractional 3/2$"):
        integrality_gap(K3)


def test_gap_empty_instance():
    report = integrality_gap(GameInstance(0, ()))
    assert report.opt_integral == 0
    assert report.opt_fractional == 0
    assert report.ratio is None
    assert report.core_nonempty is True


def test_gap_ratio_bounds_random():
    for seed in range(40):
        g = gen_random(2 + seed % 8, Fraction(1, 2), 9, seed=seed)
        report = integrality_gap(g, max_edges=40)
        if report.ratio is not None:
            assert Fraction(2, 3) <= report.ratio <= 1


def test_odd_girth_basics():
    assert odd_girth(K3) == 3
    assert odd_girth(gen_odd_cycle(2)) == 5
    assert odd_girth(gen_odd_cycle(6)) == 13
    assert odd_girth(EDGE5) is None
    assert odd_girth(GameInstance(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))) is None
    assert odd_girth(GameInstance(0, ())) is None


def test_odd_girth_mixed():
    # C5 plus a disjoint triangle: the triangle wins
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1),
             (5, 6, 1), (6, 7, 1), (5, 7, 1)]
    assert odd_girth(GameInstance(8, tuple(edges))) == 3


def cycle_edges(vertices):
    return [(u, v, 1) for u, v in zip(vertices, vertices[1:] + vertices[:1])]


PETERSEN = GameInstance(10, tuple(
    [(i, (i + 1) % 5, 1) for i in range(5)] + [(i, i + 5, 1) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]))


@pytest.mark.parametrize("g, girth", [
    (GameInstance(12, tuple(cycle_edges(list(range(5))) + cycle_edges(list(range(5, 12))))), 5),
    (PETERSEN, 5),
    # a 201-cycle through vertex 0 whose chord 100-104 closes a 5-cycle
    (GameInstance(201, tuple(cycle_edges(list(range(201))) + [(100, 104, 1)])), 5),
    # a 99-cycle on the low vertices, found first, and a 7-cycle after it
    (GameInstance(106, tuple(cycle_edges(list(range(99))) + cycle_edges(list(range(99, 106))))), 7),
    # vertex 0's component is an even cycle with a pendant path; the
    # 5-cycle after it is found all the same
    (GameInstance(15, tuple(cycle_edges(list(range(6))) + [(5, 6, 1), (6, 7, 1), (7, 8, 1)]
                            + cycle_edges(list(range(9, 14))))), 5),
    # a 5-cycle of zero-weight edges still counts
    (GameInstance(12, tuple([(u, v, 0) for (u, v, _) in cycle_edges(list(range(5)))]
                            + cycle_edges(list(range(5, 12))))), 5),
])
def test_odd_girth_fixtures(g, girth):
    assert odd_girth_by_double_cover(g.vertex_count, g.edges) == girth
    assert odd_girth(g) == girth


def test_odd_girth_matches_double_cover():
    girths = set()
    for seed in range(80):
        n = 4 + seed % 30
        p = Fraction(2 + seed % 2, n + seed % 7)  # average degree 2-3
        for bip in (False, True):
            g = gen_random(n, p, 3, seed=seed, bipartite=bip)
            girth = odd_girth(g)
            assert girth == odd_girth_by_double_cover(n, g.edges)
            girths.add(girth)
    assert girths == {None, 3, 5, 7, 9}


def test_odd_girth_bipartite_randoms():
    for seed in range(10):
        g = gen_random(9, Fraction(2, 3), 4, seed=seed, bipartite=True)
        assert odd_girth(g) is None


def test_guaranteed_alpha():
    assert guaranteed_alpha(K3) == Fraction(2, 3)
    assert guaranteed_alpha(gen_odd_cycle(2)) == Fraction(4, 5)
    assert guaranteed_alpha(EDGE5) == 1
    assert guaranteed_alpha(gen_random(8, Fraction(1, 2), 5, seed=3,
                                       bipartite=True)) == 1


def test_mechanism_passes_structural_guarantee():
    # every payout passes the coalition check at the instance's own
    # structural factor, with zero violations
    for seed in range(40):
        g = gen_random(2 + seed % 9, Fraction(1, 2), 8, seed=seed)
        res = run_mechanism(g)
        report = check_core(g, res.c, guaranteed_alpha(g))
        assert report.violations == ()
        assert report.budget_ok is True
        assert res.allocated <= res.matching_weight <= report.grand_worth
