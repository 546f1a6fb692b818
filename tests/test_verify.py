"""Verification oracles: worths, coalition checks, gap, odd girth."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcore import verify
from matchcore.errors import BoundExceeded, InvariantViolation
from matchcore.instances import (
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
)
from matchcore.mechanism import run_mechanism, run_pipeline
from matchcore.rationals import FractionArray
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


def near_misses(g, c, alpha):
    """Coalitions of positive worth w whose y = b * x(S) passes k * w,
    with k = a * L, by less than k: y // k == w, so the exhaustive
    check's marking pass marks them, yet they are neither violated nor
    tight."""
    table = reference_coalition_worth_table(g)
    scale = math.lcm(*(Fraction(x).denominator for x in c)) if c else 1
    ci = [int(Fraction(x) * scale) for x in c]
    k = alpha.numerator * scale
    count = 0
    for mask, w in enumerate(table):
        y = alpha.denominator * sum(x for i, x in enumerate(ci) if mask >> i & 1)
        count += w > 0 and 0 < y - k * w < k
    return count


def test_check_core_matches_reference():
    rng = random.Random(11)
    seen = Counter()

    def compare(g, c, alpha, mode="exhaustive", case=None):
        report = check_core(g, c, alpha, mode=mode)
        assert report == reference_check_core(g, c, alpha, mode=mode)
        seen["compared"] += 1
        seen["violating"] += bool(report.violations)
        if case is not None:
            seen[case] += 1
        return report

    for seed in range(30):
        n = seed % 15
        g = random_graph(rng, n, heavy=seed % 5 == 4)
        for c in random_imputations(rng, g):
            for alpha in (Fraction(2, 3), Fraction(3, 4), 1):
                for mode in ("exhaustive", "edges"):
                    compare(g, c, alpha, mode)
    assert seen["violating"] > seen["compared"] // 4  # the random imputations do violate

    for seed in range(12):
        n = 3 + seed
        g = random_graph(rng, n, heavy=seed % 3 == 2, isolated=seed % 3)
        res = run_mechanism(g)
        # the mechanism's payouts, at their own guarantee and at alpha = 1
        for case, alpha in (("tight at the guarantee", res.factor_guarantee),
                            ("tight at one", Fraction(1))):
            report = compare(g, res.c, alpha)
            seen[case] += bool(report.tight_coalitions)
        # below every coalition's ratio: nothing is marked but near misses,
        # and only the edge pass gives the worst ratio
        below = min(report.worst_ratio or 1, Fraction(1)) * Fraction(9, 10)
        report = compare(g, res.c, below)
        if not report.violations and not report.tight_coalitions and report.worst_ratio:
            seen["ratio from the edges only"] += 1
        # half-unit payouts at 6/7: k = 12 and y = 7 * x(S) leave y // k == w
        # with y > k * w on some coalitions
        top = 2 * max((w for (_, _, w) in g.edges), default=1)
        halves = tuple(Fraction(rng.randrange(top + 1), 2) for _ in range(n))
        if near_misses(g, halves, Fraction(6, 7)):
            compare(g, halves, Fraction(6, 7), case="near misses")

    for seed in range(4):
        n = 6 + 2 * seed
        g = GameInstance(n, tuple((u, v, rng.randrange(1 << 58, 1 << 60))
                                  for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5))
        for c in random_imputations(rng, g):
            for alpha in (Fraction(2, 3), 1):
                compare(g, c, alpha, case="weights of at least 2^58")

    for n in SLICE_SIZES:
        g = random_graph(rng, n, heavy=n % 2 == 0, isolated=0)
        fair, unfair, _ = random_imputations(rng, g)
        for c in (fair, unfair):
            report = compare(g, c, Fraction(2, 3), case="sizes around a slice")
        assert report.violations or n < 2  # no coalition of 0 or 1 agents has worth

    for case in ("tight at the guarantee", "tight at one", "ratio from the edges only",
                 "near misses", "weights of at least 2^58", "sizes around a slice"):
        assert seen[case], case


def field_bits(g, c, alpha):
    """The exhaustive check's field width B and the bit length of the
    larger of k * (sum of the weights) and b * x(N), which its B - 1
    low bits must hold under the guard bit."""
    c = [Fraction(x) for x in c]
    scale = math.lcm(*(x.denominator for x in c))
    allocated = alpha.denominator * sum(x.numerator * (scale // x.denominator) for x in c)
    length = max(alpha.numerator * scale * sum(w for (_, _, w) in g.edges),
                 allocated).bit_length()
    return 8 * ((length + 8) // 8), length, allocated.bit_length()


def test_packed_fields_match_reference():
    # The exhaustive check packs every k * worth and y = b * x(S) into
    # fields of B bits, a guard bit above B - 1 bits of value; the
    # report must not depend on the width or on where slices end.
    rng = random.Random(20)
    seen = Counter()

    def compare(g, c, alpha):
        alpha = Fraction(alpha)
        report = check_core(g, c, alpha)
        assert report == reference_check_core(g, c, alpha)
        width, length, allocated = field_bits(g, c, alpha)
        seen[f"n = {g.vertex_count}"] += 1
        seen["8-bit fields"] += width == 8
        seen["fields above 64 bits"] += width > 64
        # b * x(N) is the grand coalition's y, a value in a field
        seen["a value fills B - 1 bits"] += allocated == width - 1
        seen["the guard bit has a byte of its own"] += length % 8 == 0
        seen["violating"] += bool(report.violations)
        seen["many tight at one"] += alpha == 1 and len(report.tight_coalitions) >= 100

    # n = 13 fills one 4,096-mask slice per half; 14 and 15 take several
    for n in (0, 1, 2, 13, 14, 15):
        g = random_graph(rng, n, heavy=n % 2 == 1, isolated=0)
        fair, unfair, _ = random_imputations(rng, g)
        compare(g, fair, 1)
        compare(g, unfair, Fraction(2, 3))

    for seed in range(8):
        n = 4 + seed % 5
        # unit weights and small integer payouts: 8-bit fields
        g = gen_random(n, Fraction(1, 2), 2, seed=seed)
        compare(g, [rng.randrange(3) for _ in range(n)], 1)
        # weights of at least 2^61: fields wider than 64 bits
        g = GameInstance(n, tuple((u, v, rng.randrange(1 << 61, 1 << 62))
                                  for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5))
        for c in random_imputations(rng, g):
            compare(g, c, Fraction(3, 4))
        # an isolated vertex's payout brings x(N) to 2^t - 1 or 2^t
        g = random_graph(rng, n + 1, heavy=False, isolated=1)
        for t in (7, 8, 15, 16, 23, 24, 71, 72):
            c = [rng.randrange(10) for _ in range(n)]
            for total in ((1 << t) - 1, 1 << t):
                compare(g, c + [total - sum(c)], 1)

    # every coalition is worth 0 and paid nothing: none is violated or tight
    compare(GameInstance(5, ()), [0] * 5, 1)
    # the mechanism's payouts on bipartite graphs are in the core
    for seed in range(3):
        g = gen_random(12, Fraction(1, 2), 9, seed=seed, bipartite=True)
        compare(g, run_mechanism(g).c, 1)

    for case in ("n = 0", "n = 1", "n = 2", "n = 13", "n = 14", "n = 15",
                 "8-bit fields", "fields above 64 bits", "a value fills B - 1 bits",
                 "the guard bit has a byte of its own", "violating", "many tight at one"):
        assert seen[case], case


def test_exhaustive_grand_worth():
    rng = random.Random(21)
    for n in range(12):
        for heavy in (False, True):
            g = random_graph(rng, n, heavy, isolated=n % 3)
            report = check_core(g, run_mechanism(g).c, Fraction(2, 3))
            assert report.grand_worth == coalition_worth_table(g)[-1] \
                == worth_bruteforce(g, max_edges=g.edge_count)


@pytest.mark.parametrize("c, alpha, worst", [
    ((THIRD,) * 3, Fraction(3, 4), Fraction(1)),     # violations, ratio not below alpha
    ((THIRD,) * 3, Fraction(2, 3), Fraction(1, 2)),  # no violation, ratio below alpha
    ((THIRD,) * 3, Fraction(2, 3), Fraction(1)),     # tight pairs, ratio above alpha
    ((Fraction(1, 2),) * 3, Fraction(2, 3), Fraction(2, 3)),  # none tight, ratio at alpha
])
def test_exhaustive_check_cross_checks_the_edge_pass(monkeypatch, c, alpha, worst):
    # the worst ratio comes from the edges alone, and the enumeration
    # must find violations exactly below it and, with none, tight
    # coalitions exactly at it
    check_core(K3, c, alpha)
    edge_pass = verify._edge_pass
    monkeypatch.setattr(verify, "_edge_pass", lambda *args: edge_pass(*args)[:2] + (worst,))
    with pytest.raises(InvariantViolation, match="disagree with the worst edge ratio"):
        check_core(K3, c, alpha)


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


def test_check_core_reads_a_fraction_array_as_its_fractions():
    # unreduced ints give the report of the reduced values, at any scale
    rng = random.Random(5)
    for seed in range(12):
        g = random_graph(rng, 2 + seed % 9, heavy=seed % 3 == 0)
        for c in random_imputations(rng, g):
            fractions = [Fraction(x) for x in c]
            scale = [rng.choice([1, 2, 6]) for _ in c]
            array = FractionArray([x.numerator * k for x, k in zip(fractions, scale)],
                                  [x.denominator * k for x, k in zip(fractions, scale)])
            for alpha in (Fraction(2, 3), 1):
                for mode in ("exhaustive", "edges"):
                    assert check_core(g, array, alpha, mode=mode) == check_core(g, c, alpha, mode=mode)


@pytest.mark.parametrize("nums, dens, alpha, message", [
    ([1, 1], [3, 3], Fraction(2, 3), "imputation has 2 entries for 3 vertices"),
    ([1, 1, -1], [3, 3, 3], Fraction(2, 3), "imputation entries must be nonnegative"),
    ([1, 1, 1], [3, 3, 3], 0.5, "0.5 is not an int or a Fraction"),
    ([1, 1, 1], [3, 3, 3], Fraction(3, 2), "alpha must be in (0, 1]"),
    ([1, 1, 1], [-1, 1, 1], Fraction(2, 3), "imputation denominators must be positive"),
    ([1, 1, 1], [0, 1, 1], Fraction(2, 3), "imputation denominators must be positive"),
])
def test_check_core_checks_a_fraction_array(nums, dens, alpha, message):
    with pytest.raises(ValueError) as err:
        check_core(K3, FractionArray(nums, dens), alpha)
    assert str(err.value) == message


@pytest.mark.parametrize("mode", ["exhaustive", "edges"])
def test_check_core_rejects_a_fraction_array_of_uneven_lists(mode):
    # three numerators pass the vertex count; the short denominators
    # must be refused before any coalition is read
    with pytest.raises(ValueError) as err:
        check_core(gen_odd_cycle(1), FractionArray([1, 1, 1], [1, 1]), Fraction(2, 3), mode=mode)
    assert str(err.value) == "imputation has 3 numerators and 2 denominators"


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
    monkeypatch.setattr(verify, "_integral_optimum", lambda g, positive, matching, stop: 2)
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


def test_gap_integral_optimum_between_its_bounds(monkeypatch):
    # nu is enumerated only between the backing matching's weight and
    # floor(tau): not at all when they meet, else from the one up to
    # the other. It must equal the subset DP's grand worth and the
    # unseeded brute force either way, and a backing matching that is
    # not a matching of the instance's edges must be refused.
    calls = []
    enumerate_ = verify._max_matching_recursive

    def spy(edges, best=0, stop=None):
        calls.append((best, stop))
        if best == stop:  # bounds that meet: an enumeration of this edge would reach stop + 1
            edges = [(0, 1, stop + 1)]
        return enumerate_(edges, best, stop)

    monkeypatch.setattr(verify, "_max_matching_recursive", spy)
    rng = random.Random(27)
    seen = Counter()
    for seed in range(600):
        n = 2 + seed % 13
        top = rng.choice((1, 2, 3, 9))  # small weight ranges: ties and zeros
        g = GameInstance(n, tuple((u, v, rng.randrange(top + 1))
                                  for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < rng.choice((0.25, 0.5, 0.75))))
        trace = run_pipeline(g)
        low, stop = trace.result.matching_weight, trace.certificate.total_dual() // 2
        calls.clear()
        nu = integrality_gap(g, max_edges=g.edge_count).opt_integral
        assert calls == [(low, stop)]
        assert nu == coalition_worth_table(g)[-1] == worth_bruteforce(g, max_edges=g.edge_count)
        seen["zero weights"] += any(w == 0 for (_, _, w) in g.edges)
        seen["bounds meet" if low == stop else
             "enumerated up to floor(tau)" if nu == stop else "enumerated below floor(tau)"] += 1
        # tampered backing matchings: a pair that repeats a matched
        # vertex, and a pair that is not an edge
        matching = trace.result.matching
        positive = [e for e in g.edges if e[2]]
        edges = {(u, v) for (u, v, _) in g.edges}
        if matching:
            a = matching[0][0]
            others = sorted(p for p in edges if a in p and p not in matching)
            if others:
                with pytest.raises(InvariantViolation, match="^backing matching .* is not a matching"):
                    verify._integral_optimum(g, positive, matching + tuple(others[:1]), stop)
                seen["repeated vertex"] += 1
        used = {x for pair in matching for x in pair}
        free = [x for x in range(n) if x not in used]
        missing = [(u, v) for u in free for v in free if u < v and (u, v) not in edges]
        if missing:
            with pytest.raises(InvariantViolation, match="^backing matching .* is not a matching"):
                verify._integral_optimum(g, positive, matching + tuple(missing[:1]), stop)
            seen["non-edge"] += 1
    for case in ("zero weights", "bounds meet", "enumerated up to floor(tau)",
                 "enumerated below floor(tau)", "repeated vertex", "non-edge"):
        assert seen[case] >= 10, (case, seen)


def test_enumeration_starts_at_its_incumbent_and_ends_at_its_bound():
    # three disjoint unit edges: the search returns its incumbent when it
    # is more, and stops at `stop`, which the caller vouches is an upper
    # bound, instead of looking further
    edges = [(0, 1, 1), (2, 3, 1), (4, 5, 1)]
    assert verify._max_matching_recursive(edges) == 3
    assert verify._max_matching_recursive(edges, 4) == 4
    assert verify._max_matching_recursive(edges, 0, 2) == 2
    assert verify._max_matching_recursive(edges, 1, 1) == 1
    assert verify._max_matching_recursive([], 5, 7) == 5


@pytest.mark.parametrize("matching", [
    pytest.param(((0, 1), (1, 2)), id="repeated vertex"),
    pytest.param(((0, 1), (0, 1)), id="repeated pair"),
    pytest.param(((0, 2),), id="non-edge"),
    pytest.param(((1, 0),), id="reversed pair"),
])
def test_gap_checks_the_backing_matching(monkeypatch, matching):
    # the path 1-2-3: the mechanism's matching is one of its edges
    path = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 2\n")
    trace = run_pipeline(path)
    assert integrality_gap(path).opt_integral == 2
    tampered = trace._replace(result=trace.result._replace(matching=matching))
    monkeypatch.setattr(verify, "run_pipeline", lambda g: tampered)
    with pytest.raises(InvariantViolation, match=r"^backing matching .* is not a matching of g$"):
        integrality_gap(path)


def test_gap_checks_the_certificate(monkeypatch):
    # the path 1-2-3 again, with a weak but genuine backing matching,
    # the edge of weight 1, and duals whose total is too low: tau = 1
    # < nu = 2. Unchecked, floor(tau) would meet the matching's weight,
    # nothing would be enumerated, and the gap would report nu = tau = 1
    # and a nonempty core, so the dual must be refused first.
    path = parse_instance("p mg 3 2\ne 1 2 1\ne 2 3 2\n")
    trace = run_pipeline(path)
    low = trace.certificate._replace(u=(0, 1, 0), v=(0, 1, 0))
    assert low.total_dual() == 2
    assert verify._integral_optimum(path, [(0, 1, 1), (1, 2, 2)], ((0, 1),), 1) == 1
    tampered = trace._replace(certificate=low,
                              result=trace.result._replace(matching=((0, 1),)))
    monkeypatch.setattr(verify, "run_pipeline", lambda g: tampered)
    with pytest.raises(InvariantViolation,
                       match=r"^certificate of tau is invalid: dual infeasible on edge"):
        integrality_gap(path)


def test_exhaustive_report_with_violations_and_tight_coalitions():
    # one vertex's payout lowered: the coalitions through it that were
    # tight fall short, and the tight ones without it stay, at one, two
    # and three mask bytes
    for n in (8, 9, 16, 17):
        g = gen_random(n, Fraction(1, 2), 9, seed=n, bipartite=True)
        c = list(run_mechanism(g).c)
        richest = max(range(n), key=c.__getitem__)
        c[richest] /= 2
        report = check_core(g, c, 1)
        assert report.violations and report.tight_coalitions
        assert report == reference_check_core(g, c, 1)


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


@st.composite
def _games(draw):
    """n <= 30, often with disjoint odd cycles of equal weight, so that x
    has cycles of several lengths, plus random edges; ids permuted."""
    n = draw(st.integers(1, 30))
    weights = st.one_of(st.just(0), st.integers(1, 10), st.integers(0, 2**62))
    edges, start = {}, 0
    for length in draw(st.lists(st.sampled_from([3, 5, 7, 9]), max_size=4)):
        if start + length > n:
            break
        w = draw(weights)
        for t in range(length):
            u, v = start + t, start + (t + 1) % length
            edges[min(u, v), max(u, v)] = w
        start += length
    ids = draw(st.permutations(range(n)))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(weights))
    return GameInstance(n, [(ids[u], ids[v], w) for (u, v), w in edges.items()])


@settings(max_examples=300, deadline=None)
@given(_games())
@example(parse_instance("p mg 8 8\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"
                        "e 4 5 1\ne 5 6 1\ne 6 7 1\ne 7 8 1\ne 4 8 1\n"))  # a 3- and a 5-cycle
@example(parse_instance("p mg 3 2\ne 1 2 0\ne 2 3 4611686018427387904\n"))
def test_worst_edge_ratio_is_the_factor_guarantee(g):
    # an odd cycle's edges are tight with both ends at its factor, and
    # the least factor is the guarantee's; with no odd cycle a tight
    # matched edge gives 1, and every edge is covered at least that well
    res = run_mechanism(g)
    if any(w for (_, _, w) in g.edges):
        assert check_core(g, res.c, res.factor_guarantee, mode="edges").worst_ratio == res.factor_guarantee
