"""The profit-sharing mechanism: scale the cover by per-vertex factors.

Pipeline: double the graph, solve it with a certified bipartite
matching, fold back to a half-integral matching x and optimal cover v,
walk the half-edges once down to odd cycles, then pay each agent

    c_i = f(i) * v_i,   f(i) = 2k/(2k+1) if i lies on a half cycle of
                        length 2k+1, and 1 otherwise.

Vertices outside odd cycles keep their full cover value, so only the
most constrained agents are scaled down, and never below 2/3. The
payout is backed by a concrete integral matching T: the edges with
x = 1 plus, per odd cycle, the heaviest of the 2k+1 alternating
matchings obtained by deleting one cycle vertex. Exact identities tie
the pieces together:

- deleting vertex i_j from a cycle leaves a matching M_j with
  v_{i_j} = v_C - w(M_j);
- summed over the cycle, sum_j w(M_j) = 2k * v_C, hence the heaviest
  satisfies (2k+1) * w(M') >= 2k * v_C;
- therefore sum of c over a cycle is at most w(M'), and globally
  sum(c) <= w(T) <= worth of the grand coalition.

The 2k+1 matching weights follow from the cycle's edge weights by a
two-step recurrence, and only the heaviest matching is built edge by
edge, so a cycle of length L costs O(L).

Every identity is asserted exactly on every run, each by one checker
that returns its problems as a list, as `check_certificate` does for
the kernel: `check_fold`, `check_cycle` per odd cycle and
`check_payout`. A live run raises InvariantViolation on a checker's
first problem: the upstream solution was not optimal.
`audit_pipeline` runs the same checkers on a finished trace, so it
re-checks all a live run checks, the fold's degree bound, every cycle
identity and the factor bound included. The checks compare integers
only: the doubled cover v2, each factor as the pair (2k, 2k+1) read
off the cycle lengths, and the payouts as numerators over one scale.
`Fraction`s are built only for the result, the factors one per
distinct cycle length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bipartite import PrimalDualCertificate, check_certificate, double_graph, solve_bipartite
from .errors import InvariantViolation
from .halfint import (
    FractionalComponents,
    HalfIntegralSolution,
    OddCycle,
    check_fold,
    decompose_components,
    fold_solution,
)
from .instances import GameInstance


@dataclass(frozen=True)
class CycleMatching:
    """One alternating matching of an odd cycle: the k alternate edges
    left after removing `removed_vertex` and its two incident edges."""

    removed_vertex: int
    edges: tuple[tuple[int, int], ...]
    weight: int


@dataclass(frozen=True)
class CycleAnalysis:
    """The weights of a cycle's 2k+1 alternating matchings and the heaviest.

    `matching_weights[j]` is w(M_j), the matching left by deleting
    `cycle.vertices[j]`. The weights come from a two-step recurrence on
    the cycle's edge weights and only `heaviest` is built edge by edge,
    so an analysis costs O(L) for a cycle of length L.
    """

    cycle: OddCycle
    matching_weights: tuple[int, ...]
    heaviest: CycleMatching


@dataclass(frozen=True)
class ImputationResult:
    """The mechanism's output: payouts, their per-vertex factors in
    [2/3, 1] and the matching backing them."""

    c: tuple[Fraction, ...]
    matching: tuple[tuple[int, int], ...]
    factors: tuple[Fraction, ...]
    worth_fractional: Fraction
    matching_weight: int
    allocated: Fraction
    factor_guarantee: Fraction

    def to_json_dict(self) -> dict:
        return {
            "values": [str(x) for x in self.c],
            "matching": [[u + 1, v + 1] for (u, v) in self.matching],
            "factors": [str(x) for x in self.factors],
            "allocated": str(self.allocated),
            "matching_weight": str(self.matching_weight),
            "fractional_optimum": str(self.worth_fractional),
            "factor_guarantee": str(self.factor_guarantee),
        }


@dataclass(frozen=True)
class PipelineTrace:
    """Every intermediate artifact of one mechanism run; all but the
    instance and the result are made of ints only."""

    instance: GameInstance
    certificate: PrimalDualCertificate
    folded: HalfIntegralSolution
    components: FractionalComponents
    analyses: tuple[CycleAnalysis, ...]
    result: ImputationResult


def analyze_cycle(cycle: OddCycle, v2) -> CycleAnalysis:
    """Weigh the 2k+1 alternating matchings of a cycle, check them with
    `check_cycle` and build the heaviest; ties for the heaviest go to
    the smallest removed vertex id."""
    verts = cycle.vertices
    length = len(verts)
    matching_weights = _matching_weights(cycle)
    problems = check_cycle(cycle, matching_weights, v2)
    if problems:
        raise InvariantViolation(problems[0])

    hw = max(matching_weights)
    best = min((verts[j], j) for j in range(length) if matching_weights[j] == hw)[1]
    edges = []
    for t in range(cycle.k):
        p = (best + 1 + 2 * t) % length
        edges.append((verts[p], verts[(p + 1) % length]))
    return CycleAnalysis(cycle, matching_weights, CycleMatching(verts[best], tuple(edges), hw))


def _matching_weights(cycle: OddCycle) -> tuple[int, ...]:
    """w(M_j) for every j, from the cycle's weights in walk order.

    Deleting vertices[j] leaves M_j, the edges at walk positions j+1,
    j+3, ..., j+2k-1 (mod L = 2k+1). So w(M_0) = weights[1] + weights[3]
    + ... + weights[2k-1], and M_{j+2} trades edge j+1 for edge j:
    w(M_{j+2}) = w(M_j) + weights[j] - weights[j+1]. L is odd, so steps
    of 2 reach every j.
    """
    weights = cycle.weights
    length = len(weights)
    matching_weights = [0] * length
    weight = sum(weights[1:length - 1:2])
    j = 0
    for _ in range(length):
        matching_weights[j] = weight
        weight += weights[j] - weights[(j + 1) % length]
        j = (j + 2) % length
    return tuple(matching_weights)


def check_cycle(cycle: OddCycle, matching_weights, v2) -> list[str]:
    """Check one odd cycle's identities in integers; [] means all hold.

    Via v2 = 2v and w_C = 2 v_C: v_{i_j} = v_C - w(M_j) at every
    vertex; the matching weights sum to 2k * v_C; the heaviest reaches
    the (2k)/(2k+1) share of v_C.
    """
    k = cycle.k
    w_C = cycle.w_C
    problems = [f"cycle cover at vertex {i}: 2v = {v2[i]} != {w_C} - 2*{weight}"
                for i, weight in zip(cycle.vertices, matching_weights)
                if v2[i] != w_C - 2 * weight]
    total = sum(matching_weights)
    if total != k * w_C:
        problems.append(f"cycle matching weights sum to {total}, expected {k * w_C}")
    hw = max(matching_weights)
    if (2 * k + 1) * hw < k * w_C:
        problems.append(f"heaviest cycle matching too light: {(2 * k + 1) * hw} < {k * w_C}")
    return problems


def _factor_pairs(n: int, odd_cycles) -> tuple[list[int], list[int]]:
    """Each vertex's factor as fnum[i] / fden[i]: 2k/(2k+1) on a cycle
    of length 2k+1, else 1/1."""
    fnum = [1] * n
    fden = [1] * n
    for cycle in odd_cycles:
        for i in cycle.vertices:
            fnum[i], fden[i] = 2 * cycle.k, 2 * cycle.k + 1
    return fnum, fden


def run_pipeline(g: GameInstance) -> PipelineTrace:
    """Run the full mechanism and retain every intermediate artifact."""
    d = double_graph(g)
    cert = solve_bipartite(d)
    folded = fold_solution(g, cert)
    comps = decompose_components(g, folded)
    analyses = tuple(analyze_cycle(cyc, folded.v2) for cyc in comps.odd_cycles)

    # c_i = f_i * v_i = fnum[i] * v2[i] / (2 * fden[i]) = pay[i] / scale
    fnum, fden = _factor_pairs(g.vertex_count, comps.odd_cycles)
    half = math.lcm(*fden)
    scale = 2 * half
    pay = [f * x * (half // d) for f, x, d in zip(fnum, folded.v2, fden)]

    matching = [g.edges[e][:2] for e in comps.integral_edges]
    matching_weight = sum(g.edges[e][2] for e in comps.integral_edges)
    for analysis in analyses:
        for (a, b) in analysis.heaviest.edges:
            matching.append((min(a, b), max(a, b)))
        matching_weight += analysis.heaviest.weight
    matching.sort()

    problems = check_payout(g, folded.v2, fnum, fden, pay, scale, matching, matching_weight)
    if problems:
        raise InvariantViolation(problems[0])

    # one Fraction per distinct factor; fden[i] is 1 or a cycle length 2k+1
    factor_of = {f: Fraction(f - 1, f) if f > 1 else Fraction(1) for f in set(fden)}
    result = ImputationResult(
        c=tuple(Fraction(x, scale) for x in pay),
        matching=tuple(matching),
        factors=tuple(factor_of[f] for f in fden),
        worth_fractional=Fraction(sum(folded.v2), 2),  # = weight(x), per the fold
        matching_weight=matching_weight,
        allocated=Fraction(sum(pay), scale),
        factor_guarantee=min(factor_of.values(), default=Fraction(1)),
    )
    return PipelineTrace(g, cert, folded, comps, analyses, result)


def check_payout(g: GameInstance, v2, fnum, fden, pay, scale: int,
                 matching, matching_weight: int) -> list[str]:
    """Check the payouts pay[i] / scale and their matching; [] means all good.

    Each payout is its vertex's factor fnum[i] / fden[i] times its cover
    v2[i] / 2. The output edges are a matching of the instance's edges
    that weighs `matching_weight`, at least the payouts' sum (the
    budget). Every edge is paid at least 2/3 of its weight and at least
    the smaller factor of its ends times its weight. A payout list of
    the wrong length skips the per-vertex and per-edge checks.
    """
    n = g.vertex_count
    per_vertex = len(pay) == n
    if per_vertex:
        problems = [f"payout at vertex {i} is not factor * cover" for i in range(n)
                    if 2 * fden[i] * pay[i] != fnum[i] * v2[i] * scale]
    else:
        problems = [f"{len(pay)} payouts for {n} vertices"]

    # the weight of each output edge, read in the one pass over the edges
    weight_of = dict.fromkeys(matching)
    under = []
    for (i, j, w) in g.edges:
        if (i, j) in weight_of:
            weight_of[i, j] = w
        if per_vertex:
            paid = pay[i] + pay[j]
            if 3 * paid < 2 * w * scale:
                under.append(f"payout covers edge ({i}, {j}) below 2/3")
            # under the smaller factor exactly when under both
            if paid * fden[i] < fnum[i] * w * scale and paid * fden[j] < fnum[j] * w * scale:
                under.append(f"payout under the factor bound on ({i}, {j})")

    weight = 0
    used = set()
    for (a, b) in matching:
        if a in used or b in used:
            problems.append(f"output edges are not a matching at ({a}, {b})")
        used.update((a, b))
        if weight_of[a, b] is None:
            problems.append(f"output edge ({a}, {b}) not in the instance")
        else:
            weight += weight_of[a, b]
    if weight != matching_weight:
        problems.append(f"matching weight {matching_weight} != output edges' total {weight}")
    if sum(pay) > matching_weight * scale:
        problems.append("payouts exceed the backing matching weight")
    return problems + under


def run_mechanism(g: GameInstance) -> ImputationResult:
    """Compute the scaled-cover payout and its backing matching."""
    return run_pipeline(g).result


def audit_pipeline(trace: PipelineTrace) -> list[str]:
    """Re-verify a finished run from its artifacts; [] means all good.

    `solve --check` runs this on the in-memory trace. It runs the live
    run's own checkers on the stored artifacts, so an audit proves what
    a live run proves, the fold's degree bound, every cycle identity
    and the factor bound included: `check_certificate`, `check_fold`,
    `check_cycle` on each stored odd cycle (its matching weights
    recomputed from its edge weights and compared with the stored
    analysis) and `check_payout` on the payouts as numerators over the
    lcm of their denominators. It also checks that the analyses are of
    the stored cycles, that every cycle vertex is a vertex of the
    instance, each factor against its vertex's cycle length, and every
    total the result stores. A list of the wrong length is reported,
    not indexed past; a cover of the wrong length ends the audit.
    """
    g = trace.instance
    n = g.vertex_count
    v2 = trace.folded.v2
    problems = check_certificate(g, trace.certificate)
    problems += check_fold(g, trace.folded.x2, v2)
    if len(v2) != n:
        return problems  # every check below reads the cover

    if tuple(a.cycle for a in trace.analyses) != trace.components.odd_cycles:
        problems.append("the stored analyses are not of the stored odd cycles")
    cycles = []
    for c, analysis in enumerate(trace.analyses):
        cycle = analysis.cycle
        outside = [i for i in cycle.vertices if not 0 <= i < n]
        if outside:
            problems.append(f"cycle vertex {outside[0]} is outside range({n})")
            continue
        weights = _matching_weights(cycle)
        if weights != analysis.matching_weights:
            problems.append(f"odd cycle {c}: stored matching weights are not its own")
        problems += check_cycle(cycle, weights, v2)
        cycles.append(cycle)

    fnum, fden = _factor_pairs(n, cycles)
    res = trace.result
    scale = math.lcm(*(x.denominator for x in res.c))
    pay = [x.numerator * (scale // x.denominator) for x in res.c]
    problems += check_payout(g, v2, fnum, fden, pay, scale, res.matching, res.matching_weight)

    if len(res.factors) != n:
        problems.append(f"{len(res.factors)} factors for {n} vertices")
    else:
        for i, f in enumerate(res.factors):
            if f.numerator * fden[i] != fnum[i] * f.denominator:
                problems.append(f"factor {f} at vertex {i} is not {Fraction(fnum[i], fden[i])}")
    if res.factor_guarantee != min(res.factors, default=1):
        problems.append(f"factor guarantee {res.factor_guarantee} is not the least factor")
    opt = res.worth_fractional
    if 2 * opt.numerator != sum(v2) * opt.denominator:
        problems.append(f"fractional optimum {opt} is not half the cover total {sum(v2)}")
    if sum(pay) * res.allocated.denominator != res.allocated.numerator * scale:
        problems.append("allocation is not the sum of the payouts")
    return problems
