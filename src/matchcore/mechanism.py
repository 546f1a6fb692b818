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

Every identity is asserted exactly on every run; a failure would mean
the upstream solution was not optimal and raises InvariantViolation.
The checks compare integers only (the doubled cover v2, each factor
as the pair (2k, 2k+1) read off the cycle lengths, payouts by
cross-multiplication); `Fraction`s are built only for the result, the
factors one per distinct cycle length.
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
    decompose_components,
    fold_solution,
    solution_weight2,
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
    """Weigh the 2k+1 alternating matchings of a cycle and check them.

    Deleting vertices[j] leaves M_j, the edges at walk positions j+1,
    j+3, ..., j+2k-1 (mod L = 2k+1). So w(M_0) = weights[1] + weights[3]
    + ... + weights[2k-1], and M_{j+2} trades edge j+1 for edge j:
    w(M_{j+2}) = w(M_j) + weights[j] - weights[j+1]. L is odd, so steps
    of 2 reach every j. Checks, in integers via v2 = 2v and w_C = 2 v_C:
    v_{i_j} = v_C - w(M_j) at every vertex; the matching weights sum to
    2k * v_C; the heaviest reaches the (2k)/(2k+1) share of v_C. Ties
    for the heaviest go to the smallest removed vertex id.
    """
    verts = cycle.vertices
    weights = cycle.weights
    length = len(verts)
    k = cycle.k
    w_C = cycle.w_C

    matching_weights = [0] * length
    weight = sum(weights[1:length - 1:2])
    j = 0
    for _ in range(length):
        matching_weights[j] = weight
        weight += weights[j] - weights[(j + 1) % length]
        j = (j + 2) % length

    for j, weight in enumerate(matching_weights):
        if v2[verts[j]] != w_C - 2 * weight:
            raise InvariantViolation(
                f"cycle cover at vertex {verts[j]}: 2v = {v2[verts[j]]} != "
                f"{w_C} - 2*{weight}")
    total = sum(matching_weights)
    if total != k * w_C:
        raise InvariantViolation(
            f"cycle matching weights sum to {total}, expected {k * w_C}")

    hw = max(matching_weights)
    best = min((verts[j], j) for j in range(length) if matching_weights[j] == hw)[1]
    if (2 * k + 1) * hw < k * w_C:
        raise InvariantViolation(
            f"heaviest cycle matching too light: {(2 * k + 1) * hw} < {k * w_C}")
    edges = []
    for t in range(k):
        p = (best + 1 + 2 * t) % length
        edges.append((verts[p], verts[(p + 1) % length]))
    return CycleAnalysis(cycle, tuple(matching_weights),
                         CycleMatching(verts[best], tuple(edges), hw))


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

    # c_i = f_i * v_i = fnum[i] * v2[i] / (2 * fden[i])
    fnum, fden = _factor_pairs(g.vertex_count, comps.odd_cycles)
    scaled = [f * x for f, x in zip(fnum, folded.v2)]
    c = tuple(Fraction(x, 2 * f) for x, f in zip(scaled, fden))

    matching = [g.edges[e][:2] for e in comps.integral_edges]
    matching_weight = sum(g.edges[e][2] for e in comps.integral_edges)
    for analysis in analyses:
        for (a, b) in analysis.heaviest.edges:
            matching.append((min(a, b), max(a, b)))
        matching_weight += analysis.heaviest.weight
    matching.sort()

    used = [False] * g.vertex_count
    for (a, b) in matching:
        if used[a] or used[b]:
            raise InvariantViolation(f"output edges are not a matching at ({a}, {b})")
        used[a] = used[b] = True

    # sum(c) = sum(scaled[i] * (half // fden[i])) / (2 * half), half = lcm(fden)
    half = math.lcm(*fden)
    total = sum(x * (half // f) for x, f in zip(scaled, fden))
    allocated = Fraction(total, 2 * half)
    if total > 2 * half * matching_weight:
        raise InvariantViolation(
            f"allocation {allocated} exceeds its matching weight {matching_weight}")

    for (i, j, w) in g.edges:
        di, dj = fden[i], fden[j]
        pay = scaled[i] * dj + scaled[j] * di  # c_i + c_j = pay / den
        den = 2 * di * dj
        if 3 * pay < 2 * w * den:
            raise InvariantViolation(f"payout covers edge ({i}, {j}) below 2/3")
        lo = i if fnum[i] * dj <= fnum[j] * di else j  # the smaller factor
        if pay * fden[lo] < fnum[lo] * w * den:
            raise InvariantViolation(f"payout under the factor bound on ({i}, {j})")

    # one Fraction per distinct factor; fden[i] is 1 or a cycle length 2k+1
    factor_of = {f: Fraction(f - 1, f) if f > 1 else Fraction(1) for f in set(fden)}
    result = ImputationResult(
        c=c,
        matching=tuple(matching),
        factors=tuple(factor_of[f] for f in fden),
        worth_fractional=Fraction(sum(folded.v2), 2),  # = weight(x), per the fold
        matching_weight=matching_weight,
        allocated=allocated,
        factor_guarantee=min(factor_of.values(), default=Fraction(1)),
    )
    return PipelineTrace(g, cert, folded, comps, analyses, result)


def run_mechanism(g: GameInstance) -> ImputationResult:
    """Compute the scaled-cover payout and its backing matching."""
    return run_pipeline(g).result


def audit_pipeline(trace: PipelineTrace) -> list[str]:
    """Re-verify a finished run from its artifacts; [] means all good.

    Defence in depth for `solve --check`: the pipeline asserted all of
    this while it ran, but this pass re-derives it in integers from the
    instance and the stored artifacts: the certificate, strong duality,
    cover feasibility, one payout and one factor per vertex (a wrong
    count skips the per-vertex checks), each factor against its
    vertex's cycle length, each payout as factor * cover, the output
    matching and the 2/3 bound on every edge. It also recomputes every
    total the result stores (fractional optimum, matching weight,
    allocation, factor guarantee) and checks the payouts against the
    matching weight.
    """
    g = trace.instance
    problems = check_certificate(g, trace.certificate)
    v2 = trace.folded.v2
    total2 = sum(v2)
    weight2 = solution_weight2(g, trace.folded)
    if weight2 != total2:
        problems.append(f"2*weight(x) {weight2} != 2*cover total {total2}")
    res = trace.result
    opt = res.worth_fractional
    if 2 * opt.numerator != total2 * opt.denominator:
        problems.append(f"fractional optimum {opt} is not half the cover total {total2}")

    # payouts as integers over the lcm of their denominators
    scale = math.lcm(*(x.denominator for x in res.c))
    pay = [x.numerator * (scale // x.denominator) for x in res.c]
    n = g.vertex_count
    per_vertex = len(pay) == n and len(res.factors) == n
    for name, values in (("payouts", pay), ("factors", res.factors)):
        if len(values) != n:
            problems.append(f"{len(values)} {name} for {n} vertices")
    if per_vertex:
        fnum, fden = _factor_pairs(n, trace.components.odd_cycles)
        for i, f in enumerate(res.factors):
            if f.numerator * fden[i] != fnum[i] * f.denominator:
                problems.append(f"factor {f} at vertex {i} is not {Fraction(fnum[i], fden[i])}")
            if 2 * f.denominator * pay[i] != f.numerator * v2[i] * scale:
                problems.append(f"payout at vertex {i} is not factor * cover")
    if res.factor_guarantee != min(res.factors, default=1):
        problems.append(f"factor guarantee {res.factor_guarantee} is not the least factor")
    # the weight of each output edge, read in the one pass over the edges
    weight_of = {(a, b): None for (a, b) in res.matching}
    for (i, j, w) in g.edges:
        if v2[i] + v2[j] < 2 * w:
            problems.append(f"cover misses edge ({i}, {j})")
        if per_vertex and 3 * (pay[i] + pay[j]) < 2 * w * scale:
            problems.append(f"payout covers edge ({i}, {j}) below 2/3")
        if (i, j) in weight_of:
            weight_of[i, j] = w

    weight = 0
    used = set()
    for (a, b) in res.matching:
        w = weight_of[a, b]
        if w is None:
            problems.append(f"output edge ({a}, {b}) not in the instance")
        else:
            weight += w
        if a in used or b in used:
            problems.append(f"output edges clash at ({a}, {b})")
        used.update((a, b))
    if weight != res.matching_weight:
        problems.append(f"matching weight {res.matching_weight} != output edges' total {weight}")
    total = sum(pay)
    if total * res.allocated.denominator != res.allocated.numerator * scale:
        problems.append("allocation is not the sum of the payouts")
    if total > res.matching_weight * scale:
        problems.append("payouts exceed the backing matching weight")
    return problems
