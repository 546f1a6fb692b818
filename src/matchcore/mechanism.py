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
that returns its problems as a list: `check_certificate` for the
kernel (it also certifies the fold, see `fold_solution`), `check_cycle`
per odd cycle and `check_payout` for the backing matching. A live run
raises InvariantViolation on a checker's first problem: the upstream
solution was not optimal. A run keeps only what it cannot derive: the
instance, the certificate and the result. `audit_pipeline` checks a
finished trace's certificate, derives the result from it again and
reports where the stored result differs. The checks compare integers
only: the doubled cover v2, each factor as the pair (2k, 2k+1) read off
the cycle lengths, and the payouts as numerators over one scale. Every
`Fraction` of a result comes from one bounded memo, `_fraction`, so a
result holds one object per distinct value, the audit's derived result
holds the stored one's objects, and `ImputationResult.to_json_dict`
makes one string per object.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from . import halfint
from .bipartite import PrimalDualCertificate, check_certificate, double_graph, solve_bipartite
from .errors import InvariantViolation
from .halfint import OddCycle, decompose_components, fold_solution
from .instances import GameInstance


class CycleMatching(NamedTuple):
    """One alternating matching of an odd cycle: the k alternate edges
    left after removing `removed_vertex` and its two incident edges."""

    removed_vertex: int
    edges: tuple[tuple[int, int], ...]
    weight: int


class ImputationResult(NamedTuple):
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
        def strings(values):
            # one string per distinct object, keyed by its id(): equal values
            # share one object (see `_fraction`), and the tuple keeps all alive
            text = {}
            return [text[key] if (key := id(x)) in text else text.setdefault(key, str(x))
                    for x in tuple(values)]

        return {
            "values": strings(self.c),
            "matching": [[u + 1, v + 1] for (u, v) in self.matching],
            "factors": strings(self.factors),
            "allocated": str(self.allocated),
            "matching_weight": str(self.matching_weight),
            "fractional_optimum": str(self.worth_fractional),
            "factor_guarantee": str(self.factor_guarantee),
        }


class PipelineTrace(NamedTuple):
    """What one mechanism run cannot derive: the instance, the kernel's
    certificate and the result. The fold, the odd cycles and their
    matchings are functions of the certificate (see `audit_pipeline`)."""

    instance: GameInstance
    certificate: PrimalDualCertificate
    result: ImputationResult


def analyze_cycle(cycle: OddCycle, v2) -> CycleMatching:
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
    return CycleMatching(verts[best], tuple(edges), hw)


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
    vertex, and the matching weights sum to 2k * v_C. So the heaviest,
    at least their mean, reaches the (2k)/(2k+1) share of v_C.
    """
    k = cycle.k
    w_C = cycle.w_C
    problems = [f"cycle cover at vertex {i}: 2v = {v2[i]} != {w_C} - 2*{weight}"
                for i, weight in zip(cycle.vertices, matching_weights)
                if v2[i] != w_C - 2 * weight]
    total = sum(matching_weights)
    if total != k * w_C:
        problems.append(f"cycle matching weights sum to {total}, expected {k * w_C}")
    return problems


def run_pipeline(g: GameInstance) -> PipelineTrace:
    """Run every stage of the mechanism and its checks; keep the instance,
    the certificate and the result."""
    cert = solve_bipartite(double_graph(g))
    folded = fold_solution(cert)
    return PipelineTrace(g, cert, _assemble(folded, decompose_components(folded)))


# Every `Fraction` of a result, one per (numerator, denominator): equal
# values share one object, and a result derived again from the same
# certificate holds the same objects, so `==` matches them by identity.
# The memo lives as long as the process, so it is bounded: 1,024 entries
# are over three times what one result needs on the benchmark's files
# (306 at most: its distinct payouts and factors and its 3 totals). In a
# larger result a value may be built again, and is compared by value.
@functools.lru_cache(maxsize=1024)
def _fraction(numerator: int, denominator: int) -> Fraction:
    return Fraction(numerator, denominator)


def _assemble(folded, comps) -> ImputationResult:
    """Pay each vertex its factor times its cover and back the payouts
    with the integral edges plus each cycle's heaviest matching (see
    `analyze_cycle`); raise on `check_payout`'s first problem."""
    fnum, fden = [1] * len(folded.v2), [1] * len(folded.v2)
    for cycle in comps.odd_cycles:
        for i in cycle.vertices:
            fnum[i], fden[i] = 2 * cycle.k, 2 * cycle.k + 1
    # c_i = f_i * v_i = fnum[i] * v2[i] / (2 * fden[i]) = pay[i] / scale
    half = math.lcm(*fden)
    scale = 2 * half
    pay = [f * x * (half // d) for f, x, d in zip(fnum, folded.v2, fden)]

    matching = [(i, j) for (i, j, _) in comps.integral]
    matching_weight = sum(w for (_, _, w) in comps.integral)
    for cycle in comps.odd_cycles:
        heaviest = analyze_cycle(cycle, folded.v2)
        for (a, b) in heaviest.edges:
            matching.append((min(a, b), max(a, b)))
        matching_weight += heaviest.weight
    matching.sort()

    problems = check_payout(folded, pay, scale, matching, matching_weight)
    if problems:
        raise InvariantViolation(problems[0])
    k = min((cycle.k for cycle in comps.odd_cycles), default=0)
    return ImputationResult(
        c=tuple(map(_fraction, pay, repeat(scale))),
        matching=tuple(matching),
        factors=tuple(map(_fraction, fnum, fden)),
        worth_fractional=_fraction(sum(folded.v2), 2),  # weight(x) per the fold
        matching_weight=matching_weight,
        allocated=_fraction(sum(pay), scale),
        factor_guarantee=_fraction(2 * k or 1, 2 * k + 1),  # the least factor
    )


def check_payout(folded, pay, scale: int, matching, matching_weight: int) -> list[str]:
    """Check the matching behind the payouts pay[i] / scale; [] means all good.

    The output edges are matched pairs of the fold that form a matching
    of weight `matching_weight`, at least the payouts' sum (the budget).
    `check_certificate` proved a matched copy i' - j'' a doubled edge and
    tight, so the pair is an instance edge of weight u_i + v_j. Nothing
    per vertex or per edge needs a check. `_assemble` builds pay[i] as
    f_i v_i, its factor times its cover, one entry per vertex. The
    certified cover is nonnegative and meets every edge (see
    `fold_solution`) and every factor 2k/(2k+1) is at least 2/3, so an
    edge (i, j) of weight w is paid f_i v_i + f_j v_j >= min(f_i, f_j)
    (v_i + v_j) >= min(f_i, f_j) w >= (2/3) w.
    """
    problems = []
    total = 0
    used = set()
    for (a, b) in matching:
        if a in used or b in used:
            problems.append(f"output edges are not a matching at ({a}, {b})")
        used.update((a, b))
        if folded.match[a] == b:
            total += folded.weight[a]
        elif folded.match[b] == a:
            total += folded.weight[b]
        else:
            problems.append(f"output edge ({a}, {b}) is not a matched pair of the certificate")
    if total != matching_weight:
        problems.append(f"matching weight {matching_weight} != output edges' total {total}")
    if sum(pay) > matching_weight * scale:
        problems.append("payouts exceed the backing matching weight")
    return problems


def run_mechanism(g: GameInstance) -> ImputationResult:
    """Compute the scaled-cover payout and its backing matching."""
    return run_pipeline(g).result


def audit_pipeline(trace: PipelineTrace) -> list[str]:
    """Re-verify a finished run from its certificate; [] means all good.

    `solve --check` runs this on the in-memory trace. All after the
    kernel is a function of its certificate, so the audit returns the
    problems of `check_certificate`, if any. Else it derives the fold,
    the odd cycles and the result again with the live run's stages,
    which run their checks again, and reports where the stored result
    differs (see `_differences`). The values of both come from
    `_fraction`, so on an untampered trace each pair is one object.
    """
    problems = check_certificate(trace.instance, trace.certificate)
    if problems:
        return problems
    # by `halfint.`: the benchmark times the live fold and decomposition only
    folded = halfint.fold_solution(trace.certificate)
    derived = _assemble(folded, halfint.decompose_components(folded))
    return _differences("result", trace.result, derived)


def _differences(path: str, stored, derived) -> list[str]:
    """Where `stored` differs from `derived`, one message per place.

    Tuples are compared entry by entry down to values that are not
    tuples: a record (a NamedTuple) at each of its fields, any other
    tuple at its first differing entry only. So a message names one
    place by its path, such as `result.c[2]`, or two lengths, and never
    prints a whole tuple.
    """
    if stored == derived:
        return []
    is_tuple = isinstance(derived, tuple)
    if isinstance(stored, tuple) != is_tuple:
        return [f"stored {path} is {'not a tuple' if is_tuple else 'a tuple'}"]
    if not is_tuple:
        return [f"stored {path} is {stored}; the certificate gives {derived}"]
    if len(stored) != len(derived):
        return [f"stored {path} has length {len(stored)}; the certificate gives {len(derived)}"]
    fields = getattr(derived, "_fields", None)
    problems = []
    for t, (a, b) in enumerate(zip(stored, derived)):
        if a != b:
            if fields is None:
                return _differences(f"{path}[{t}]", a, b)
            problems += _differences(f"{path}.{fields[t]}", a, b)
    return problems
