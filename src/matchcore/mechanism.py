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
the cycle lengths, and the payouts as numerators over one scale, in the
audit too. `Fraction`s are built only for the result, one per distinct
value, and `ImputationResult.to_json_dict` makes one string per object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
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
            # share one object (see `_result`), and the tuple keeps all alive
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
    folded = fold_solution(g, cert)
    return PipelineTrace(g, cert, _result(_assemble(g, folded, decompose_components(g, folded))))


def _assemble(g: GameInstance, folded, comps) -> SimpleNamespace:
    """Pay each vertex its factor times its cover and back the payouts
    with the integral edges plus each cycle's heaviest matching (see
    `analyze_cycle`); raise on `check_payout`'s first problem. Return the
    result in integers (a namespace: a record class would add 0.2 ms to
    every import): payouts c_i = pay[i] / scale, factors f_i = fnum[i] /
    fden[i], the sorted `matching`, its `matching_weight` and the
    `totals` in `ImputationResult`'s order as (numerator, denominator)."""
    fnum, fden = [1] * g.vertex_count, [1] * g.vertex_count
    for cycle in comps.odd_cycles:
        for i in cycle.vertices:
            fnum[i], fden[i] = 2 * cycle.k, 2 * cycle.k + 1
    # c_i = f_i * v_i = fnum[i] * v2[i] / (2 * fden[i]) = pay[i] / scale
    half = math.lcm(*fden)
    scale = 2 * half
    pay = [f * x * (half // d) for f, x, d in zip(fnum, folded.v2, fden)]

    matching = [g.edges[e][:2] for e in comps.integral_edges]
    matching_weight = sum(g.edges[e][2] for e in comps.integral_edges)
    for cycle in comps.odd_cycles:
        heaviest = analyze_cycle(cycle, folded.v2)
        for (a, b) in heaviest.edges:
            matching.append((min(a, b), max(a, b)))
        matching_weight += heaviest.weight
    matching.sort()

    problems = check_payout(g, pay, scale, matching, matching_weight)
    if problems:
        raise InvariantViolation(problems[0])
    k = min((cycle.k for cycle in comps.odd_cycles), default=0)
    # weight(x) per the fold, sum(c) and the least factor, 2k/(2k+1) or 1
    totals = ((sum(folded.v2), 2), (sum(pay), scale), (2 * k or 1, 2 * k + 1))
    return SimpleNamespace(pay=pay, scale=scale, fnum=fnum, fden=fden, matching=tuple(matching),
                           matching_weight=matching_weight, totals=totals)


def _result(exact: SimpleNamespace) -> ImputationResult:
    """Build the result of `_assemble`'s integers: one `Fraction` per
    distinct payout and per distinct factor, shared by the equal values."""
    value_of = {x: Fraction(x, exact.scale) for x in set(exact.pay)}
    # a factor's denominator, 1 or 2k+1, fixes its numerator
    factor_of = {d: Fraction(f, d) for d, f in dict(zip(exact.fden, exact.fnum)).items()}
    worth, allocated, guarantee = (Fraction(*total) for total in exact.totals)
    return ImputationResult(
        c=tuple(map(value_of.__getitem__, exact.pay)),
        matching=exact.matching,
        factors=tuple(map(factor_of.__getitem__, exact.fden)),
        worth_fractional=worth,
        matching_weight=exact.matching_weight,
        allocated=allocated,
        factor_guarantee=guarantee,
    )


def check_payout(g: GameInstance, pay, scale: int, matching, matching_weight: int) -> list[str]:
    """Check the matching behind the payouts pay[i] / scale; [] means all good.

    The output edges are a matching of the instance's edges that weighs
    `matching_weight`, at least the payouts' sum (the budget). Nothing
    per vertex or per edge needs a check. `_assemble` builds pay[i] as
    f_i v_i, its factor times its cover, one entry per vertex. The
    certified cover is nonnegative and meets every edge (see
    `fold_solution`) and every factor 2k/(2k+1) is at least 2/3, so an
    edge (i, j) of weight w is paid f_i v_i + f_j v_j >= min(f_i, f_j)
    (v_i + v_j) >= min(f_i, f_j) w >= (2/3) w.
    """
    # the weight of each output edge, read in the one pass over the edges
    weight_of = dict.fromkeys(matching)
    for (i, j, w) in g.edges:
        if (i, j) in weight_of:
            weight_of[i, j] = w

    problems = []
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
    return problems


def run_mechanism(g: GameInstance) -> ImputationResult:
    """Compute the scaled-cover payout and its backing matching."""
    return run_pipeline(g).result


def audit_pipeline(trace: PipelineTrace) -> list[str]:
    """Re-verify a finished run from its certificate; [] means all good.

    `solve --check` runs this on the in-memory trace. All after the
    kernel is a function of its certificate, so the audit returns the
    problems of `check_certificate`, if any. Else it derives the fold,
    the odd cycles and the result's integers again with the live run's
    stages, which run their checks again, and compares (see `_matches`).
    Only if that fails does it build the derived result, to report
    where the stored one differs (see `_differences`).
    """
    g = trace.instance
    problems = check_certificate(g, trace.certificate)
    if problems:
        return problems
    # by `halfint.`: the benchmark times the live fold and decomposition only
    folded = halfint.fold_solution(g, trace.certificate)
    exact = _assemble(g, folded, halfint.decompose_components(g, folded))
    if _matches(trace.result, exact):
        return []
    return _differences("result", trace.result, _result(exact))


_EXACT = frozenset({int, Fraction})


def _matches(stored, exact: SimpleNamespace) -> bool:
    """Whether `stored == _result(exact)`, decided with no `Fraction` built.

    Every rational must be exactly an `int` or a `Fraction`: both keep
    their value in lowest terms with a positive denominator, so that
    `a/b == p/q` exactly when `a * q == p * b`. Any other type, a
    `bool` or a `float` among them, gives False, and the caller falls
    back to comparing the built result with `==`.
    """
    if type(stored) is not ImputationResult:
        return False
    c, factors, pay, scale = stored.c, stored.factors, exact.pay, exact.scale
    if not (type(c) is tuple and type(factors) is tuple and len(c) == len(pay) == len(factors)
            and set(map(type, c)) | set(map(type, factors)) <= _EXACT):
        return False
    totals = (stored.worth_fractional, stored.allocated, stored.factor_guarantee)
    return (stored.matching == exact.matching and stored.matching_weight == exact.matching_weight
            and all(type(x) in _EXACT and x.numerator * den == num * x.denominator
                    for x, (num, den) in zip(totals, exact.totals))
            and all(x.numerator * scale == num * x.denominator for x, num in zip(c, pay))
            and all(x.numerator * den == num * x.denominator
                    for x, num, den in zip(factors, exact.fnum, exact.fden)))


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
