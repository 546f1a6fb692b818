"""Fold the doubled-graph solution back to the original graph.

Averaging the two doubled copies of each edge turns the bipartite
matching into a half-integral matching x (values 0, 1/2, 1) on the
original graph, and summing the two copies' duals turns them into a
cover v with v_i + v_j >= w_ij on every edge. The fold preserves total
value exactly, so weight(x) = sum(v) certifies that both are optimal.

Edges at value 1/2 form disjoint paths and cycles. Each path or even
cycle is a 50/50 blend of its two alternating matchings, which must be
of equal weight at an optimum; normalization replaces the blend with
one of them, after which the half-edges that remain form vertex-
disjoint odd cycles. Every odd cycle C satisfies two exact identities
used downstream: its edge weight w_C equals twice its cover value v_C,
and the cover on C is uniquely determined, vertex by vertex, by the
alternating matchings of C.

Arithmetic convention: x and the cover are stored doubled, as ints on
the doubled graph's half-unit scale: x2[e] = 2 x_e in {0, 1, 2} and
v2[i] = 2 v_i, the sum of i's two copies' duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipartite import DoubledGraph, PrimalDualCertificate
from .errors import InvariantViolation
from .instances import GameInstance


@dataclass(frozen=True)
class HalfIntegralSolution:
    """Optimal half-integral matching and cover on the original graph.

    `x2[e]` is 2*x_e for edge index e of the instance; `v2[i]` is twice
    the cover value of vertex i. `normalized` records whether half-edges
    have been reduced to odd cycles only.
    """

    x2: tuple[int, ...]
    v2: tuple[int, ...]
    normalized: bool


@dataclass(frozen=True)
class OddCycle:
    """A half-integral odd cycle: 2k+1 vertices in cyclic order.

    `weights[t]` is the weight of the edge from `vertices[t]` to the
    next vertex (the last edge closes the cycle) and `w_C` their total,
    which equals 2 v_C, the cycle's sum of `v2`.
    """

    vertices: tuple[int, ...]
    k: int
    weights: tuple[int, ...]
    w_C: int


@dataclass(frozen=True)
class FractionalComponents:
    """Normalized support split into odd cycles and integral edges."""

    odd_cycles: tuple[OddCycle, ...]
    integral_edges: tuple[int, ...]  # edge indices with x = 1


def solution_weight2(g: GameInstance, s: HalfIntegralSolution) -> int:
    """Twice the matching weight of x (exact integer)."""
    return sum(w * s.x2[e] for e, (_, _, w) in enumerate(g.edges))


def solution_weight(g: GameInstance, s: HalfIntegralSolution) -> Fraction:
    """Matching weight of x, equal to the fractional optimum."""
    return Fraction(solution_weight2(g, s), 2)


def fold_solution(g: GameInstance, d: DoubledGraph,
                  cert: PrimalDualCertificate) -> HalfIntegralSolution:
    """Average the doubled matching and sum the doubled duals.

    Validates, in exact arithmetic, that the fold produced a
    half-integral matching and a feasible cover of equal value; any
    failure means the certificate upstream was wrong and raises
    InvariantViolation.
    """
    n = g.vertex_count
    match_l = cert.match_l
    x2 = [(match_l[i] == j) + (match_l[j] == i) for (i, j, _) in g.edges]
    v2 = [a + b for a, b in zip(cert.u, cert.v)]  # 2 * v_i

    degree2 = [0] * n
    for e, (i, j, _) in enumerate(g.edges):
        degree2[i] += x2[e]
        degree2[j] += x2[e]
    for i in range(n):
        if degree2[i] > 2:
            raise InvariantViolation(f"vertex {i} is over-matched after folding")

    for (i, j, w) in g.edges:
        if v2[i] + v2[j] < 2 * w:
            raise InvariantViolation(
                f"folded cover violates edge ({i}, {j}): {v2[i]}+{v2[j]} < 2*{w}")

    weight2 = sum(w * x2[e] for e, (_, _, w) in enumerate(g.edges))
    if weight2 != sum(v2):
        raise InvariantViolation(
            f"strong duality lost in fold: 2*weight {weight2} != 2*cover {sum(v2)}")

    return HalfIntegralSolution(tuple(x2), tuple(v2), normalized=False)


def _half_adjacency(g: GameInstance, x2) -> list[list[tuple[int, int]]]:
    """Per-vertex (edge index, other endpoint) lists over half-edges."""
    half: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e, (i, j, _) in enumerate(g.edges):
        if x2[e] == 1:
            half[i].append((e, j))
            half[j].append((e, i))
    for lst in half:
        lst.sort(key=lambda t: t[1])
    return half


def _resolve_alternating(g: GameInstance, x2: list[int], run: list[int]) -> None:
    """Replace a half path/even cycle by its first alternating matching.

    `run` lists edge indices in walk order. The two alternating
    matchings must weigh the same (otherwise the blend was not optimal,
    which contradicts the input contract).
    """
    keep = sum(g.edges[e][2] for pos, e in enumerate(run) if pos % 2 == 0)
    drop = sum(g.edges[e][2] for pos, e in enumerate(run) if pos % 2 == 1)
    if keep != drop:
        raise InvariantViolation(
            f"alternating matchings differ in weight ({keep} vs {drop}); "
            "the half-integral solution was not optimal")
    for pos, e in enumerate(run):
        x2[e] = 2 if pos % 2 == 0 else 0


def normalize(g: GameInstance, s: HalfIntegralSolution) -> HalfIntegralSolution:
    """Reduce half-edges to odd cycles; weight and cover are unchanged.

    Paths are resolved starting from their lowest-id endpoint, even
    cycles starting at their lowest-id vertex walking toward its
    lower-id neighbor, so the result is deterministic.
    """
    if s.normalized:
        return s
    x2 = list(s.x2)
    half = _half_adjacency(g, x2)
    visited = [False] * len(g.edges)

    # Open runs first: start from every degree-1 endpoint.
    for a in range(g.vertex_count):
        if len(half[a]) != 1:
            continue
        e0, nxt = half[a][0]
        if visited[e0]:
            continue
        run = [e0]
        visited[e0] = True
        cur = nxt
        while True:
            step = [(e, o) for (e, o) in half[cur] if not visited[e]]
            if not step:
                break
            e, cur = step[0]
            visited[e] = True
            run.append(e)
        _resolve_alternating(g, x2, run)

    # Remaining half components are cycles.
    for a in range(g.vertex_count):
        start = [(e, o) for (e, o) in half[a] if not visited[e]]
        if not start:
            continue
        e0, cur = start[0]  # lowest-id unvisited vertex, lower-id neighbor first
        run = [e0]
        visited[e0] = True
        while cur != a:
            step = [(e, o) for (e, o) in half[cur] if not visited[e]]
            e, cur = step[0]
            visited[e] = True
            run.append(e)
        if len(run) < 3:
            raise InvariantViolation("two-edge half cycle in a simple graph")
        if len(run) % 2 == 0:
            _resolve_alternating(g, x2, run)

    if sum(w * x2[e] for e, (_, _, w) in enumerate(g.edges)) != solution_weight2(g, s):
        raise InvariantViolation("normalization changed the matching weight")
    return HalfIntegralSolution(tuple(x2), s.v2, normalized=True)


def decompose_components(g: GameInstance,
                         s: HalfIntegralSolution) -> FractionalComponents:
    """Collect the odd cycles and integral edges of a normalized solution.

    Each cycle is reported with its vertices in canonical cyclic order
    (lowest id first, walking toward its lower-id neighbor) and checked
    against the exact identity w_C = 2 v_C.
    """
    if not s.normalized:
        raise ValueError("decompose_components requires a normalized solution")
    half = _half_adjacency(g, s.x2)
    visited = [False] * len(g.edges)
    cycles = []

    for a in range(g.vertex_count):
        pending = [(e, o) for (e, o) in half[a] if not visited[e]]
        if not pending:
            continue
        if len(half[a]) != 2:
            raise InvariantViolation(
                f"half-edge at vertex {a} is not on a cycle (degree {len(half[a])})")
        verts = [a]
        e0, cur = pending[0]
        visited[e0] = True
        weights = [g.edges[e0][2]]
        while cur != a:
            verts.append(cur)
            if len(half[cur]) != 2:
                raise InvariantViolation(
                    f"half-edge path through vertex {cur} after normalization")
            step = [(e, o) for (e, o) in half[cur] if not visited[e]]
            e, cur = step[0]
            visited[e] = True
            weights.append(g.edges[e][2])
        length = len(verts)
        if length % 2 == 0 or length < 3:
            raise InvariantViolation(f"half cycle of even length {length}")
        w_C = sum(weights)
        if w_C != sum(s.v2[i] for i in verts):
            raise InvariantViolation(f"cycle weight {w_C} != twice its cover")
        cycles.append(OddCycle(tuple(verts), (length - 1) // 2, tuple(weights), w_C))

    integral = tuple(e for e, val in enumerate(s.x2) if val == 2)

    used = set()
    for cyc in cycles:
        for i in cyc.vertices:
            if i in used:
                raise InvariantViolation(f"vertex {i} on two components")
            used.add(i)
    for e in integral:
        for i in g.edges[e][:2]:
            if i in used:
                raise InvariantViolation(f"vertex {i} on two components")
            used.add(i)

    return FractionalComponents(tuple(cycles), integral)
