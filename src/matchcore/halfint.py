"""Fold the doubled-graph solution back to the original graph.

Averaging the two doubled copies of each edge turns the bipartite
matching into a half-integral matching x (values 0, 1/2, 1) on the
original graph, and summing the two copies' duals turns them into a
cover v with v_i + v_j >= w_ij on every edge. The fold preserves total
value exactly, so weight(x) = sum(v) certifies that both are optimal;
the checked certificate already implies all three (see `fold_solution`).

Edges at value 1/2 form disjoint paths and cycles. Each path or even
cycle is a 50/50 blend of its two alternating matchings, which must be
of equal weight at an optimum. `decompose_components` walks the
half-edges once: it replaces each such blend with one of its matchings
and records the rest, vertex-disjoint odd cycles, in the same pass.
Every odd cycle C satisfies two exact identities used downstream: its
edge weight w_C equals twice its cover value v_C, and the cover on C is
uniquely determined, vertex by vertex, by the alternating matchings of
C.

Arithmetic convention: x and the cover are stored doubled, as ints on
the doubled graph's half-unit scale: x2[e] = 2 x_e in {0, 1, 2} and
v2[i] = 2 v_i, the sum of i's two copies' duals.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .bipartite import PrimalDualCertificate
from .errors import InvariantViolation
from .instances import GameInstance


class HalfIntegralSolution(NamedTuple):
    """Optimal half-integral matching and cover on the original graph.

    `x2[e]` is 2*x_e for edge index e of the instance; `v2[i]` is twice
    the cover value of vertex i.
    """

    x2: tuple[int, ...]
    v2: tuple[int, ...]


class OddCycle(NamedTuple):
    """A half-integral odd cycle: 2k+1 vertices in cyclic order.

    `weights[t]` is the weight of the edge from `vertices[t]` to the
    next vertex (the last edge closes the cycle) and `w_C` their total,
    which equals 2 v_C, the cycle's sum of `v2`.
    """

    vertices: tuple[int, ...]
    k: int
    weights: tuple[int, ...]
    w_C: int


class FractionalComponents(NamedTuple):
    """The support with half paths and even cycles resolved: odd
    cycles and integral edges."""

    odd_cycles: tuple[OddCycle, ...]
    integral_edges: tuple[int, ...]  # edge indices with x = 1


def fold_solution(g: GameInstance, cert: PrimalDualCertificate) -> HalfIntegralSolution:
    """Average the doubled matching and sum the doubled duals.

    `cert` must have passed `check_certificate`, as `solve_bipartite`'s
    output has; then the fold needs no check. x sums to at most 1 at
    vertex i: i' has one `match_l` entry, i'' is matched at most once.
    Both copies of edge (i, j) are dual feasible, which covers 2w:
    v2[i] + v2[j] = (u_i + v_j) + (u_j + v_i). The tight, distinct matched
    copies hold every nonzero dual, so 2 weight(x) = sum(v2); v2 >= 0.
    """
    match_l = cert.match_l
    x2 = [(match_l[i] == j) + (match_l[j] == i) for (i, j, _) in g.edges]
    v2 = [a + b for a, b in zip(cert.u, cert.v)]  # 2 * v_i
    return HalfIntegralSolution(tuple(x2), tuple(v2))


def _half_adjacency(g: GameInstance, x2) -> list[list[tuple[int, int]]]:
    """Per-vertex (edge index, other endpoint) lists over half-edges,
    lower-id neighbor first; a vertex with three or more is rejected."""
    half: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e, (i, j, _) in enumerate(g.edges):
        if x2[e] == 1:
            half[i].append((e, j))
            half[j].append((e, i))
    for i, lst in enumerate(half):
        if len(lst) > 2:
            raise InvariantViolation(f"vertex {i} has {len(lst)} half-edges")
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


def decompose_components(g: GameInstance,
                         s: HalfIntegralSolution) -> FractionalComponents:
    """Resolve half paths and even cycles; collect the odd cycles.

    One walker visits every vertex of the half-edges once, marking it
    seen, and each step leaves a vertex by its other half-edge. It
    starts from the degree-1 vertices, so open runs go first, each
    from its lowest-id endpoint; then every cycle is walked from its
    lowest-id vertex toward that vertex's lower-id neighbor, so the
    result is deterministic. A run or an even cycle becomes its first
    alternating matching in walk order; an odd cycle is reported in that
    canonical cyclic order and checked against the exact identity
    w_C = 2 v_C. The cover is not touched and the matching weight stays
    unchanged, since each run's two matchings weigh the same.
    """
    x2 = list(s.x2)
    half = _half_adjacency(g, x2)
    n = g.vertex_count
    seen = [False] * n
    cycles = []
    # Every run has two degree-1 ends, so once the ends are walked from,
    # what is left unseen of the half-edges is cycles.
    for a in chain((i for i in range(n) if len(half[i]) == 1), range(n)):
        if seen[a] or not half[a]:
            continue
        seen[a] = True
        e, cur = half[a][0]  # a run's one half-edge, or a cycle's lower-id neighbor
        verts, run = [a], [e]
        while not seen[cur]:
            seen[cur] = True
            verts.append(cur)
            if len(half[cur]) == 1:  # the far end of a run
                break
            first, second = half[cur]
            e, cur = second if first[0] == e else first
            run.append(e)
        if cur != a or len(run) % 2 == 0:  # a run or an even cycle
            _resolve_alternating(g, x2, run)
            continue
        weights = tuple(g.edges[e][2] for e in run)
        cycles.append(OddCycle(tuple(verts), len(run) // 2, weights, sum(weights)))

    integral = tuple(e for e, val in enumerate(x2) if val == 2)

    used = set()
    for cyc in cycles:
        if cyc.w_C != sum(s.v2[i] for i in cyc.vertices):
            raise InvariantViolation(f"cycle weight {cyc.w_C} != twice its cover")
        used.update(cyc.vertices)  # the walker puts a vertex on one cycle at most
    for e in integral:
        for i in g.edges[e][:2]:
            if i in used:
                raise InvariantViolation(f"vertex {i} on two components")
            used.add(i)

    return FractionalComponents(tuple(cycles), integral)
