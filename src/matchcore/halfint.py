"""Fold the doubled-graph solution back to the original graph.

Averaging the two doubled copies of each edge turns the bipartite
matching into a half-integral matching x (values 0, 1/2, 1) on the
original graph, and summing the two copies' duals turns them into a
cover v with v_i + v_j >= w_ij on every edge. The fold preserves total
value exactly, so weight(x) = sum(v) certifies that both are optimal;
the checked certificate already implies all three (see `fold_solution`).
Each matched copy i' - j'' adds 1/2 to x_ij. The fold keeps these pairs,
and nothing after it reads the instance's edge list.

Edges at value 1/2 form disjoint paths and cycles. Each path or even
cycle is a 50/50 blend of its two alternating matchings, which weigh
the same at an optimum. `decompose_components` takes the mutual pairs,
the edges at x = 1, in one pass, then walks the half-edges once: it
replaces each such blend with one of its matchings and records the
rest, vertex-disjoint odd cycles, in the same pass; the certificate
proves what it takes on trust. Every odd cycle C satisfies two exact
identities used downstream: its edge weight w_C equals twice its cover
value v_C, and the cover on C is uniquely determined, vertex by vertex,
by the alternating matchings of C. The cover is stored doubled, as
ints on the doubled graph's half-unit scale.
"""

from itertools import chain
from typing import NamedTuple

from .bipartite import PrimalDualCertificate


class HalfIntegralSolution(NamedTuple):
    """Optimal half-integral matching and cover on the original graph.

    `match[i]` is the j with i' matched to j'' (or -1) and `weight[i]`
    that pair's weight (0 if unmatched). `v2[i]` is twice the cover
    value of vertex i, the sum of its two copies' duals.
    """

    match: tuple[int, ...]
    weight: tuple[int, ...]
    v2: tuple[int, ...]


class OddCycle(NamedTuple):
    """A half-integral odd cycle as its walk: 2k+1 vertices in cyclic
    order and `weights[t]`, the weight of the edge from `vertices[t]` to
    the next (the last closes the cycle); k and w_C come from the walk."""

    vertices: tuple[int, ...]
    weights: tuple[int, ...]


class FractionalComponents(NamedTuple):
    """The support with half paths and even cycles resolved: odd
    cycles and integral edges."""

    odd_cycles: tuple[OddCycle, ...]
    integral: tuple[tuple[int, int, int], ...]  # sorted (i, j, w), i < j, with x = 1


def fold_solution(cert: PrimalDualCertificate) -> HalfIntegralSolution:
    """Keep each vertex's `match_l` pair and its weight; sum the duals.

    `cert` must have passed `check_certificate`, as `solve_bipartite`'s
    output has; then the fold needs no check. x sums to at most 1 at
    vertex i: i' has one `match_l` entry, i'' is matched at most once.
    Both copies of edge (i, j) are dual feasible, which covers 2w:
    v2[i] + v2[j] = (u_i + v_j) + (u_j + v_i). The tight, distinct matched
    copies hold every nonzero dual, so 2 weight(x) = sum(v2); v2 >= 0.
    Tight also means that a matched pair i' - j'' weighs u_i + v_j.
    """
    match_l, u, v = cert.match_l, cert.u, cert.v
    weight = [u[i] + v[j] if j >= 0 else 0 for i, j in enumerate(match_l)]
    v2 = [a + b for a, b in zip(u, v)]  # 2 * v_i
    return HalfIntegralSolution(tuple(match_l), tuple(weight), tuple(v2))


def decompose_components(s: HalfIntegralSolution) -> FractionalComponents:
    """Resolve half paths and even cycles; collect the odd cycles.

    The pairs i -> match[i] form a partial injection, since a right copy
    is matched at most once. So a vertex has at most one pair out and
    one in, and the pairs form vertex-disjoint runs and cycles: no
    vertex has three half-edges or lies on two components. A mutual pair
    is a 2-cycle of two halves and resolves to its edge like any even
    cycle: one pass takes every such pair and marks its ends seen. One
    walker takes the rest. It follows the injection forward, or backward
    through its inverse, marking each vertex seen. Runs go first, each
    from its lowest-id end; then each cycle from its lowest-id vertex
    toward that vertex's lower-id neighbor. A run or an even cycle
    becomes its first alternating matching in walk order, and an odd
    cycle is reported in that order.

    `s` must be the fold of a certificate that passed `check_certificate`,
    which proves what the walk takes on trust. Both copies of a mutual
    pair are tight on one edge, so its two halves weigh the same. The
    fold is optimal, so the cover is tight on every half-edge and is 0
    at a run's ends; the alternating sum of a run's or an even cycle's
    weights telescopes to 0, so its two alternating matchings weigh the
    same. On an odd cycle, `analyze_cycle` tests the cover at each vertex,
    which sums to w_C = 2 v_C, so every run still asserts that identity.
    """
    match, weight = s.match, s.weight
    n = len(match)
    # mutual pairs, at x = 1; the walker takes the rest
    integral = [(i, j, weight[j]) for i, j in enumerate(match) if i < j and match[j] == i]
    seen = [False] * n
    for i, j, _ in integral:
        seen[i] = seen[j] = True
    oneway = [i for i, j in enumerate(match) if j >= 0 and not seen[i]]
    pred = [-1] * n  # the inverse of the injection, off the pairs
    for i in oneway:
        pred[match[i]] = i
    cycles = []
    # A run's ends have a pair on one side only, so once they are walked
    # from, the one-way pairs left unseen are cycles.
    ends = (i for i in range(n) if not seen[i] and (match[i] < 0) != (pred[i] < 0))
    for a in chain(ends, oneway):
        if seen[a]:
            continue
        forward = pred[a] < 0 or 0 <= match[a] < pred[a]
        step = match if forward else pred
        seen[a] = True
        verts, weights = [a], []
        cur = a
        while (nxt := step[cur]) >= 0:
            weights.append(weight[cur if forward else nxt])
            if seen[nxt]:  # back at a: the cycle closed
                break
            seen[nxt] = True
            verts.append(nxt)
            cur = nxt
        if len(weights) == len(verts) and len(verts) % 2:
            cycles.append(OddCycle(tuple(verts), tuple(weights)))
            continue
        for t in range(0, len(weights), 2):
            i, j = verts[t], verts[(t + 1) % len(verts)]
            integral.append((min(i, j), max(i, j), weights[t]))
    integral.sort()
    return FractionalComponents(tuple(cycles), tuple(integral))
