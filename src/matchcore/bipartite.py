"""Vertex doubling and exact maximum-weight bipartite matching.

Every agent i is split into a left copy i' and a right copy i''; every
edge (i, j) of weight w becomes the two cross edges (i', j'') and
(i'', j'), each worth w/2. The doubled graph is bipartite by
construction (a cycle of length k maps to one of length 2k), so its
matching LP is integral and a maximum-weight matching together with
integer dual values can be computed exactly.

All doubled-graph arithmetic is done in half-units: a doubled edge
stores the original integer weight w, which stands for the true value
w/2, and the duals returned by the solver are integers on the same
scale. That convention removes every fraction from the solver.

Correctness is defined by the certificate, not the algorithm:
`check_certificate` independently verifies feasibility and the
complementary-slackness conditions, which by LP duality prove the
matching optimal against every competing matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _hungarian_py
from .errors import InvariantViolation
from .instances import GameInstance


@dataclass(frozen=True)
class DoubledGraph:
    """Bipartite double of a game instance, in half-unit weights.

    Doubled vertex ids live in one space of size 2n: the left copy of
    original vertex i is `i`, the right copy is `n + i`. Each original
    edge index e contributes the two doubled edges stored at positions
    2e and 2e+1 of `edges`.
    """

    original: GameInstance
    edges: tuple[tuple[int, int, int], ...]  # (left id, right id, stored weight)

    @property
    def vertex_count(self) -> int:
        return 2 * self.original.vertex_count

    def left_of(self, i: int) -> int:
        return i

    def right_of(self, i: int) -> int:
        return self.original.vertex_count + i


@dataclass(frozen=True)
class PrimalDualCertificate:
    """A matching on the doubled graph plus integer duals proving it optimal.

    `matched_edges` holds (left id, right id) pairs; `duals` is indexed
    by doubled vertex id and is in half-units like the edge weights.
    """

    matched_edges: frozenset[tuple[int, int]]
    duals: tuple[int, ...]

    def total_dual(self) -> int:
        return sum(self.duals)


def matched_weight(d: DoubledGraph, cert: PrimalDualCertificate) -> int:
    """Total stored weight of the certificate's matching (half-units)."""
    return sum(w for (a, b, w) in d.edges if (a, b) in cert.matched_edges)


def double_graph(g: GameInstance) -> DoubledGraph:
    """Split every vertex into a left/right pair of half-weight copies."""
    n = g.vertex_count
    doubled = []
    for (i, j, w) in g.edges:
        doubled.append((i, n + j, w))
        doubled.append((j, n + i, w))
    return DoubledGraph(g, tuple(doubled))


def solve_bipartite(d: DoubledGraph) -> PrimalDualCertificate:
    """Maximum-weight matching of the doubled graph with integer duals.

    The output is deterministic: vertices and adjacency lists are
    processed in ascending id order.
    """
    n = d.original.vertex_count
    match_l, match_r, u, v = _run_kernel(n, d.edges)

    matched = set()
    for i in range(n):
        if match_l[i] >= 0:
            matched.add((i, n + match_l[i]))
    duals = tuple(u) + tuple(v)
    cert = PrimalDualCertificate(frozenset(matched), duals)

    problems = check_certificate(d, cert)
    if problems:
        raise InvariantViolation(
            f"solver produced an invalid certificate: {problems[0]}")
    return cert


def _kernel_csr(n: int, edges) -> tuple[list[int], list[int], list[int]]:
    """CSR kernel input `(heads, rights, weights)` of doubled edges.

    Right ids are shifted down by n and zero-weight edges are dropped;
    each left vertex's neighbors are in ascending order.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b, w) in edges:
        if w > 0:
            adj[a].append((b - n, w))
    heads = [0]
    rights: list[int] = []
    weights: list[int] = []
    for i in range(n):
        adj[i].sort()
        for (j, w) in adj[i]:
            rights.append(j)
            weights.append(w)
        heads.append(len(rights))
    return heads, rights, weights


def _run_kernel(n: int, edges):
    """Build the CSR input and run the matching kernel on it."""
    heads, rights, weights = _kernel_csr(n, edges)
    return _hungarian_py.solve_max_weight_bipartite(n, n, heads, rights, weights)


def check_certificate(d: DoubledGraph, cert: PrimalDualCertificate) -> list[str]:
    """Independently verify a certificate; empty result means optimal.

    Checks, in half-unit integer arithmetic throughout:

    - the matched edges exist in the doubled graph and form a matching;
    - dual feasibility: duals are nonnegative and cover every edge;
    - tightness of every matched edge (zero reduced cost);
    - zero dual on every unmatched vertex;
    - strong duality: total matched weight equals the dual total
      (implied by the above, asserted separately as a cross-check).

    Violations are returned as data, one message per offence.
    """
    problems = []
    n2 = d.vertex_count
    duals = cert.duals
    if len(duals) != n2:
        return [f"expected {n2} duals, got {len(duals)}"]

    edge_weight = {(a, b): w for (a, b, w) in d.edges}
    degree = [0] * n2
    matched_vertex = [False] * n2
    matched_weight = 0
    for (a, b) in cert.matched_edges:
        if (a, b) not in edge_weight:
            problems.append(f"matched pair ({a}, {b}) is not a doubled edge")
            continue
        degree[a] += 1
        degree[b] += 1
        matched_vertex[a] = True
        matched_vertex[b] = True
        matched_weight += edge_weight[(a, b)]
    for x in range(n2):
        if degree[x] > 1:
            problems.append(f"vertex {x} is matched {degree[x]} times")

    for x in range(n2):
        if duals[x] < 0:
            problems.append(f"negative dual at vertex {x}")
        if duals[x] > 0 and not matched_vertex[x]:
            problems.append(f"unmatched vertex {x} has positive dual {duals[x]}")

    for (a, b, w) in d.edges:
        reduced = duals[a] + duals[b] - w
        if reduced < 0:
            problems.append(f"dual infeasible on edge ({a}, {b}): short by {-reduced}")
        elif reduced > 0 and (a, b) in cert.matched_edges:
            problems.append(f"matched edge ({a}, {b}) is not tight: slack {reduced}")

    if not problems and matched_weight != sum(duals):
        problems.append(
            f"strong duality broken: weight {matched_weight} != dual total {sum(duals)}")
    return problems
