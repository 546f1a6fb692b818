"""Vertex doubling and exact maximum-weight bipartite matching.

Every agent i is split into a left copy i' and a right copy i''; every
edge (i, j) of weight w becomes the two cross edges (i', j'') and
(j', i''), each worth w/2. The doubled graph is bipartite by
construction (a cycle of length k maps to one of length 2k), so its
matching LP is integral and a maximum-weight matching together with
integer dual values can be computed exactly.

All doubled-graph arithmetic is done in half-units: a doubled edge
stores the original integer weight w, which stands for the true value
w/2, and the duals returned by the solver are integers on the same
scale. That convention removes every fraction from the solver.

The doubled graph is never listed edge by edge: left copy i' is
adjacent to j'' exactly when i and j are neighbors, so row i of the
kernel's CSR input holds i's neighbours. `double_graph` fills the rows
straight from the edge list, in one counting-sort pass over the edges
in `(u, v)` order that leaves every row ascending.

A certificate is the kernel's own arrays: `match_l[i]` is the j with
i' matched to j'' (or -1), `u[i]` the dual of i' and `v[j]` the dual
of j''. Messages name i' as vertex `i` and j'' as vertex `n + j`.

Correctness is defined by the certificate, not the algorithm:
`check_certificate` independently verifies feasibility and the
complementary-slackness conditions against the instance's edge list,
which by LP duality proves the matching optimal against every
competing matching.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from . import _hungarian_py
from .errors import InvariantViolation
from .instances import GameInstance


class DoubledGraph(NamedTuple):
    """Bipartite double of a game instance as the kernel's CSR input.

    `rights[heads[i]:heads[i+1]]` are the original ids of the right
    copies adjacent to left copy i, in ascending order, and `weights`
    holds their half-unit weights (the original integer weights).
    Zero-weight edges are left out: they never improve a matching.
    """

    original: GameInstance
    heads: list[int]
    rights: list[int]
    weights: list[int]


class PrimalDualCertificate(NamedTuple):
    """A matching on the doubled graph plus integer duals proving it optimal.

    The kernel's arrays `match_l`, `u` and `v`; see the module docstring.
    """

    match_l: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]

    def total_dual(self) -> int:
        return sum(self.u) + sum(self.v)


def double_graph(g: GameInstance) -> DoubledGraph:
    """Split every vertex into a left/right pair of half-weight copies.

    One counting sort: the positive-weight degrees give each row's
    slice of the preallocated flat arrays, then the edges are walked in
    `(u, v)` order and each fills the next free slot of both its rows.
    Row i receives its neighbours j < i (from edges (j, i), ascending in
    j) before its neighbours j > i (from edges (i, j), ascending in j),
    so every row comes out ascending without a per-row sort.
    """
    n = g.vertex_count
    degree = [0] * n
    for (u, v, w) in g.edges:
        if w > 0:
            degree[u] += 1
            degree[v] += 1
    heads = [0, *accumulate(degree)]
    free = heads[:n]  # next unfilled slot of each row
    rights = [0] * heads[n]
    weights = [0] * heads[n]
    # the pairs are distinct, so sorting never compares the weights
    for (u, v, w) in sorted(g.edges):
        if w > 0:
            s = free[u]
            rights[s] = v
            weights[s] = w
            free[u] = s + 1
            s = free[v]
            rights[s] = u
            weights[s] = w
            free[v] = s + 1
    return DoubledGraph(g, heads, rights, weights)


def solve_bipartite(d: DoubledGraph) -> PrimalDualCertificate:
    """Maximum-weight matching of the doubled graph with integer duals.

    The output is deterministic: vertices and adjacency lists are
    processed in ascending id order.
    """
    match_l, _, u, v = _run_kernel(d)
    cert = PrimalDualCertificate(tuple(match_l), tuple(u), tuple(v))
    problems = check_certificate(d.original, cert)
    if problems:
        raise InvariantViolation(
            f"solver produced an invalid certificate: {problems[0]}")
    return cert


def _run_kernel(d: DoubledGraph):
    """Run the matching kernel on the doubled graph's CSR arrays."""
    n = d.original.vertex_count
    return _hungarian_py.solve_max_weight_bipartite(n, n, d.heads, d.rights, d.weights)


def check_certificate(g: GameInstance, cert: PrimalDualCertificate) -> list[str]:
    """Independently verify a certificate for the double of `g`; empty
    result means optimal.

    Checks, in half-unit integer arithmetic throughout, against both
    doubled copies of every edge of `g` (never the kernel's CSR):

    - the matched pairs exist in the doubled graph and form a matching;
    - dual feasibility: duals are nonnegative and cover every edge;
    - tightness of every matched edge (zero reduced cost);
    - zero dual on every unmatched vertex;
    - strong duality (matched weight = dual total), implied by the above
      term by term: the distinct, tight matched copies hold every nonzero dual.

    Violations are returned as data, one message per offence.
    """
    n = g.vertex_count
    match_l, u, v = cert.match_l, cert.u, cert.v
    if not len(match_l) == len(u) == len(v) == n:
        return [f"match_l, u and v have {len(match_l)}, {len(u)}, {len(v)} entries, not {n}"]

    # Each matched pair is an edge copy at most once, in a simple graph.
    is_edge = [False] * n  # is_edge[i]: (i', match_l[i]'') is a doubled edge
    problems = []
    for (i, j, w) in g.edges:
        for (a, b) in ((i, j), (j, i)):
            reduced = u[a] + v[b] - w
            if reduced < 0:
                problems.append(
                    f"dual infeasible on edge ({a}, {n + b}): short by {-reduced}")
            if match_l[a] == b:
                is_edge[a] = True
                if reduced > 0:
                    problems.append(
                        f"matched edge ({a}, {n + b}) is not tight: slack {reduced}")

    degree_r = [0] * n
    for i in range(n):
        if is_edge[i]:
            degree_r[match_l[i]] += 1
        elif match_l[i] != -1:  # also an entry outside range(n)
            problems.append(f"left copy {i} matched to right copy {match_l[i]}: "
                            "not a doubled edge")

    # a left copy has one match_l entry, so only right copies can repeat
    for (offset, duals, matched) in ((0, u, is_edge), (n, v, degree_r)):
        for x in range(n):
            if matched[x] > 1:
                problems.append(f"vertex {offset + x} is matched {matched[x]} times")
            if duals[x] < 0:
                problems.append(f"negative dual at vertex {offset + x}")
            if duals[x] > 0 and not matched[x]:
                problems.append(
                    f"unmatched vertex {offset + x} has positive dual {duals[x]}")
    return problems
