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
adjacent to j'' exactly when i and j are neighbors, so the kernel's
row i holds i's neighbours. `double_graph` fills the rows straight
from the edge columns, in one pass over the edges by falling weight that
leaves every row by falling weight, the order in which the kernel can
stop reading a row once its weights are too small to matter.

A certificate is the kernel's own arrays: `match_l[i]` is the j with
i' matched to j'' (or -1), `u[i]` the dual of i' and `v[j]` the dual
of j''. Messages name i' as vertex `i` and j'' as vertex `n + j`.

Correctness is defined by the certificate, not the algorithm:
`check_certificate` independently verifies feasibility and the
complementary-slackness conditions against the instance's edge list,
which by LP duality proves the matching optimal against every
competing matching.
"""

from operator import itemgetter
from typing import NamedTuple

from . import _hungarian_py
from .errors import InvariantViolation
from .instances import GameInstance


class DoubledGraph(NamedTuple):
    """Bipartite double of a game instance as the kernel's rows.

    `rights[i]` lists the original ids of the right copies adjacent to
    left copy i, by falling weight, and `weights[i]` their half-unit
    weights (the original integer weights), parallel to it. Equal
    weights keep the order of the instance's edge list; the kernel's
    output does not depend on it. Zero-weight edges are left out: they
    never improve a matching.
    """

    original: GameInstance
    rights: list[list[int]]
    weights: list[list[int]]


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

    One stable sort of the edge indices by falling weight, a C-level
    gather of the edge columns in that order, then one pass that appends
    each edge to both its rows and stops at the first zero weight. Every
    row comes out by falling weight without a per-row sort.
    """
    n = g.vertex_count
    rights: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[int]] = [[] for _ in range(n)]
    us, vs, ws = g.us, g.vs, g.ws
    if len(ws) > 1:  # one edge is in order; `itemgetter` of one index gives no tuple
        us, vs, ws = map(itemgetter(*sorted(range(len(ws)), key=ws.__getitem__, reverse=True)),
                         (us, vs, ws))  # the sorted indices are freed before the rows grow
    for (u, v, w) in zip(us, vs, ws):
        if not w:
            break  # the rest weigh 0 too
        rights[u].append(v)
        weights[u].append(w)
        rights[v].append(u)
        weights[v].append(w)
    return DoubledGraph(g, rights, weights)


def solve_bipartite(d: DoubledGraph) -> PrimalDualCertificate:
    """Maximum-weight matching of the doubled graph with integer duals.

    The output is deterministic: vertices are processed in ascending
    id order, and within a row ties are taken in ascending id order
    too, so the order of equal weights in a row never shows.
    """
    match_l, _, u, v = _run_kernel(d)
    cert = PrimalDualCertificate(tuple(match_l), tuple(u), tuple(v))
    problems = check_certificate(d.original, cert)
    if problems:
        raise InvariantViolation(
            f"solver produced an invalid certificate: {problems[0]}")
    return cert


def _run_kernel(d: DoubledGraph):
    """Run the matching kernel on the doubled graph's rows."""
    return _hungarian_py.solve_max_weight_bipartite(
        d.original.vertex_count, d.rights, d.weights)


def check_certificate(g: GameInstance, cert: PrimalDualCertificate) -> list[str]:
    """Independently verify a certificate for the double of `g`; empty
    result means optimal.

    Checks, in half-unit integer arithmetic throughout, against both
    doubled copies of every edge of `g` (never the kernel's rows):

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
    for (i, j, w) in zip(g.us, g.vs, g.ws):  # the copies (i', j'') and (j', i''), in that order
        reduced = u[i] + v[j] - w
        if reduced < 0:
            problems.append(f"dual infeasible on edge ({i}, {n + j}): short by {-reduced}")
        if match_l[i] == j:
            is_edge[i] = True
            if reduced > 0:
                problems.append(f"matched edge ({i}, {n + j}) is not tight: slack {reduced}")
        reduced = u[j] + v[i] - w
        if reduced < 0:
            problems.append(f"dual infeasible on edge ({j}, {n + i}): short by {-reduced}")
        if match_l[j] == i:
            is_edge[j] = True
            if reduced > 0:
                problems.append(f"matched edge ({j}, {n + i}) is not tight: slack {reduced}")

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
