"""Independent brute-force oracles used only by the test suite.

Deliberately naive implementations, coded without reference to the
package internals, so that agreement with the library is meaningful.
The `reference_*` functions are earlier versions of library code, kept
unchanged so that faster rewrites can be held to their exact output.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Iterator

from matchcore import instances
from matchcore.errors import BoundExceeded, InstanceFormatError, InvariantViolation
from matchcore.instances import GameInstance
from matchcore.halfint import FractionalComponents, HalfIntegralSolution, OddCycle
from matchcore.mechanism import CycleMatching
from matchcore.verify import CoalitionReport, CoalitionViolation, worth_bruteforce


def fold_x2(g, s: HalfIntegralSolution) -> tuple[int, ...]:
    """2 x_e for each edge e of g under a fold's `match`: 2 on a mutual
    pair, 1 on a one-way pair and 0 elsewhere, as `reference_normalize`
    reads it."""
    match = s.match
    return tuple((match[i] == j) + (match[j] == i) for (i, j, _) in g.edges)


def solution_weight2(g, s) -> int:
    """Twice the matching weight of x (exact integer), with the weights
    read from g's edge list, not from the fold. `s` is a fold or a
    `ReferenceHalfIntegralSolution`, which carries its x2."""
    x2 = s.x2 if isinstance(s, ReferenceHalfIntegralSolution) else fold_x2(g, s)
    return sum(w * x for (_, _, w), x in zip(g.edges, x2))


def max_matching_by_edge_subsets(edges: list[tuple[int, int, int]]) -> int:
    """Maximum-weight matching by trying every subset of edges (m <= ~16)."""
    best = 0
    m = len(edges)
    for bits in range(1 << m):
        used = set()
        weight = 0
        ok = True
        for e in range(m):
            if bits >> e & 1:
                u, v, w = edges[e]
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
                weight += w
        if ok and weight > best:
            best = weight
    return best


def bipartite_max_weight_dp(nl: int, nr: int,
                            edges: list[tuple[int, int, int]]) -> int:
    """Maximum-weight bipartite matching by DP over right-side subsets.

    `edges` are (left, right, weight) with 0-based ids per side.
    Exact for nr up to ~16.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nl)]
    for (i, j, w) in edges:
        adj[i].append((j, w))
    dp = [0] * (1 << nr)
    for i in range(nl):
        new = dp[:]  # leaving i unmatched
        for mask in range(1 << nr):
            base = dp[mask]
            for (j, w) in adj[i]:
                if not (mask >> j & 1):
                    cand = base + w
                    grown = mask | (1 << j)
                    if cand > new[grown]:
                        new[grown] = cand
        dp = new
    return max(dp)


def doubled_edges(edges: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Both cross copies (i', j'') and (j', i'') of every edge (i, j, w).

    Returned as (left, right, weight) with 0-based ids per side, the
    input format of `bipartite_max_weight_dp`.
    """
    out = []
    for (i, j, w) in edges:
        out.append((i, j, w))
        out.append((j, i, w))
    return out


def alternating_matching(vertices, j: int) -> tuple[tuple[int, int], ...]:
    """M_j of an odd cycle walked as `vertices`: every other edge after
    vertices[j], the k edges left when vertices[j] is deleted."""
    length = len(vertices)
    return tuple((vertices[(j + 1 + 2 * t) % length], vertices[(j + 2 + 2 * t) % length])
                 for t in range(length // 2))


def components(n: int, pairs: list[tuple[int, int]]) -> list[set[int]]:
    """Connected components of an undirected graph, by repeated BFS."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        frontier = [s]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.add(y)
                    frontier.append(y)
        out.append(comp)
    return out


def reference_max_weight_bipartite(
        nl: int,
        nr: int,
        heads: list[int],
        rights: list[int],
        weights: list[int],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The matching kernel as it was before its stages followed the tree.

    Same contract and same primal-dual algorithm as
    `matchcore._hungarian_py.solve_max_weight_bipartite`, but every
    stage allocates fresh O(nr) arrays and every dual adjustment scans
    all nr right vertices. The library kernel must return the identical
    `(match_l, match_r, u, v)`; this copy is the reference for that.

    `heads` has nl+1 offsets; `rights[heads[i]:heads[i+1]]` are the
    right neighbors of left vertex i in ascending order and `weights`
    is parallel to `rights`.
    """
    u = [0] * nl
    for i in range(nl):
        mx = 0
        for t in range(heads[i], heads[i + 1]):
            if weights[t] > mx:
                mx = weights[t]
        u[i] = mx
    v = [0] * nr
    match_l = [-1] * nl
    match_r = [-1] * nr
    if not weights:
        return match_l, match_r, u, v
    infinity = 4 * max(weights) + 1  # larger than any reachable slack

    for s in range(nl):
        if u[s] == 0:
            continue
        # slack[j] = min reduced cost u[i]+v[j]-w over tree-left i;
        # way[j] = the left vertex attaining it (tree predecessor).
        slack = [infinity] * nr
        way = [-1] * nr
        in_tree_r = [False] * nr
        tree_left = [s]
        # Minimum dual among tree-left vertices: the cost of ending the
        # stage by dropping that vertex out of the matching.
        null_min = u[s]
        null_arg = s
        tq: list[int] = []  # right vertices whose slack reached 0
        tqh = 0
        us = u[s]
        for t in range(heads[s], heads[s + 1]):
            j = rights[t]
            r = us + v[j] - weights[t]
            if r < slack[j]:
                slack[j] = r
                way[j] = s
                if r == 0:
                    tq.append(j)

        end_right = -1
        drop_left = -1
        while True:
            while tqh < len(tq):
                j = tq[tqh]
                tqh += 1
                if in_tree_r[j] or slack[j] != 0:
                    continue
                if match_r[j] == -1:
                    end_right = j  # free right vertex reached: augment
                    break
                in_tree_r[j] = True
                i2 = match_r[j]
                tree_left.append(i2)
                ui2 = u[i2]
                if ui2 < null_min:
                    null_min = ui2
                    null_arg = i2
                for t in range(heads[i2], heads[i2 + 1]):
                    j2 = rights[t]
                    if not in_tree_r[j2]:
                        r = ui2 + v[j2] - weights[t]
                        if r < slack[j2]:
                            slack[j2] = r
                            way[j2] = i2
                            if r == 0:
                                tq.append(j2)
            if end_right >= 0:
                break
            # No tight edge leaves the tree: lower the tree duals by the
            # smallest amount that creates one (or zeroes a tree dual).
            delta = null_min
            for j in range(nr):
                if not in_tree_r[j] and slack[j] < delta:
                    delta = slack[j]
            if delta > 0:
                for i in tree_left:
                    u[i] -= delta
                null_min -= delta
                for j in range(nr):
                    if in_tree_r[j]:
                        v[j] += delta
                    else:
                        sj = slack[j] - delta
                        slack[j] = sj
                        if sj == 0 and way[j] >= 0:
                            tq.append(j)
            if null_min == 0 and tqh == len(tq):
                drop_left = null_arg  # this vertex leaves the matching
                break

        if end_right >= 0:
            j = end_right
        elif drop_left != s:
            j = match_l[drop_left]
            match_l[drop_left] = -1
        else:
            continue  # s stays unmatched at dual 0
        while True:
            i = way[j]
            pj = match_l[i]
            match_l[i] = j
            match_r[j] = i
            if i == s:
                break
            j = pj

    return match_l, match_r, u, v


def odd_girth_by_double_cover(n: int, edges) -> int | None:
    """Shortest odd cycle as the shortest path from (v, 0) to (v, 1).

    In the bipartite double cover every edge (u, v) joins (u, p) to
    (v, 1 - p). A path from (v, 0) to (v, 1) is an odd closed walk
    through v, and the shortest odd closed walk in a graph is a cycle.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v, _) in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    for s in range(n):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            x, side = queue.popleft()
            if (x, side) == (s, 1):
                break
            for y in adj[x]:
                if (y, 1 - side) not in dist:
                    dist[y, 1 - side] = dist[x, side] + 1
                    queue.append((y, 1 - side))
        if (s, 1) in dist and (best is None or dist[s, 1] < best):
            best = dist[s, 1]
    return best


def reference_coalition_worth_table(g, max_n: int = 20) -> list[int]:
    """`matchcore.verify.coalition_worth_table` as it was when it filled
    the table one mask at a time, by lowest member."""
    n = g.vertex_count
    if n > max_n:
        raise BoundExceeded(
            f"{n} vertices need a 2^{n} table, above the bound {max_n}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, w) in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        best = table[rest]
        for (j, w) in adj[low]:
            bit = 1 << j
            if rest & bit:
                cand = w + table[rest ^ bit]
                if cand > best:
                    best = cand
        table[mask] = best
    return table


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def reference_check_core(g, c, alpha, mode: str = "exhaustive",
                         max_n: int = 20, max_edges: int = 24) -> CoalitionReport:
    """`matchcore.verify.check_core` as it was when edges mode compared
    `Fraction`s and exhaustive mode scanned masks one at a time."""
    n = g.vertex_count
    if len(c) != n:
        raise ValueError(f"imputation has {len(c)} entries for {n} vertices")
    for x in (*c, alpha):
        if type(x) not in (int, Fraction):
            raise ValueError(f"{x!r} is not an int or a Fraction")
    c = [Fraction(x) for x in c]
    if any(x < 0 for x in c):
        raise ValueError("imputation entries must be nonnegative")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    total = sum(c, Fraction(0))

    if mode == "exhaustive":
        table = reference_coalition_worth_table(g, max_n=max_n)
        scale = math.lcm(*(x.denominator for x in c)) if c else 1
        ci = [int(x * scale) for x in c]
        alloc = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            alloc[mask] = alloc[mask ^ (1 << low)] + ci[low]
        a, b = alpha.numerator, alpha.denominator
        violations = []
        tight = []
        worst_num = worst_den = None
        for mask in range(1, 1 << n):
            worth = table[mask]
            lhs = b * alloc[mask]
            rhs = a * scale * worth
            if lhs < rhs:
                violations.append(CoalitionViolation(
                    _mask_members(mask), worth, Fraction(alloc[mask], scale)))
            if worth > 0:
                if lhs == rhs:
                    tight.append(_mask_members(mask))
                den = scale * worth
                if worst_num is None or alloc[mask] * worst_den < worst_num * den:
                    worst_num, worst_den = alloc[mask], den
        worst = None if worst_num is None else Fraction(worst_num, worst_den)
        grand = table[(1 << n) - 1]
        return CoalitionReport(
            alpha=alpha, mode=mode, checked_count=1 << n,
            violations=tuple(violations), tight_coalitions=tuple(tight),
            worst_ratio=worst, total_allocated=total,
            grand_worth=grand, budget_ok=total <= grand)

    if mode == "edges":
        violations = []
        tight = []
        worst = None
        for (i, j, w) in g.edges:
            got = c[i] + c[j]
            if got < alpha * w:
                violations.append(CoalitionViolation((i, j), w, got))
            if w > 0:
                if got == alpha * w:
                    tight.append((i, j))
                ratio = got / w
                if worst is None or ratio < worst:
                    worst = ratio
        try:
            grand = worth_bruteforce(g, max_edges=max_edges)
        except BoundExceeded:
            grand = None
        return CoalitionReport(
            alpha=alpha, mode=mode, checked_count=g.edge_count,
            violations=tuple(violations), tight_coalitions=tuple(tight),
            worst_ratio=worst, total_allocated=total, grand_worth=grand,
            budget_ok=None if grand is None else total <= grand)

    raise ValueError(f"unknown mode: {mode!r}")


@dataclass(frozen=True)
class ReferenceCycleAnalysis:
    """The analysis `matchcore.mechanism.analyze_cycle` returned when it
    held all 2k+1 alternating matchings of the cycle."""

    cycle: OddCycle
    matchings: tuple[CycleMatching, ...]
    heaviest_index: int
    heaviest_weight: int


def reference_heaviest_tiebreak(matchings) -> int:
    """Index of the heaviest matching; ties go to the smallest removed id."""
    if not matchings:
        raise ValueError("no matchings to choose from")
    best = 0
    for idx in range(1, len(matchings)):
        m = matchings[idx]
        b = matchings[best]
        if m.weight > b.weight or (m.weight == b.weight
                                   and m.removed_vertex < b.removed_vertex):
            best = idx
    return best


def reference_analyze_cycle(cycle: OddCycle, v2) -> ReferenceCycleAnalysis:
    """`matchcore.mechanism.analyze_cycle` as it was when it built all
    2k+1 alternating matchings edge by edge, O(L^2) per cycle."""
    verts = cycle.vertices
    weights = cycle.weights
    length = len(verts)
    k = cycle.k
    w_C = cycle.w_C

    matchings = []
    total = 0
    for j in range(length):
        edges = []
        weight = 0
        for t in range(k):
            p = (j + 1 + 2 * t) % length
            edges.append((verts[p], verts[(p + 1) % length]))
            weight += weights[p]
        if v2[verts[j]] != w_C - 2 * weight:
            raise InvariantViolation(
                f"cycle cover at vertex {verts[j]}: 2v = {v2[verts[j]]} != "
                f"{w_C} - 2*{weight}")
        matchings.append(CycleMatching(verts[j], tuple(edges), weight))
        total += weight
    if total != k * w_C:
        raise InvariantViolation(
            f"cycle matching weights sum to {total}, expected {k * w_C}")

    heaviest = reference_heaviest_tiebreak(matchings)
    hw = matchings[heaviest].weight
    if (2 * k + 1) * hw < k * w_C:
        raise InvariantViolation(
            f"heaviest cycle matching too light: {(2 * k + 1) * hw} < {k * w_C}")
    return ReferenceCycleAnalysis(cycle, tuple(matchings), heaviest, hw)


@dataclass(frozen=True)
class ReferenceHalfIntegralSolution:
    """`matchcore.halfint.HalfIntegralSolution` as it was when it carried
    a `normalized` flag that ordered normalization before decomposition."""

    x2: tuple[int, ...]
    v2: tuple[int, ...]
    normalized: bool


def _reference_half_adjacency(g, x2) -> list[list[tuple[int, int]]]:
    """Per-vertex (edge index, other endpoint) lists over half-edges."""
    half: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e, (i, j, _) in enumerate(g.edges):
        if x2[e] == 1:
            half[i].append((e, j))
            half[j].append((e, i))
    for lst in half:
        lst.sort(key=lambda t: t[1])
    return half


def _reference_resolve_alternating(g, x2: list[int], run: list[int]) -> None:
    """Replace a half path/even cycle by its first alternating matching."""
    keep = sum(g.edges[e][2] for pos, e in enumerate(run) if pos % 2 == 0)
    drop = sum(g.edges[e][2] for pos, e in enumerate(run) if pos % 2 == 1)
    if keep != drop:
        raise InvariantViolation(
            f"alternating matchings differ in weight ({keep} vs {drop}); "
            "the half-integral solution was not optimal")
    for pos, e in enumerate(run):
        x2[e] = 2 if pos % 2 == 0 else 0


def reference_normalize(g, s: ReferenceHalfIntegralSolution) -> ReferenceHalfIntegralSolution:
    """`matchcore.halfint.normalize` as it was before it merged into
    `decompose_components`: the first of two walks over the half-edges.

    Paths are resolved starting from their lowest-id endpoint, even
    cycles starting at their lowest-id vertex walking toward its
    lower-id neighbor, so the result is deterministic.
    """
    if s.normalized:
        return s
    x2 = list(s.x2)
    half = _reference_half_adjacency(g, x2)
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
        _reference_resolve_alternating(g, x2, run)

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
            _reference_resolve_alternating(g, x2, run)

    if sum(w * x2[e] for e, (_, _, w) in enumerate(g.edges)) != solution_weight2(g, s):
        raise InvariantViolation("normalization changed the matching weight")
    return ReferenceHalfIntegralSolution(tuple(x2), s.v2, normalized=True)


def reference_decompose_components(
        g, s: ReferenceHalfIntegralSolution) -> FractionalComponents:
    """`matchcore.halfint.decompose_components` as it was when it walked
    the half-edges a second time, after `reference_normalize`.

    Each cycle is reported with its vertices in canonical cyclic order
    (lowest id first, walking toward its lower-id neighbor) and checked
    against the exact identity w_C = 2 v_C.
    """
    if not s.normalized:
        raise ValueError("decompose_components requires a normalized solution")
    half = _reference_half_adjacency(g, s.x2)
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


def _reference_plain_digits(line: str) -> bool:
    """True when `int()` can read a token of `line` only as `-?[0-9]+`.

    On a whitespace-free ASCII token `int()` accepts exactly
    `[+-]?[0-9]+(_[0-9]+)*`, so a line that is ASCII and has no `+` and
    no `_` leaves it the form the file format allows. Without this
    check "+1_000" would read as 1000 and non-ASCII digits as numbers.
    """
    return line.isascii() and "+" not in line and "_" not in line


class _ReferenceBadEdge(ValueError):
    """`_reference_normalized_edges` rejects `edge`, item `index` of its
    input; `kind` is "type", "negative", "range", "self-loop" or
    "duplicate", and a duplicate's `first` is the index of the pair's
    first copy."""

    def __init__(self, index: int, kind: str, message: str, edge, first: int | None = None):
        super().__init__(message)
        self.index = index
        self.kind = kind
        self.edge = edge
        self.first = first


def _reference_normalized_edges(n: int, edges) -> tuple[tuple[int, int, int], ...]:
    """Check every edge in input order and return them with `u < v`.

    Raises `_ReferenceBadEdge` at the first edge that fails: a non-`int` endpoint or weight, a negative
    weight, an endpoint outside `range(n)`, a self-loop or a repeated
    vertex pair. Each edge is checked as soon as `edges` yields it, so a
    generator's later items are never read past a bad one. An edge that
    already is a plain `tuple` with `u < v` is stored as given, so a
    parsed instance holds one tuple per edge.
    """
    normalized = []
    seen = set()
    for idx, edge in enumerate(edges):
        u, v, w = edge
        # `type(x) is int` also rules out `bool`, an `int` subclass
        if type(u) is not int or type(v) is not int:
            raise _ReferenceBadEdge(idx, "type", f"an endpoint of edge ({u!r}, {v!r}) is not an int", edge)
        if type(w) is not int:
            raise _ReferenceBadEdge(idx, "type", f"weight {w!r} on edge ({u}, {v}) is not an int", edge)
        if w < 0:
            raise _ReferenceBadEdge(idx, "negative", f"negative weight on edge ({u}, {v})", edge)
        if not (0 <= u < n and 0 <= v < n):
            raise _ReferenceBadEdge(idx, "range", f"edge ({u}, {v}) out of range", edge)
        if u == v:
            raise _ReferenceBadEdge(idx, "self-loop", f"self-loop at vertex {u}", edge)
        if u > v:
            u, v = v, u
        key = u * n + v  # one int per pair, as 0 <= u < v < n
        if key in seen:
            first = next(i for i, (a, b, _) in enumerate(normalized) if a == u and b == v)
            raise _ReferenceBadEdge(idx, "duplicate", f"duplicate edge ({u}, {v})", edge, first)
        seen.add(key)
        # a reversed edge, a list or a tuple subclass becomes a plain tuple
        normalized.append(edge if type(edge) is tuple and edge[0] == u else (u, v, w))
    return tuple(normalized)


def reference_parse_instance(text: str) -> GameInstance:
    """`matchcore.instances.parse_instance` as it was when it read every
    edge line one at a time and checked each edge as it was read.

    Every rejection names the offending 1-based line, numbered as
    `text.splitlines()` numbers them. `_reference_records` reads the
    syntax one line at a time; its first record is the header and the
    rest, the edges, stream into `_reference_normalized_edges`, which
    checks each one as it is read. So the first fault in the file is
    the one reported, and nothing past it is read. The bounds are read
    from `matchcore.instances` at each call.
    """
    records = _reference_records(text)
    n, m, header_line = next(records)
    instances._check_bounds(f"line {header_line}: header declares", n, m)
    try:
        g = GameInstance(n, _reference_normalized_edges(n, islice(records, instances.MAX_EDGES + 1)))
    except _ReferenceBadEdge as bad:
        u, v, w = bad.edge
        lineno, line = _reference_edge_line(text, bad.index)
        if bad.kind == "negative":
            reason = f"negative weight {w}"
        elif bad.kind == "range":
            reason = f"vertex id out of range in {line!r}"
        elif bad.kind == "self-loop":
            reason = f"self-loop at vertex {u + 1}"
        else:  # a duplicate: parsed numbers are always ints
            reason = (f"duplicate edge ({u + 1}, {v + 1}), "
                      f"first seen at line {_reference_edge_line(text, bad.first)[0]}")
        raise InstanceFormatError(lineno, reason) from None
    if g.edge_count > instances.MAX_EDGES:
        raise BoundExceeded(f"line {_reference_edge_line(text, instances.MAX_EDGES)[0]}: more than "
                            f"{instances.MAX_EDGES} edge lines, above the bound")
    if g.edge_count > m:
        raise InstanceFormatError(
            _reference_edge_line(text, m)[0], f"more edge lines than the {m} declared")
    if g.edge_count < m:
        raise InstanceFormatError(
            header_line, f"header declares {m} edges but {g.edge_count} found")
    return g


def _reference_records(text: str) -> Iterator[tuple[int, int, int]]:
    """The parsed lines of `text`: first the header `(n, m, line)`, then
    one `(u, v, w)` per edge line, with 0-based endpoints, in file order.

    Reads the syntax only. A line that breaks it raises
    `InstanceFormatError` when the reader gets to it, so an edge before
    it has already been checked.
    """
    n = None
    for lineno, raw in enumerate(_reference_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if fields[0] == "e":  # nearly every line, so tested first
            if n is None:
                raise InstanceFormatError(lineno, "edge before header")
            if len(fields) != 4 or not _reference_plain_digits(line):
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            yield u - 1, v - 1, w
        elif fields[0] == "p":
            if n is not None:
                raise InstanceFormatError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "mg" or not _reference_plain_digits(line):
                raise InstanceFormatError(lineno, f"malformed header: {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(lineno, f"malformed header: {line!r}")
            if n < 0 or m < 0:
                raise InstanceFormatError(lineno, "negative count in header")
            yield n, m, lineno
        else:
            raise InstanceFormatError(lineno, f"unknown directive: {fields[0]!r}")
    if n is None:
        raise InstanceFormatError(1, "missing header")


_REFERENCE_PIECE = 1 << 16  # characters of text split into lines at a time


def _reference_lines(text: str) -> Iterator[str]:
    """The lines of `text`, as `text.splitlines()` gives them, without a
    list of them all: the text is split one piece at a time.

    Every piece but the last ends just after a "\\n", so no line break,
    "\\r\\n" included, straddles two pieces and the lines and their
    numbering are exactly those of `text.splitlines()`.
    """
    def pieces() -> Iterator[str]:
        start, size = 0, len(text)
        while start < size:
            end = text.find("\n", start + _REFERENCE_PIECE)
            end = size if end < 0 else end + 1
            yield text[start:end]
            start = end

    return chain.from_iterable(map(str.splitlines, pieces()))


def _reference_edge_line(text: str, index: int) -> tuple[int, str]:
    """Line number and stripped text of edge line `index` (0-based) of a
    file whose lines up to that one parse.

    The parse keeps no line number per edge; only its error paths need
    one, and they read the text again up to the edge.
    """
    edge_lines = ((lineno, raw) for lineno, raw in enumerate(_reference_lines(text), start=1)
                  if raw.split(maxsplit=1)[:1] == ["e"])
    lineno, raw = next(islice(edge_lines, index, None))
    return lineno, raw.strip()
