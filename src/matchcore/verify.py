"""Independent verification oracles, exhaustive by design.

Everything here re-derives facts from first principles rather than
trusting the mechanism pipeline: coalition worths by brute-force
matching enumeration, core membership by checking every subset of
agents, the relaxation gap by comparing the integral and fractional
optima, and the structural factor guarantee from the shortest odd
cycle. Exponential enumeration is bounded and refuses to run past its
size bound rather than silently approximating. Every comparison
is an exact integer one: `check_core` reads the imputation as
numerators over the lcm of its denominators and cross-multiplies, and
builds `Fraction`s only for the report.

Costs: `check_core` in edges mode is O(m); in exhaustive mode it is
O(2^n * degree) for the subset table plus one pass over all 2^n
coalitions, in O(2^(n-1)) memory: it stores the worths of the
coalitions without the top vertex, all that the others' worths read,
and streams the rest of the worths and every coalition's allocation in
slices of at most 4,096 masks. `odd_girth` runs one breadth-first
search per vertex, over the vertices numbered from it on, each cut off
once it cannot beat the shortest odd cycle found so far; O(n * m)
stays the worst case, but a triangle ends the scan and a short odd
cycle cuts every later search.

Two deliberately different exact matchers are provided so they can be
played against each other: `worth_bruteforce` enumerates matchings
recursively with weight-bound pruning for a single coalition, while
`coalition_worth_table` computes the worths of all 2^n coalitions at
once by dynamic programming over vertex subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice
from operator import countOf, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .bipartite import double_graph, solve_bipartite
from .errors import BoundExceeded, InvariantViolation
from .instances import GameInstance

DEFAULT_MAX_EDGES = 24
DEFAULT_MAX_VERTICES = 20


class CoalitionViolation(NamedTuple):
    """A coalition whose allocation falls short of alpha * worth."""

    members: tuple[int, ...]
    worth: int
    allocated: Fraction


class CoalitionReport(NamedTuple):
    """Outcome of checking an imputation against every coalition.

    `violations` covers the per-coalition condition (allocation at
    least alpha times the coalition's worth); the budget condition
    (total allocation at most the grand coalition's worth) is reported
    separately via `budget_ok` since it can fail independently.
    `budget_ok` is None when the grand worth was out of brute-force
    reach (edges mode only).
    """

    alpha: Fraction
    mode: str
    checked_count: int
    violations: tuple[CoalitionViolation, ...]
    tight_coalitions: tuple[tuple[int, ...], ...]
    worst_ratio: Fraction | None
    total_allocated: Fraction
    grand_worth: int | None
    budget_ok: bool | None

    def ok(self) -> bool:
        return not self.violations and self.budget_ok is not False

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "mode": self.mode,
            "checked_count": self.checked_count,
            "violations": [
                {
                    "coalition": [i + 1 for i in viol.members],
                    "worth": str(viol.worth),
                    "allocated": str(viol.allocated),
                }
                for viol in self.violations
            ],
            "tight_coalitions": [
                [i + 1 for i in members] for members in self.tight_coalitions
            ],
            "worst_ratio": None if self.worst_ratio is None else str(self.worst_ratio),
            "total_allocated": str(self.total_allocated),
            "grand_worth": None if self.grand_worth is None else str(self.grand_worth),
            "budget_ok": self.budget_ok,
        }


class GapReport(NamedTuple):
    """Integral versus fractional optimum of one instance.

    `core_nonempty` is True exactly when the two optima agree; None
    means the integral optimum was out of brute-force reach, in which
    case emptiness is reported as unknown rather than guessed.
    """

    opt_integral: int | None
    opt_fractional: Fraction
    ratio: Fraction | None
    core_nonempty: bool | None

    def to_json_dict(self) -> dict:
        return {
            "opt_integral": None if self.opt_integral is None else str(self.opt_integral),
            "opt_fractional": str(self.opt_fractional),
            "ratio": None if self.ratio is None else str(self.ratio),
            "core_nonempty": "unknown" if self.core_nonempty is None
            else self.core_nonempty,
        }


def worth_bruteforce(g: GameInstance, coalition: Iterable[int] | None = None,
                     max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Exact worth of a coalition by recursive matching enumeration.

    Enumerates matchings vertex by vertex with an exact weight-bound
    prune. Zero-weight edges cannot contribute and are dropped before
    the size bound applies; coalitions with more than `max_edges`
    positive edges are refused. Members must be `int`s (not `bool`s or
    floats, which would match vertices by value).
    """
    if coalition is None:
        positive = (e for e in g.edges if e[2] > 0)
    else:
        given = tuple(coalition)
        for i in given:  # before any set: {1, True} == {1}
            if type(i) is not int:
                raise ValueError(f"coalition member {i!r} is not an int")
            if not (0 <= i < g.vertex_count):
                raise ValueError(f"vertex {i} outside the instance")
        members = set(given)
        positive = ((u, v, w) for (u, v, w) in g.edges
                    if w > 0 and u in members and v in members)
    sub = list(islice(positive, max(max_edges + 1, 0)))
    if len(sub) > max_edges:
        # counted without a list; weights are >= 0, so 0 is the only one left out
        count = (g.edge_count - countOf(map(itemgetter(2), g.edges), 0) if coalition is None
                 else len(sub) + sum(1 for _ in positive))
        raise BoundExceeded(
            f"coalition has {count} weighted edges, above the bound "
            f"{max_edges}; raise max_edges to force the enumeration")
    return _max_matching_recursive(sub)


def _max_matching_recursive(edges: list[tuple[int, int, int]]) -> int:
    if not edges:
        return 0
    verts = sorted({u for (u, _, _) in edges} | {v for (_, v, _) in edges})
    index = {x: i for i, x in enumerate(verts)}
    nv = len(verts)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    maxw = [0] * nv
    for (u, v, w) in edges:
        iu, iv = index[u], index[v]
        adj[iu].append((w, iv))
        adj[iv].append((w, iu))
        if w > maxw[iu]:
            maxw[iu] = w
        if w > maxw[iv]:
            maxw[iv] = w
    for lst in adj:
        lst.sort(key=lambda t: (-t[0], t[1]))  # heavy edges first: good incumbents

    free = [True] * nv
    best = 0

    def rec(pos: int, cur: int, pot: int) -> None:
        nonlocal best
        if cur > best:
            best = cur
        while pos < nv and not free[pos]:
            pos += 1
        if pos == nv:
            return
        # each future edge weighs at most half its endpoints' maxima
        if 2 * cur + pot <= 2 * best:
            return
        free[pos] = False
        mp = maxw[pos]
        for (w, iu) in adj[pos]:
            if free[iu]:
                free[iu] = False
                rec(pos + 1, cur + w, pot - mp - maxw[iu])
                free[iu] = True
        rec(pos + 1, cur, pot - mp)  # pos stays unmatched
        free[pos] = True

    rec(0, 0, sum(maxw))
    return best


def coalition_worth_table(g: GameInstance) -> list[int]:
    """Worth of every coalition, indexed by vertex bitmask.

    Subset dynamic programming, O(2^n * degree): independent of the
    recursive matcher above and of the solver pipeline. The table is
    built one block per vertex k, the coalitions whose highest member
    is k, in slices of at most `_SLICE` masks (`_block_slice`). The
    exhaustive `check_core` stores this table only for the instance
    without its top vertex and streams that vertex's block.
    """
    n = g.vertex_count
    _check_size(n)
    lower: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, w) in g.edges:  # normalized: u < v
        lower[v].append((u, w))
    table = [0] * (1 << n)
    for k in range(n):
        half = 1 << k
        size = min(half, _SLICE)
        for start in range(0, half, size):
            table[half + start:half + start + size] = _block_slice(
                table, lower[k], start, size)
    return table


# Masks per slice of the worth table's blocks as they are built and of
# the exhaustive check's worth and allocation streams. A slice is the
# largest list built besides the stored 2^(n-1) worths, about 160 KiB
# of distinct ints, where one full 2^n table of them is 9 MiB at n=18.
_SLICE_BITS = 12
_SLICE = 1 << _SLICE_BITS


def _check_size(n: int) -> None:
    if n > DEFAULT_MAX_VERTICES:
        raise BoundExceeded(
            f"{n} vertices need a 2^{n} table, above the bound {DEFAULT_MAX_VERTICES}")


def _block_slice(low: list[int], neighbours: list[tuple[int, int]],
                 start: int, size: int) -> list[int]:
    """Worths of the `size` coalitions `start`, `start` + 1, ... of the
    block of a vertex k, each mask taken with bit k cleared.

    `low` holds the worths of every coalition below k (at least the
    first 2^k entries), and `size` is a power of two that divides
    `start`. A coalition's worth starts as `low`'s (k stays unmatched);
    each lower neighbour j then offers w(j, k) plus the worth of the
    coalition without j and k. A bit j at or above `size` is constant
    over the slice, so the offer applies to the whole slice or to none
    of it. Below `size`, the slice's masks holding j form size/2^(j+1)
    runs of 2^j consecutive masks, or equally 2^j strides of
    size/2^(j+1) masks each; take whichever needs fewer list slices.
    """
    out = low[start:start + size]
    for (j, w) in neighbours:
        run = 1 << j
        if run >= size:
            if start & run:
                src = low[start - run:start - run + size]
                out = [x if x >= y + w else y + w for x, y in zip(out, src)]
            continue
        if 2 * run * run >= size:
            cuts = [(slice(lo, lo + run), slice(start + lo - run, start + lo))
                    for lo in range(run, size, 2 * run)]
        else:
            cuts = [(slice(run + off, size, 2 * run),
                     slice(start + off, start + size, 2 * run))
                    for off in range(run)]
        for dst, src in cuts:
            out[dst] = [x if x >= y + w else y + w for x, y in zip(out[dst], low[src])]
    return out


def _worth_slices(g: GameInstance) -> tuple[Iterable[list[int]], int]:
    """Every coalition's worth, in mask order, as a list per slice, and
    the grand coalition's worth.

    Only the coalitions without the top vertex n-1 are stored: they are
    all that the top block reads. That block is streamed in slices of
    at most `_SLICE` masks, each dropped once it has been read.
    """
    n = g.vertex_count
    if n == 0:
        return [[0]], 0
    top = n - 1
    low = coalition_worth_table(GameInstance(top, tuple(e for e in g.edges if e[1] < top)))
    neighbours = [(u, w) for (u, v, w) in g.edges if v == top]
    size = min(len(low), _SLICE)
    tops = (_block_slice(low, neighbours, start, size)
            for start in range(0, len(low), size))
    return chain([low], tops), _block_slice(low, neighbours, len(low) - 1, 1)[0]


def _allocation_slices(ci: list[int]):
    """Every coalition's summed numerators, in mask order, as a list per
    value of the bits above `_SLICE_BITS`: the sums over the low
    vertices, stored once, plus the high vertices' sum."""
    low = [0]
    for x in ci[:_SLICE_BITS]:
        low += [y + x for y in low]
    high = [0]
    for x in ci[_SLICE_BITS:]:
        high += [y + x for y in high]
    return ([y + off for y in low] for off in high)


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def check_core(g: GameInstance, c: Sequence[Fraction], alpha: Fraction,
               mode: str = "exhaustive") -> CoalitionReport:
    """Check an imputation against every coalition at level alpha.

    In exhaustive mode all 2^n coalitions are enumerated with exact
    worths from the subset table, up to `DEFAULT_MAX_VERTICES` vertices.
    In edges mode only two-agent coalitions along edges are checked,
    which is sufficient for validity (any coalition's matching
    decomposes into such pairs) but is reported as the weaker check it
    is; the grand worth is unknown past `DEFAULT_MAX_EDGES` positive
    edges. Entries and `alpha` must be `int`s or `Fraction`s (not
    floats or `bool`s).

    Both modes compare in integers: the imputation becomes numerators
    `ci` over one scale L, the lcm of its denominators, and with
    alpha = a/b a coalition S falls short exactly when
    b * sum(ci over S) < a * L * worth(S).
    """
    n = g.vertex_count
    if len(c) != n:
        raise ValueError(f"imputation has {len(c)} entries for {n} vertices")
    # `type(x)` rather than isinstance: `bool` is an `int` subclass
    for x in (*c, alpha):
        if type(x) not in (int, Fraction):
            raise ValueError(f"{x!r} is not an int or a Fraction")
    if any(x < 0 for x in c):
        raise ValueError("imputation entries must be nonnegative")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    scale = math.lcm(*(x.denominator for x in c))
    ci = [x.numerator * (scale // x.denominator) for x in c]
    total = sum(ci)

    if mode == "exhaustive":
        _check_size(n)
        worths, grand = _worth_slices(g)
        found = _compare(zip(range(1 << n), chain.from_iterable(_allocation_slices(ci)),
                             chain.from_iterable(worths)),
                         _mask_members, alpha, scale)
        checked = 1 << n
    elif mode == "edges":
        found = _compare((((i, j), ci[i] + ci[j], w) for (i, j, w) in g.edges),
                         tuple, alpha, scale)
        checked = g.edge_count
        # the brute force's refusal, decided without counting every edge
        fits = sum(1 for _ in islice(filter(itemgetter(2), g.edges),
                                     DEFAULT_MAX_EDGES + 1)) <= DEFAULT_MAX_EDGES
        grand = worth_bruteforce(g) if fits else None
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    violations, tight, worst = found
    return CoalitionReport(
        alpha=alpha, mode=mode, checked_count=checked,
        violations=violations, tight_coalitions=tight, worst_ratio=worst,
        total_allocated=Fraction(total, scale), grand_worth=grand,
        budget_ok=None if grand is None else total <= scale * grand)


def _compare(coalitions, members, alpha: Fraction, scale: int) -> tuple[
        tuple[CoalitionViolation, ...], tuple[tuple[int, ...], ...], Fraction | None]:
    """Violations, tight coalitions and the worst ratio, in one pass.

    `coalitions` yields (key, allocation as a numerator over `scale`,
    worth); `members(key)` is called only for coalitions reported.
    """
    a_scale, b = alpha.numerator * scale, alpha.denominator
    violations = []
    tight = []
    worst_num, worst_den = 1, 0  # 1/0 stands above every ratio
    for key, x, worth in coalitions:
        lhs, rhs = b * x, a_scale * worth
        if lhs < rhs:
            violations.append(CoalitionViolation(members(key), worth, Fraction(x, scale)))
        if worth:
            if lhs == rhs:
                tight.append(members(key))
            if x * worst_den < worst_num * worth:
                worst_num, worst_den = x, worth
    worst = Fraction(worst_num, scale * worst_den) if worst_den else None
    return tuple(violations), tuple(tight), worst


def integrality_gap(g: GameInstance, max_edges: int = DEFAULT_MAX_EDGES) -> GapReport:
    """Integral optimum (brute force) against the fractional optimum.

    The fractional side comes from the certified doubled-graph solve
    and works at any size; the integral side is exhaustive and may be
    refused, in which case emptiness of the core is unknown. When both
    are available the core is nonempty exactly if they coincide.
    """
    cert = solve_bipartite(double_graph(g))
    opt_f = Fraction(cert.total_dual(), 2)  # strong duality, certified
    try:
        opt_i = worth_bruteforce(g, max_edges=max_edges)
    except BoundExceeded:
        return GapReport(None, opt_f, None, None)
    if opt_i > opt_f or 3 * opt_i < 2 * opt_f:
        raise InvariantViolation(
            f"optima out of order: integral {opt_i}, fractional {opt_f}")
    ratio = Fraction(opt_i) / opt_f if opt_f > 0 else None
    return GapReport(opt_i, opt_f, ratio, opt_i == opt_f)


def odd_girth(g: GameInstance) -> int | None:
    """Length of the shortest odd cycle, or None if the graph has none.

    Breadth-first layering from every start vertex s, over the vertices
    s, s+1, ... only: a shortest odd cycle lies among the vertices from
    its lowest one on, so the search from that vertex still finds it.
    An edge joining two vertices at the same distance d from s closes
    an odd walk of length 2d+1, and the shortest such walk over all
    starts is a shortest odd cycle (an edge between levels of equal
    parity always joins one level to itself). Each search stops at the
    first such edge, or once 2d+1 can no longer beat the best cycle
    found so far, and a 3 ends the whole scan. A search that runs out
    of vertices without such an edge has explored a bipartite piece of
    the graph; no later search can reach it and none starts inside it,
    so on a bipartite graph each vertex is searched once, in O(n+m)
    overall. Zero-weight edges count as edges.
    """
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v, _) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    # One level array serves every search. -1 marks a vertex no search
    # holds; a start already searched is set to n, never a level, so
    # later searches keep to the vertices above it; a bipartite piece
    # keeps the levels its search left.
    dist = [-1] * n
    best: int | None = None
    for s in range(n):
        if dist[s] >= 0:
            continue
        found = _odd_walk_from(adj, dist, s, best)
        if found is not None:
            best = found
            if best == 3:
                break
    return best


def _odd_walk_from(adj: list[list[int]], dist: list[int], s: int,
                   bound: int | None) -> int | None:
    """Shortest odd closed walk through `s` among the vertices at level
    -1, if one is shorter than `bound`. Unless the search runs out of
    vertices, its levels are set back to -1 and `dist[s]` to n."""
    dist[s] = 0
    reached = [s]
    frontier = [s]
    d = 0
    while frontier and (bound is None or 2 * d + 1 < bound):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                dy = dist[y]
                if dy < 0:
                    dist[y] = d + 1
                    nxt.append(y)
                elif dy == d:
                    _release(dist, s, reached + nxt)
                    return 2 * d + 1
        reached += nxt
        frontier = nxt
        d += 1
    if frontier:  # cut short by the bound
        _release(dist, s, reached)
    return None


def _release(dist: list[int], s: int, reached: list[int]) -> None:
    for x in reached:
        dist[x] = -1
    dist[s] = len(dist)


def guaranteed_alpha(g: GameInstance) -> Fraction:
    """Structural factor guarantee from the odd girth.

    With no odd cycle shorter than 2k+1 the payout is a 2k/(2k+1)-
    approximate core imputation; bipartite graphs get the exact core.
    """
    girth = odd_girth(g)
    if girth is None:
        return Fraction(1)
    return Fraction(girth - 1, girth)
