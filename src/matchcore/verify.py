"""Independent verification oracles, exhaustive by design.

Everything here re-derives facts from first principles rather than
trusting the mechanism pipeline: coalition worths by brute-force
matching enumeration, core membership by checking every subset of
agents, the relaxation gap by comparing the integral and fractional
optima, and the structural factor guarantee from the shortest odd
cycle. Exponential enumeration is bounded and refuses to run past its
configured size rather than silently approximating; every comparison
is an exact integer or rational one.

Two deliberately different exact matchers are provided so they can be
played against each other: `worth_bruteforce` enumerates matchings
recursively with weight-bound pruning for a single coalition, while
`coalition_worth_table` computes the worths of all 2^n coalitions at
once by dynamic programming over vertex subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .bipartite import double_graph, solve_bipartite
from .errors import BoundExceeded, InvariantViolation
from .instances import GameInstance
from .rationals import format_fraction

DEFAULT_MAX_EDGES = 24
DEFAULT_MAX_VERTICES = 20


@dataclass(frozen=True)
class CoalitionViolation:
    """A coalition whose allocation falls short of alpha * worth."""

    members: tuple[int, ...]
    worth: int
    allocated: Fraction


@dataclass(frozen=True)
class CoalitionReport:
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
            "alpha": format_fraction(self.alpha),
            "mode": self.mode,
            "checked_count": self.checked_count,
            "violations": [
                {
                    "coalition": [i + 1 for i in viol.members],
                    "worth": format_fraction(viol.worth),
                    "allocated": format_fraction(viol.allocated),
                }
                for viol in self.violations
            ],
            "tight_coalitions": [
                [i + 1 for i in members] for members in self.tight_coalitions
            ],
            "worst_ratio": None if self.worst_ratio is None
            else format_fraction(self.worst_ratio),
            "total_allocated": format_fraction(self.total_allocated),
            "grand_worth": None if self.grand_worth is None
            else format_fraction(self.grand_worth),
            "budget_ok": self.budget_ok,
        }


@dataclass(frozen=True)
class GapReport:
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
            "opt_integral": None if self.opt_integral is None
            else format_fraction(self.opt_integral),
            "opt_fractional": format_fraction(self.opt_fractional),
            "ratio": None if self.ratio is None else format_fraction(self.ratio),
            "core_nonempty": "unknown" if self.core_nonempty is None
            else self.core_nonempty,
        }


def worth_bruteforce(g: GameInstance, coalition: Iterable[int] | None = None,
                     max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Exact worth of a coalition by recursive matching enumeration.

    Enumerates matchings vertex by vertex with an exact weight-bound
    prune. Zero-weight edges cannot contribute and are dropped before
    the size bound applies; coalitions with more than `max_edges`
    positive edges are refused.
    """
    if coalition is None:
        sub = [e for e in g.edges if e[2] > 0]
    else:
        members = set(coalition)
        for i in members:
            if not (0 <= i < g.vertex_count):
                raise ValueError(f"vertex {i} outside the instance")
        sub = [(u, v, w) for (u, v, w) in g.edges
               if w > 0 and u in members and v in members]
    if len(sub) > max_edges:
        raise BoundExceeded(
            f"coalition has {len(sub)} weighted edges, above the bound "
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


def coalition_worth_table(g: GameInstance,
                          max_n: int = DEFAULT_MAX_VERTICES) -> list[int]:
    """Worth of every coalition, indexed by vertex bitmask.

    Subset dynamic programming, O(2^n * degree): independent of the
    recursive matcher above and of the solver pipeline.
    """
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


def check_core(g: GameInstance, c: Sequence[Fraction], alpha: Fraction,
               mode: str = "exhaustive", max_n: int = DEFAULT_MAX_VERTICES,
               max_edges: int = DEFAULT_MAX_EDGES) -> CoalitionReport:
    """Check an imputation against every coalition at level alpha.

    In exhaustive mode all 2^n coalitions are enumerated with exact
    worths from the subset table. In edges mode only two-agent
    coalitions along edges are checked, which is sufficient for
    validity (any coalition's matching decomposes into such pairs) but
    is reported as the weaker check it is; the grand worth may then be
    unknown if the instance is past brute-force reach. Entries and
    `alpha` must be `int`s or `Fraction`s (not floats or `bool`s).
    """
    n = g.vertex_count
    if len(c) != n:
        raise ValueError(f"imputation has {len(c)} entries for {n} vertices")
    # `type(x)` rather than isinstance: `bool` is an `int` subclass
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
        table = coalition_worth_table(g, max_n=max_n)
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

    Breadth-first layering from every start vertex: an edge joining two
    vertices whose distances from the start have equal parity closes an
    odd walk, and the shortest such walk over all starts is a shortest
    odd cycle.
    """
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v, _) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    best: int | None = None
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        for (u, v, _) in g.edges:
            du, dv = dist[u], dist[v]
            if du >= 0 and dv >= 0 and (du + dv) % 2 == 0:
                cand = du + dv + 1
                if best is None or cand < best:
                    best = cand
    return best


def guaranteed_alpha(g: GameInstance) -> Fraction:
    """Structural factor guarantee from the odd girth.

    With no odd cycle shorter than 2k+1 the payout is a 2k/(2k+1)-
    approximate core imputation; bipartite graphs get the exact core.
    """
    girth = odd_girth(g)
    if girth is None:
        return Fraction(1)
    return Fraction(girth - 1, girth)
