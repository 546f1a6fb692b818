"""Re-checks of matchcore's outputs, made from the instance and the output alone.

Nothing here imports matchcore: each check re-derives what the output
claims from the benchmark's own copy of the instance, in exact
rational arithmetic. A check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction

from workloads import Instance

_FRACTION = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")


def _frac(text) -> Fraction:
    if not isinstance(text, str) or not _FRACTION.match(text):
        raise ValueError(f"not a fraction string: {text!r}")
    return Fraction(text)


def check_solve(inst: Instance, out: dict, reference: str | None = None) -> list[str]:
    """`solve --json` output: the payout, its factors and its backing matching.

    - every edge gets c_i + c_j >= factor_guarantee * w, with the
      guarantee at least 2/3 and equal to the smallest factor;
    - sum(values) = allocated <= matching_weight <= fractional_optimum;
    - the matching uses only instance edges, shares no vertex and
      weighs matching_weight;
    - the cover c_i / f_i is feasible and totals fractional_optimum;
    - fractional_optimum equals `reference` when one is given.
    """
    try:
        c = [_frac(x) for x in out["values"]]
        f = [_frac(x) for x in out["factors"]]
        allocated = _frac(out["allocated"])
        matching_weight = _frac(out["matching_weight"])
        optimum = _frac(out["fractional_optimum"])
        guarantee = _frac(out["factor_guarantee"])
        matching = [(int(a) - 1, int(b) - 1) for (a, b) in out["matching"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed solve output: {exc!r}"]
    n = inst.n
    if len(c) != n or len(f) != n:
        return [f"{len(c)} values and {len(f)} factors for {n} vertices"]
    problems = []
    if any(x < 0 for x in c):
        problems.append("negative payout")
    if any(not (0 < x <= 1) for x in f):
        problems.append("factor outside (0, 1]")
    if guarantee != min(f, default=Fraction(1)) or guarantee < Fraction(2, 3):
        problems.append(f"factor_guarantee {guarantee} is not the smallest factor >= 2/3")
    if problems:
        return problems

    v = [ci / fi for ci, fi in zip(c, f)]
    weight = {}
    for (i, j, w) in inst.edges:
        weight[(i, j)] = w
        if c[i] + c[j] < guarantee * w:
            problems.append(f"edge ({i + 1}, {j + 1}) paid below factor_guarantee")
        if v[i] + v[j] < w:
            problems.append(f"cover misses edge ({i + 1}, {j + 1})")
    if sum(c) != allocated:
        problems.append(f"values sum to {sum(c)}, allocated says {allocated}")
    if sum(v) != optimum:
        problems.append(f"cover totals {sum(v)}, fractional_optimum says {optimum}")
    if not (allocated <= matching_weight <= optimum):
        problems.append(f"budget order broken: {allocated} <= {matching_weight} <= {optimum}")

    used = set()
    total = 0
    for (a, b) in matching:
        key = (min(a, b), max(a, b))
        if key not in weight:
            problems.append(f"matched pair ({a + 1}, {b + 1}) is not an edge")
            continue
        if a in used or b in used:
            problems.append(f"matching reuses a vertex at ({a + 1}, {b + 1})")
        used.update(key)
        total += weight[key]
    if total != matching_weight:
        problems.append(f"matching weighs {total}, matching_weight says {matching_weight}")

    if reference is not None and optimum != _frac(reference):
        problems.append(f"fractional_optimum {optimum} != reference {reference}")
    return problems


def check_verify(inst: Instance, out: dict, solved: dict, exhaustive: bool) -> list[str]:
    """`verify` output for the payout `solved` at its own factor guarantee."""
    try:
        alpha = _frac(out["alpha"])
        total = _frac(out["total_allocated"])
        checked = out["checked_count"]
        violations = out["violations"]
        budget_ok = out["budget_ok"]
        grand = out["grand_worth"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed verify output: {exc!r}"]
    problems = []
    if alpha != _frac(solved["factor_guarantee"]):
        problems.append(f"verified at alpha {alpha}, not the payout's guarantee")
    if total != _frac(solved["allocated"]):
        problems.append(f"total_allocated {total} != allocated {solved['allocated']}")
    if violations:
        problems.append(f"{len(violations)} coalition violations reported")
    expected = (1 << inst.n) if exhaustive else len(inst.edges)
    if checked != expected:
        problems.append(f"checked {checked} coalitions, expected {expected}")
    if exhaustive:
        if budget_ok is not True or grand is None:
            problems.append(f"exhaustive budget check missing or failed: {budget_ok}")
        elif not (_frac(solved["matching_weight"]) <= _frac(grand)
                  <= _frac(solved["fractional_optimum"])):
            problems.append(f"grand worth {grand} outside [matching_weight, optimum]")
    elif budget_ok is False:
        problems.append("budget check failed")
    return problems


def check_gap(out: dict, solved: dict, grand_worth: str | None) -> list[str]:
    """`gap` output: the fractional side matches the solve; the integral
    side, found by a different brute force, matches `verify`'s grand worth."""
    try:
        opt_f = _frac(out["opt_fractional"])
        opt_i = _frac(out["opt_integral"])
        ratio = _frac(out["ratio"]) if opt_f else None
        nonempty = out["core_nonempty"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed gap output: {exc!r}"]
    problems = []
    if opt_f != _frac(solved["fractional_optimum"]):
        problems.append(f"opt_fractional {opt_f} != solve's fractional_optimum")
    if grand_worth is not None and opt_i != _frac(grand_worth):
        problems.append(f"opt_integral {opt_i} != exhaustive grand worth {grand_worth}")
    if opt_f and ratio != opt_i / opt_f:
        problems.append(f"ratio {ratio} != {opt_i}/{opt_f}")
    if nonempty is not (opt_i == opt_f):
        problems.append(f"core_nonempty {nonempty} disagrees with the optima")
    return problems


def odd_girth(inst: Instance) -> int | None:
    """Shortest odd cycle, by a different method than matchcore's.

    Returns the length known by construction when there is one, 3 when
    some edge closes a triangle, and otherwise the shortest odd closed
    walk: breadth-first search on the bipartite double cover from (s, 0)
    to (s, 1), minimised over s. None means the graph is bipartite.
    """
    if inst.odd_girth is not None:
        return inst.odd_girth
    n = inst.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v, _) in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
    if any(adj[u] & adj[v] for (u, v, _) in inst.edges):
        return 3
    best = None
    for s in range(n):
        dist = [[-1] * n, [-1] * n]
        dist[0][s] = 0
        frontier = [(s, 0)]
        depth = 0
        while frontier and dist[1][s] < 0 and (best is None or depth + 1 < best):
            depth += 1
            nxt = []
            for (x, side) in frontier:
                for y in adj[x]:
                    if dist[1 - side][y] < 0:
                        dist[1 - side][y] = depth
                        nxt.append((y, 1 - side))
            frontier = nxt
        if dist[1][s] >= 0 and (best is None or dist[1][s] < best):
            best = dist[1][s]
    return best


def expected_alpha(inst: Instance) -> Fraction:
    girth = odd_girth(inst)
    return Fraction(1) if girth is None else Fraction(girth - 1, girth)
