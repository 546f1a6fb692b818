"""Independent brute-force oracles used only by the test suite.

Deliberately naive implementations, coded without reference to the
package internals, so that agreement with the library is meaningful.
"""

from __future__ import annotations

import itertools


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


def all_matchings(edges: list[tuple[int, int, int]]):
    """Yield every matching (as a tuple of edge indices); m <= ~16."""
    m = len(edges)
    for bits in range(1 << m):
        used = set()
        ok = True
        picked = []
        for e in range(m):
            if bits >> e & 1:
                u, v, _ = edges[e]
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
                picked.append(e)
        if ok:
            yield tuple(picked)


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
