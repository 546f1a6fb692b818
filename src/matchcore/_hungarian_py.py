"""Matching kernel: maximum-weight bipartite matching with duals.

Works with arbitrary-precision integers, so no weight is too large.

Contract (checked independently by `bipartite.check_certificate`):

- input is a bipartite graph in CSR form over `nl` left and `nr` right
  vertices; all weights are positive integers (drop zero-weight edges
  upstream, they can never improve a matching);
- output `(match_l, match_r, u, v)` is a matching plus integer duals
  with `u[i] + v[j] >= w(i, j)` on every edge, equality on matched
  edges, and zero dual on every unmatched vertex. By LP duality those
  conditions certify that the matching has maximum weight.

The algorithm grows a Hungarian alternating tree per left vertex. A
virtual weight-0 "stay unmatched" option plays the role of an always
free right vertex: when the dual of a tree vertex reaches zero, the
augmentation ends there and that vertex simply drops out of the
matching.

Each stage touches only the right vertices its tree has reached: a
right vertex gets a finite slack when an edge from a tree vertex first
scans it, and every dual adjustment visits just those touched vertices
plus the tree's left vertices. One adjustment therefore costs time
proportional to the vertices the tree has touched, and a stage costs
that times its adjustments plus the edges of its tree-left vertices,
however large `nr` is. The per-vertex arrays are allocated once per
solve and only the touched entries are reset between stages. The scan
order is the one a full O(nr) scan per adjustment would produce
(newly tight vertices are queued in ascending id), so the output does
not depend on this bookkeeping.
"""

from __future__ import annotations


def solve_max_weight_bipartite(
        nl: int,
        nr: int,
        heads: list[int],
        rights: list[int],
        weights: list[int],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Solve the CSR-form bipartite instance; see the module docstring.

    `heads` has nl+1 offsets; `rights[heads[i]:heads[i+1]]` are the
    distinct right neighbors of left vertex i in ascending order and
    `weights` is parallel to `rights`.
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

    # slack[j] = min reduced cost u[i]+v[j]-w over tree-left i;
    # way[j] = the left vertex attaining it (tree predecessor). Between
    # stages every slack is infinity and no vertex is in the tree; `way`
    # is read only at vertices the current stage touched, so it keeps
    # stale entries.
    slack = [infinity] * nr
    way = [-1] * nr
    in_tree_r = [False] * nr

    for s in range(nl):
        if u[s] == 0:
            continue
        h0 = heads[s]
        h1 = heads[s + 1]
        # right vertices with a finite slack; s reaches all its neighbors
        touched = rights[h0:h1]
        tree_left = [s]
        tree_right: list[int] = []
        # Minimum dual among tree-left vertices: the cost of ending the
        # stage by dropping that vertex out of the matching.
        null_min = u[s]
        null_arg = s
        tq: list[int] = []  # right vertices whose slack reached 0, each queued once;
        # duals move only on an empty queue, so a popped one is tight, not in the tree
        tqh = 0
        us = u[s]
        for t in range(h0, h1):
            j = rights[t]
            r = us + v[j] - weights[t]
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
                if match_r[j] == -1:
                    end_right = j  # free right vertex reached: augment
                    break
                in_tree_r[j] = True
                tree_right.append(j)
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
                        sj = slack[j2]
                        if r < sj:
                            if sj == infinity:
                                touched.append(j2)
                            slack[j2] = r
                            way[j2] = i2
                            if r == 0:
                                tq.append(j2)
            if end_right >= 0:
                break
            # No tight edge leaves the tree: lower the tree duals by the
            # smallest amount that creates one (or zeroes a tree dual).
            # An untouched vertex (slack infinity) is never the minimum.
            delta = null_min
            for j in touched:
                if slack[j] < delta and not in_tree_r[j]:
                    delta = slack[j]
            if delta > 0:
                for i in tree_left:
                    u[i] -= delta
                null_min -= delta
                for j in tree_right:
                    v[j] += delta
                tight = []
                for j in touched:
                    if not in_tree_r[j]:
                        sj = slack[j] - delta
                        slack[j] = sj
                        if sj == 0:
                            tight.append(j)
                if tight:
                    tight.sort()
                    tq.extend(tight)
            if null_min == 0 and tqh == len(tq):
                drop_left = null_arg  # this vertex leaves the matching
                break

        if end_right >= 0:
            j = end_right
        elif drop_left != s:
            j = match_l[drop_left]
            match_l[drop_left] = -1
        else:
            j = -1  # s stays unmatched at dual 0
        while j >= 0:
            i = way[j]
            pj = match_l[i]
            match_l[i] = j
            match_r[j] = i
            if i == s:
                break
            j = pj

        for j in touched:
            slack[j] = infinity
        for j in tree_right:
            in_tree_r[j] = False

    return match_l, match_r, u, v
