"""Matching kernel: maximum-weight bipartite matching with duals.

Works with arbitrary-precision integers, so no weight is too large.

Contract (checked independently by `bipartite.check_certificate`):

- input is a bipartite graph as one row per left vertex over `nr`
  right vertices; all weights are positive integers (drop zero-weight
  edges upstream, they can never improve a matching);
- output `(match_l, match_r, u, v)` is a matching plus integer duals
  with `u[i] + v[j] >= w(i, j)` on every edge, equality on matched
  edges, and zero dual on every unmatched vertex. By LP duality those
  conditions certify that the matching has maximum weight.

The algorithm grows a Hungarian alternating tree per left vertex. A
virtual weight-0 "stay unmatched" option plays the role of an always
free right vertex: when the dual of a tree vertex reaches zero, the
augmentation ends there and that vertex simply drops out of the
matching.

Its duals are the u-greatest optimal ones: no optimal (u, v) of the
double has a larger sum(u). This is tested against an LP
(`test_kernel_duals_are_u_greatest`), not proved. The kernel starts
from u = row maximum, v = 0 and only lowers tree duals, each time by
the least amount that makes a new edge tight; and the optimal duals of
an assignment game form a lattice with a unique u-greatest point
(Shapley and Shubik 1971). So u, v and the cover u + v do not depend on
how the vertices are numbered.

Each stage touches only the right vertices its tree has reached, and
keeps one running dual offset `D`. A touched vertex stores its slack
plus `D` (at most 3 max w, below the sentinel 4 max w + 1), so a dual
step, which lowers every slack alike, raises `D` alone: it is one pass
over the touched vertices for the smallest key and its ties. Each tree
dual is settled once, when the stage ends, by the rise of `D` since its
vertex joined. A stage ends as soon as a free right vertex becomes
tight, while its row is scanned or its tie is queued, rather than
when the queue would pop it: the vertices queued ahead of it would
join the tree at the final `D`, so their duals would not move. A stage
thus costs its dual steps times its touched vertices plus the edges
of the tree-left vertices popped before that, however large `nr` is.
Newly tight vertices are queued in ascending id, the order a full
O(nr) scan per dual step gives, so the output does not depend on this
bookkeeping.
"""

from __future__ import annotations


def solve_max_weight_bipartite(
        nr: int,
        rights: list[list[int]],
        weights: list[list[int]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Solve the bipartite instance given as rows; see the module docstring.

    Left vertex i is row i: `rights[i]` lists its distinct right
    neighbours in ascending order and `weights[i]` is parallel to it.
    The rows are read, never changed.
    """
    nl = len(rights)
    u = [max(row) if row else 0 for row in weights]
    v = [0] * nr
    match_l = [-1] * nl
    match_r = [-1] * nr
    max_w = max(u, default=0)
    if not max_w:
        return match_l, match_r, u, v
    # Above every key: u starts at the row maxima and only falls; a matched
    # pair's duals sum to its weight and u >= 0, so u, v <= max w, a slack
    # is <= 2 max w, and D <= null_key <= u[s] <= max w: a key is <= 3 max w.
    infinity = 4 * max_w + 1

    # key[j] = D + min reduced cost u[i]+v[j]-w over tree-left i, or -1
    # (below any such key) once j is in the tree; way[j] = the left vertex
    # attaining it (tree predecessor); joined[j] = D when j joined. Between
    # stages every key is infinity; `way` and `joined` are read only at
    # vertices the current stage touched, so they keep stale entries.
    key = [infinity] * nr
    way = [-1] * nr
    joined = [0] * nr

    for s in range(nl):
        us = u[s]
        if us == 0:
            continue
        # right vertices with a finite key; s reaches all its neighbors.
        # A copy: the stage appends to it, and the rows stay as given.
        touched = rights[s][:]
        tree_right: list[int] = []
        null_key = us  # the smallest D at which a tree-left dual reaches zero;
        null_arg = s  # that vertex, which then leaves the matching
        tq: list[int] = []  # right vertices whose key reached D, each queued once;
        # D moves only on an empty queue, so a popped one is tight, not in the tree
        tqh = 0
        D = 0
        # A free right vertex that becomes tight ends the stage at once:
        # it is the first free one the queue would pop, its key is D and
        # cannot fall, so its path is fixed, and each vertex queued ahead
        # of it would join the tree at this D and have its dual moved by 0.
        end_right = -1
        for j, w in zip(rights[s], weights[s]):
            k = us + v[j] - w
            key[j] = k
            way[j] = s
            if k == 0:
                if match_r[j] == -1:
                    end_right = j
                    break
                tq.append(j)

        while end_right < 0:
            while tqh < len(tq):
                j = tq[tqh]
                tqh += 1
                i2 = match_r[j]
                key[j] = -1
                joined[j] = D
                tree_right.append(j)
                base = u[i2] + D
                if base < null_key:
                    null_key = base
                    null_arg = i2
                for j2, w in zip(rights[i2], weights[i2]):
                    k = base + v[j2] - w
                    kj = key[j2]
                    if k < kj:
                        if kj == infinity:
                            touched.append(j2)
                        key[j2] = k
                        way[j2] = i2
                        if k == D:
                            if match_r[j2] == -1:
                                end_right = j2
                                break
                            tq.append(j2)
                if end_right >= 0:
                    break
            if end_right >= 0:
                break
            # No tight edge leaves the tree: raise D to the smallest key, or
            # to null_key, and queue the vertices that this makes tight.
            m = null_key
            tight = []
            for j in touched:
                kj = key[j]
                if kj < m:
                    if kj >= 0:
                        m = kj
                        tight = [j]
                elif kj == m:
                    tight.append(j)
            D = m
            if not tight:
                break  # D == null_key: null_arg's dual is zero, it leaves the matching
            tight.sort()
            for j in tight:
                if match_r[j] == -1:
                    end_right = j
                    break
                tq.append(j)

        # Settle the tree duals while match_r still pairs each tree-right
        # vertex with the tree-left vertex that joined with it.
        if D:
            u[s] -= D
            for j in tree_right:
                d = D - joined[j]
                v[j] += d
                u[match_r[j]] -= d

        if end_right >= 0:
            j = end_right
        elif null_arg != s:
            j = match_l[null_arg]
            match_l[null_arg] = -1
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
            key[j] = infinity

    return match_l, match_r, u, v
