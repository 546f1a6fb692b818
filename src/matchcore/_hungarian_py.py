"""Matching kernel: maximum-weight bipartite matching with duals.

Works with arbitrary-precision integers, so no weight is too large.

Contract (checked independently by `bipartite.check_certificate`):

- input is a bipartite graph as one row per left vertex over `nr`
  right vertices, each row by falling weight (equal weights in any
  order); all weights are positive integers (drop zero-weight edges
  upstream, they can never improve a matching);
- output `(match_l, match_r, u, v)` is a matching plus integer duals
  with `u[i] + v[j] >= w(i, j)` on every edge, equality on matched
  edges, and zero dual on every unmatched vertex. By LP duality those
  conditions certify that the matching has maximum weight. The output
  does not depend on the order of equal weights within a row.

The algorithm grows a Hungarian alternating tree per left vertex. A
virtual weight-0 "stay unmatched" option plays the role of an always
free right vertex: when the dual of a tree vertex reaches zero, the
augmentation ends there and that vertex simply drops out of the
matching.

Its duals are the u-greatest optimal ones: no optimal (u, v) of the
double has a larger sum(u). This is tested against an LP
(`test_kernel_duals_are_u_greatest`), not proved. The kernel starts
from u = row maximum (the first weight of the row), v = 0 and only
lowers tree duals, each time by the least amount that makes a new edge
tight; and the optimal duals of an assignment game form a lattice with
a unique u-greatest point (Shapley and Shubik 1971). So u, v and the
cover u + v do not depend on how the vertices are numbered.

Each stage is a Dijkstra search over the right vertices its tree has
reached, with one running dual offset `D`. A reached vertex stores its
key, its slack plus `D` (at most 3 max w, below the sentinel
4 max w + 1), so a dual step, which lowers every slack alike, raises
`D` alone: it is one pass over the stored keys for the smallest one and
its ties. The tree's right vertices, the popped prefix `tq[:tqh]` of the
queue, hold the key `-1 - D_join`, below every stored key, for the `D`
they joined at, so each tree dual is settled once, at the stage's end,
by `D + 1 + key`. A stage ends as soon as a free right vertex becomes
tight, while its row is scanned or its tie is queued, rather than when
the queue would pop it: the vertices queued ahead of it would join the
tree at the final `D`, so their duals would not move.

The stage bound (the shortest-augmenting-path rule of Jonker and
Volgenant, Computing 1987). Let F be the least of `null_key` (the `D`
at which a tree-left dual reaches zero) and the keys of the free right
vertices the stage has reached; F only falls during a stage.

- `D` never passes F: a dual step raises `D` to the least key or to
  `null_key`, whichever is smaller; a free vertex whose key equals `D`
  ends the stage, and so does `D == null_key` when no key equals it.
- So a key above F is never tight: its vertex never joins the tree and
  its `way` is never read. The kernel stores a candidate only if it is
  below the vertex's key and at most F.
- Every key at or below F, and its `way`, is the one a search storing
  every candidate holds. The least candidate c of such a vertex was at
  most F when its row was scanned, since F only falls, so it was
  stored; equal candidates arrive in pop order, and the first is kept.
- Since v >= 0, an entry of weight w has a candidate of at least
  base - w, where base is the scanned left vertex's dual plus `D`. The
  row runs by falling weight, so its scan, the root's included, stops
  at the first w < base - F: no entry from there on is at most F.

Ties. A scanned row ends the stage at its least-id free tight vertex
and queues its other tight vertices in ascending id, as a dual step
does with the vertices it makes tight. So the queue order, and with it
every key at or below F, its `way` and the 4-tuple, is the one a scan
of id-ascending rows gives, whatever the order of equal weights.

A stage thus costs its dual steps times its stored keys plus the
entries of its popped rows above their bounds, however large `nr` is.
"""


def solve_max_weight_bipartite(
        nr: int,
        rights: list[list[int]],
        weights: list[list[int]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Solve the bipartite instance given as rows; see the module docstring.

    Left vertex i is row i: `rights[i]` lists its distinct right
    neighbours by falling weight (equal weights in any order) and
    `weights[i]` is parallel to it. The rows are read, never changed.
    """
    nl = len(rights)
    u = [row[0] if row else 0 for row in weights]
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

    # key[j] = D + the least reduced cost u[i]+v[j]-w stored from a tree-left
    # i, or -1 - D_join (below any such key) once j joined the tree at D_join;
    # way[j] = the left vertex attaining it (tree predecessor). Between
    # stages every key is infinity; `way` is read only at vertices the
    # current stage touched, so it keeps stale entries.
    key = [infinity] * nr
    way = [-1] * nr

    for s in range(nl):
        us = u[s]
        if us == 0:
            continue
        touched: list[int] = []  # right vertices with a stored key
        null_key = us  # the smallest D at which a tree-left dual reaches zero;
        null_arg = s  # that vertex, which then leaves the matching
        F = us  # the stage bound: min(null_key, the keys of free reached vertices)
        tq: list[int] = []  # right vertices whose key reached D, each queued once;
        # D moves only on an empty queue, so a popped one is tight, not in the tree
        tqh = 0  # tq[:tqh], the popped ones, are the tree's right vertices
        qn = 0  # len(tq)
        D = 0
        end_right = -1  # the free right vertex that ends the stage, once tight
        i2 = s  # the tree-left vertex whose row is scanned next, the root first;
        base = us  # its dual plus D
        while True:
            if base < null_key:
                null_key = base
                null_arg = i2
                if base < F:
                    F = base
            # The scan stops at the first entry it does not store whose
            # weight is below lim = base - F; no entry it stores is below lim.
            lim = base - F
            seg = qn
            for j2, w in zip(rights[i2], weights[i2]):
                k = base + v[j2] - w
                kj = key[j2]
                if k < kj and k <= F:
                    if kj == infinity:
                        touched.append(j2)
                    key[j2] = k
                    way[j2] = i2
                    if match_r[j2] == -1:
                        F = k
                        lim = base - k
                        if k == D and (end_right < 0 or j2 < end_right):
                            end_right = j2
                    elif k == D:
                        tq.append(j2)
                        qn += 1
                elif w < lim:
                    break
            if end_right >= 0:
                break
            if qn > seg + 1:
                tq[seg:] = sorted(tq[seg:])
            if tqh == qn:
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
                qn = len(tq)
                if end_right >= 0:
                    break
            j = tq[tqh]
            tqh += 1
            i2 = match_r[j]
            key[j] = -1 - D
            base = u[i2] + D

        # Settle the tree duals while match_r still pairs each tree-right
        # vertex with the tree-left vertex that joined with it.
        if D:
            u[s] -= D
            for j in tq[:tqh]:
                d = D + 1 + key[j]
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
