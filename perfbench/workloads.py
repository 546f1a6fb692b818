"""Seeded benchmark inputs, generated without calling into matchcore.

Every workload is a fixed list of instance slots. A slot fixes the
graph family and its size (vertex count, edge count or edge
probability, weight range); the seed only chooses which graph of that
shape is drawn. Sizes therefore do not move with the seed, so run-to-run
differences measure the program, not the input size.

The paper's extremal families (disjoint unit triangles, long odd
cycles) have no randomness of their own; there the seed relabels the
vertices and shuffles the edge lines, which leaves the work unchanged.

Instances are written in matchcore's `p mg` text format. The same seed
gives byte-identical files; `Instance.sha256` lets two runs show that.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int, int]  # 0-based endpoints, weight


@dataclass(frozen=True)
class Instance:
    """One generated graph. `odd_girth` is set when known by construction."""

    name: str
    n: int
    edges: tuple[Edge, ...]
    odd_girth: int | None = None

    @cached_property
    def text(self) -> str:
        lines = [f"# {self.name}", f"p mg {self.n} {len(self.edges)}"]
        lines += [f"e {u + 1} {v + 1} {w}" for (u, v, w) in self.edges]
        return "\n".join(lines) + "\n"

    @cached_property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def max_weight(self) -> int:
        return max((w for (_, _, w) in self.edges), default=0)

    def describe(self) -> dict:
        return {"name": self.name, "n": self.n, "m": len(self.edges),
                "max_weight": self.max_weight, "sha256": self.sha256}


@dataclass(frozen=True)
class Workload:
    """Instances to solve (then verify) and graphs for `guaranteed_alpha`.

    Every solved instance is verified: exhaustively over all 2^n
    coalitions and then gapped when `exhaustive` is set, otherwise in
    the linear edges mode, the only verify mode that runs at scale.
    """

    name: str
    solve: tuple[Instance, ...]
    alpha: tuple[Instance, ...]
    exhaustive: bool


def _slot_rng(seed: int, slot: str) -> random.Random:
    # One stream per slot, so adding or resizing a slot leaves the
    # other slots' graphs unchanged.
    return random.Random(f"{seed}:{slot}")


def random_graph(seed: int, name: str, n: int, p: tuple[int, int],
                 weights: tuple[int, int]) -> Instance:
    """G(n, p) with an exact integer Bernoulli draw per pair."""
    rng = _slot_rng(seed, name)
    num, den = p
    lo, hi = weights
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(den) < num:
                edges.append((u, v, rng.randint(lo, hi)))
    return Instance(name, n, tuple(edges))


def by_degree(inst: Instance) -> Instance:
    """The same graph with its vertices renumbered by falling degree.

    The exhaustive check's subset table spends half its time on the
    neighbours of vertex 1, a quarter on those of vertex 2, and so on.
    Numbered by degree, those are the graph's largest degrees, which vary
    far less from seed to seed than the degree of one fixed vertex.
    """
    degree = [0] * inst.n
    for (u, v, _) in inst.edges:
        degree[u] += 1
        degree[v] += 1
    order = sorted(range(inst.n), key=lambda v: (-degree[v], v))
    new = {v: i for i, v in enumerate(order)}
    edges = sorted((min(new[u], new[v]), max(new[u], new[v]), w) for (u, v, w) in inst.edges)
    return Instance(inst.name, inst.n, tuple(edges), inst.odd_girth)


def sparse_graph(seed: int, name: str, n: int, m: int,
                 weights: tuple[int, int]) -> Instance:
    """Exactly m distinct pairs drawn directly, weights uniform.

    Sampling pairs costs O(m); walking all n^2/2 candidate pairs with a
    Bernoulli draw each would dominate the run's set-up at n in the
    thousands.
    """
    if m > n * (n - 1) // 4:
        raise ValueError("sparse_graph is for m well below n^2/2")
    rng = _slot_rng(seed, name)
    lo, hi = weights
    chosen: dict[tuple[int, int], int] = {}
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in chosen:
            chosen[key] = rng.randint(lo, hi)
    return Instance(name, n, tuple((u, v, w) for (u, v), w in sorted(chosen.items())))


def _relabelled(seed: int, name: str, n: int, edges: list[Edge],
                odd_girth: int) -> Instance:
    rng = _slot_rng(seed, name)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(min(perm[u], perm[v]), max(perm[u], perm[v]), w) for (u, v, w) in edges]
    rng.shuffle(out)
    return Instance(name, n, tuple(out), odd_girth)


def gap_family(seed: int, name: str, triangles: int, connected: bool) -> Instance:
    """Disjoint unit triangles; optionally a weight-0 clique on one
    vertex of each (the paper's integrality-gap family)."""
    edges = []
    for t in range(triangles):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
    if connected:
        anchors = [3 * t for t in range(triangles)]
        edges += [(a, b, 0) for i, a in enumerate(anchors) for b in anchors[i + 1:]]
    return _relabelled(seed, name, 3 * triangles, edges, 3)


def odd_cycle(seed: int, name: str, k: int) -> Instance:
    """Unit-weight cycle on 2k+1 vertices."""
    length = 2 * k + 1
    edges = [(i, (i + 1) % length, 1) for i in range(length)]
    return _relabelled(seed, name, length, edges, length)


# Why each workload exists is recorded in BENCHMARK.json.
NAMES = ("dense", "sparse", "cycles", "oracle")


def build(name: str, seed: int) -> Workload:
    """The workload's instances for this seed."""
    if name == "dense":
        solve = (
            random_graph(seed, "dense_n200_w10", 200, (1, 2), (1, 10)),
            random_graph(seed, "dense_n250_w1e6", 250, (1, 2), (1, 10**6)),
            random_graph(seed, "dense_n300_w2e60", 300, (1, 2), (1 << 58, 1 << 60)),
        )
        return Workload(name, solve, solve[:1], exhaustive=False)
    if name == "sparse":
        solve = (
            sparse_graph(seed, "sparse_n2000_d8", 2000, 8000, (1, 100)),
            sparse_graph(seed, "sparse_n2500_d5", 2500, 6250, (1, 100)),
        )
        alpha = (sparse_graph(seed, "sparse_n500_d6", 500, 1500, (1, 100)),)
        return Workload(name, solve, alpha, exhaustive=False)
    if name == "cycles":
        solve = (
            gap_family(seed, "gap_t400", 400, connected=False),
            gap_family(seed, "gap_t100_connected", 100, connected=True),
            odd_cycle(seed, "cycle_301", 150),
            odd_cycle(seed, "cycle_1001", 500),
        )
        # Odd girth 3, where a search can stop early, and 301, where it cannot.
        return Workload(name, solve, (solve[0], solve[2]), exhaustive=False)
    if name == "oracle":
        # At n >= 17 weights reach 100 so that the 2^n-entry tables of
        # the exhaustive check hold ints above CPython's small-int cache
        # on every seed; with weights <= 10 whether they do depends on
        # the payout's denominators, and peak memory with it.
        solve = tuple(
            by_degree(random_graph(seed, f"small_n{n}_{i}", n, p, (1, 100 if n >= 17 else 10)))
            for i, (n, p) in enumerate([
                (14, (1, 2)), (14, (1, 4)), (14, (1, 2)),
                (15, (1, 2)), (15, (1, 4)), (15, (1, 2)),
                (16, (1, 2)), (16, (1, 4)),
                (17, (1, 2)), (17, (1, 4)),
                (18, (1, 2)), (18, (1, 4)),
            ]))
        alpha = solve + (
            sparse_graph(seed, "sparse_n400_d6", 400, 1200, (1, 100)),
            sparse_graph(seed, "sparse_n600_d6", 600, 1800, (1, 100)),
            odd_cycle(seed, "cycle_601", 300),
        )
        return Workload(name, solve, alpha, exhaustive=True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
