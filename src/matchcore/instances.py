"""Game instances: weighted graphs whose vertices are trading agents.

An instance is an undirected simple graph with nonnegative integer edge
weights. The weight of an edge is the profit the two endpoint agents
generate if they trade; the worth of a coalition is the maximum-weight
matching among its members. Integer weights keep every downstream check
an exact integer or rational comparison; callers with rational weights
rescale by the common denominator (worths scale linearly and
allocations scale back).

Zero-weight edges are legal and retained: they impose (vacuous) cover
constraints and may appear in matchings with zero contribution.
Isolated vertices are legal and end up with zero profit.

The on-disk format is line oriented (UTF-8, `#` starts a comment line):

    p mg <n> <m>      header: n vertices, m edges
    e <u> <v> <w>     one line per edge, 1-based endpoints, integer weight

Every number is written in ASCII decimal digits with an optional minus
sign (`-?[0-9]+`); a leading `+`, digit-group underscores or non-ASCII
digits are rejected.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import BoundExceeded, InstanceFormatError

Edge = tuple[int, int, int]

# The largest instance `parse_instance` accepts and the generators
# build; past either bound they raise BoundExceeded, having read or
# drawn at most MAX_EDGES + 1 edges.
MAX_VERTICES = 1_000_000
MAX_EDGES = 4_000_000


def _check_bounds(what: str, n: int, m: int) -> None:
    """Refuse `n` vertices and `m` edges past MAX_VERTICES or MAX_EDGES."""
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise BoundExceeded(
            f"{what} {n} vertices and {m} edges, above the bounds of "
            f"{MAX_VERTICES} vertices and {MAX_EDGES} edges")


def _plain_digits(line: str) -> bool:
    """True when `int()` can read a token of `line` only as `-?[0-9]+`.

    On a whitespace-free ASCII token `int()` accepts exactly
    `[+-]?[0-9]+(_[0-9]+)*`, so a line that is ASCII and has no `+` and
    no `_` leaves it the form the file format allows. Without this
    check "+1_000" would read as 1000 and non-ASCII digits as numbers.
    """
    return line.isascii() and "+" not in line and "_" not in line


class _BadEdge(ValueError):
    """`GameInstance` rejects `edge`, item `index` of its input; `kind`
    is "type", "negative", "range", "self-loop" or "duplicate", and a
    duplicate's `first` is the index of the pair's first copy."""

    def __init__(self, index: int, kind: str, message: str, edge, first: int | None = None):
        super().__init__(message)
        self.index = index
        self.kind = kind
        self.edge = edge
        self.first = first


def _normalized_edges(n: int, edges) -> tuple[Edge, ...]:
    """Check every edge in input order and return them with `u < v`.

    The one place where edges are validated; raises `_BadEdge` at the
    first edge that fails: a non-`int` endpoint or weight, a negative
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
            raise _BadEdge(idx, "type", f"an endpoint of edge ({u!r}, {v!r}) is not an int", edge)
        if type(w) is not int:
            raise _BadEdge(idx, "type", f"weight {w!r} on edge ({u}, {v}) is not an int", edge)
        if w < 0:
            raise _BadEdge(idx, "negative", f"negative weight on edge ({u}, {v})", edge)
        if not (0 <= u < n and 0 <= v < n):
            raise _BadEdge(idx, "range", f"edge ({u}, {v}) out of range", edge)
        if u == v:
            raise _BadEdge(idx, "self-loop", f"self-loop at vertex {u}", edge)
        if u > v:
            u, v = v, u
        key = u * n + v  # one int per pair, as 0 <= u < v < n
        if key in seen:
            first = next(i for i, (a, b, _) in enumerate(normalized) if a == u and b == v)
            raise _BadEdge(idx, "duplicate", f"duplicate edge ({u}, {v})", edge, first)
        seen.add(key)
        # a reversed edge, a list or a tuple subclass becomes a plain tuple
        normalized.append(edge if type(edge) is tuple and edge[0] == u else (u, v, w))
    return tuple(normalized)


class GameInstance:
    """An undirected simple graph with nonnegative integer edge weights.

    The vertex count, endpoints and weights must be `int`s; anything
    else (a float, a `bool`, a `Fraction`) is rejected rather than
    rounded. Vertex ids are 0-based and dense in `range(vertex_count)`.
    Edges are stored with endpoints normalized to `u < v`. The
    attributes are read-only, so an instance is safe to share between
    threads; `name` takes no part in `==` or the hash.
    """

    __slots__ = ("vertex_count", "edges", "name")

    def __init__(self, vertex_count: int, edges: Iterable[Edge], name: str | None = None):
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count is not an int: {vertex_count!r}")
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        init = object.__setattr__
        init(self, "vertex_count", vertex_count)
        init(self, "edges", _normalized_edges(vertex_count, edges))
        init(self, "name", name)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):  # for copy and pickle, which would set the slots
        return GameInstance, (self.vertex_count, self.edges, self.name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return (f"GameInstance(vertex_count={self.vertex_count!r}, "
                f"edges={self.edges!r}, name={self.name!r})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def parse_instance(text: str) -> GameInstance:
    """Parse the line-oriented instance format into a validated instance.

    Every rejection names the offending 1-based line, numbered as
    `text.splitlines()` numbers them: malformed header, bad edge line,
    self-loop, duplicate edge, negative weight, vertex id out of range,
    or an edge count that disagrees with the header. `_records` reads
    the syntax one line at a time; its first record is the header and
    the rest, the edges, stream into `GameInstance`, which checks each
    one as it is read. So the first fault in the file is the one
    reported, and nothing past it is read. A rejected edge is restated
    with its line; the edge counts are compared once every line is read.

    A header past `MAX_VERTICES` or `MAX_EDGES` raises `BoundExceeded`
    before any edge is read, and so does an edge line past the
    `MAX_EDGES`-th, so a parse never holds more than `MAX_EDGES + 1`
    edges whatever the file's length.
    """
    records = _records(text)
    n, m, header_line = next(records)
    _check_bounds(f"line {header_line}: header declares", n, m)
    try:
        g = GameInstance(n, islice(records, MAX_EDGES + 1))
    except _BadEdge as bad:
        u, v, w = bad.edge
        lineno, line = _edge_line(text, bad.index)
        if bad.kind == "negative":
            reason = f"negative weight {w}"
        elif bad.kind == "range":
            reason = f"vertex id out of range in {line!r}"
        elif bad.kind == "self-loop":
            reason = f"self-loop at vertex {u + 1}"
        else:  # a duplicate: parsed numbers are always ints
            reason = (f"duplicate edge ({u + 1}, {v + 1}), "
                      f"first seen at line {_edge_line(text, bad.first)[0]}")
        raise InstanceFormatError(lineno, reason) from None
    if g.edge_count > MAX_EDGES:
        raise BoundExceeded(f"line {_edge_line(text, MAX_EDGES)[0]}: more than "
                            f"{MAX_EDGES} edge lines, above the bound")
    if g.edge_count > m:
        raise InstanceFormatError(
            _edge_line(text, m)[0], f"more edge lines than the {m} declared")
    if g.edge_count < m:
        raise InstanceFormatError(
            header_line, f"header declares {m} edges but {g.edge_count} found")
    return g


def _records(text: str) -> Iterator[tuple[int, int, int]]:
    """The parsed lines of `text`: first the header `(n, m, line)`, then
    one `(u, v, w)` per edge line, with 0-based endpoints, in file order.

    Reads the syntax only. A line that breaks it raises
    `InstanceFormatError` when the reader gets to it, so an edge before
    it has already been checked.
    """
    n = None
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if fields[0] == "e":  # nearly every line, so tested first
            if n is None:
                raise InstanceFormatError(lineno, "edge before header")
            if len(fields) != 4 or not _plain_digits(line):
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            yield u - 1, v - 1, w
        elif fields[0] == "p":
            if n is not None:
                raise InstanceFormatError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "mg" or not _plain_digits(line):
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


_PIECE = 1 << 16  # characters of text split into lines at a time


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, as `text.splitlines()` gives them, without a
    list of them all: the text is split one piece at a time.

    Every piece but the last ends just after a "\\n", so no line break,
    "\\r\\n" included, straddles two pieces and the lines and their
    numbering are exactly those of `text.splitlines()`.
    """
    def pieces() -> Iterator[str]:
        start, size = 0, len(text)
        while start < size:
            end = text.find("\n", start + _PIECE)
            end = size if end < 0 else end + 1
            yield text[start:end]
            start = end

    return chain.from_iterable(map(str.splitlines, pieces()))


def _edge_line(text: str, index: int) -> tuple[int, str]:
    """Line number and stripped text of edge line `index` (0-based) of a
    file whose lines up to that one parse.

    The parse keeps no line number per edge; only its error paths need
    one, and they read the text again up to the edge.
    """
    edge_lines = ((lineno, raw) for lineno, raw in enumerate(_lines(text), start=1)
                  if raw.split(maxsplit=1)[:1] == ["e"])
    lineno, raw = next(islice(edge_lines, index, None))
    return lineno, raw.strip()


def serialize_instance(g: GameInstance) -> str:
    """Render an instance in the on-disk format; inverse of parse_instance.

    The name becomes one comment line per line of it, as
    `str.splitlines` splits it, so a name with a line break still reads
    back as comments.
    """
    lines = [f"# {piece}" for piece in (g.name or "").splitlines()]
    lines.append(f"p mg {g.vertex_count} {g.edge_count}")
    for (u, v, w) in g.edges:
        lines.append(f"e {u + 1} {v + 1} {w}")
    return "\n".join(lines) + "\n"


def load_instance(path) -> GameInstance:
    """Read and parse an instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def gen_gap_family(n: int, connected: bool = False) -> GameInstance:
    """Build the worst-case family for the relaxation's integrality gap.

    The instance has 2n disjoint unit-weight triangles (6n vertices, 6n
    edges). Its maximum matching has weight 2n while the fractional
    optimum is 3n, so the ratio is exactly 2/3 for every n. With
    `connected=True` a clique of weight-0 edges joins the first vertex
    of every triangle; zero weights stand in for the vanishing-weight
    connector and change neither optimum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    name = f"gap_{n}c" if connected else f"gap_{n}"
    clique = n * (2 * n - 1) if connected else 0  # pairs of the 2n anchors
    _check_bounds(f"{name} has", 6 * n, 6 * n + clique)
    edges: list[Edge] = []
    for t in range(2 * n):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
    if connected:
        anchors = [3 * t for t in range(2 * n)]
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                edges.append((anchors[i], anchors[j], 0))
    return GameInstance(6 * n, tuple(edges), name=name)


def gen_odd_cycle(k: int, weight: int = 1) -> GameInstance:
    """Cycle on 2k+1 vertices with every edge at the given weight."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    length = 2 * k + 1
    name = f"cycle_{length}_w{weight}"
    _check_bounds(f"{name} has", length, length)
    edges = tuple((i, (i + 1) % length, weight) for i in range(length))
    return GameInstance(length, edges, name=name)


def gen_random(n: int, edge_probability: Fraction, max_weight: int,
               seed: int, bipartite: bool = False) -> GameInstance:
    """Deterministic random instance for a fixed argument tuple.

    Each candidate vertex pair is included with the exact probability
    `edge_probability`, an `int` or a `Fraction` (an integer Bernoulli
    draw; a float or a `bool` is rejected);
    included edges get a uniform weight in 1..max_weight. With
    `bipartite=True` the first ceil(n/2) vertices form one side and only
    cross pairs are candidates. Past `MAX_VERTICES` vertices, or once
    more than `MAX_EDGES` edges are drawn, it raises BoundExceeded; below
    the bounds it still draws for every one of the O(n^2) pairs.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if type(edge_probability) not in (int, Fraction):
        raise ValueError(f"edge_probability {edge_probability!r} is not an int or a Fraction")
    p = Fraction(edge_probability)
    if not (0 <= p <= 1):
        raise ValueError("edge_probability must be in [0, 1]")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    name = f"{'bip' if bipartite else 'rnd'}_{n}_s{seed}"
    if n > MAX_VERTICES:
        raise BoundExceeded(f"{name} has {n} vertices, above the bound of {MAX_VERTICES}")
    rng = random.Random(seed)
    left = (n + 1) // 2

    def candidates() -> Iterable[tuple[int, int]]:
        if bipartite:
            for u in range(left):
                for v in range(left, n):
                    yield (u, v)
        else:
            for u in range(n):
                for v in range(u + 1, n):
                    yield (u, v)

    edges: list[Edge] = []
    for (u, v) in candidates():
        if rng.randrange(p.denominator) < p.numerator:
            edges.append((u, v, rng.randint(1, max_weight)))
            if len(edges) > MAX_EDGES:
                raise BoundExceeded(
                    f"{name} drew more than {MAX_EDGES} edges, above the bound")
    return GameInstance(n, tuple(edges), name=name)
