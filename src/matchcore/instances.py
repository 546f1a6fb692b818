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

`parse_instance` reads the edge lines after the header in pieces of
about 64 Ki characters. A piece made only of canonical edge lines
(`e U V W` in ASCII, each ending in "\n", as `serialize_instance`
writes them) is read and checked as whole columns; any other piece,
and any piece whose columns fail a check, is read and checked one
line at a time; either path extends the instance's edge columns. Which
texts are accepted, and the line and text of each rejection, do not
depend on the path a piece takes.
"""

import random
from fractions import Fraction
from itertools import chain, combinations, islice, product, repeat
from operator import add, eq, gt, lt, mul, sub
from typing import Iterable, Iterator

from .errors import BoundExceeded, InstanceFormatError

Edge = tuple[int, int, int]

# The largest instance `parse_instance` accepts and the generators
# build; past either bound they raise BoundExceeded, having read or
# drawn at most MAX_EDGES + 1 edges. `GameInstance` refuses a vertex
# count past MAX_VERTICES too.
MAX_VERTICES = 1_000_000
MAX_EDGES = 4_000_000


def _check_bounds(what: str, n: int, m: int) -> None:
    """Refuse `n` vertices and `m` edges past MAX_VERTICES or MAX_EDGES."""
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise BoundExceeded(
            f"{what} {n} vertices and {m} edges, above the bounds of "
            f"{MAX_VERTICES} vertices and {MAX_EDGES} edges")


def _check_int(what: str, x) -> None:
    """Refuse a generator argument that is not an `int`, a `bool` included."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an int")


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


def _normalized_edges(n: int, edges, cols: tuple, seen: set[int]) -> None:
    """Check every edge in input order and append it to `cols`, `(us, vs,
    ws)`, with `u < v`; `seen` holds `u * n + v` of every pair in `cols`,
    or is empty while those keys rise.

    The one place where edges are checked one at a time; raises
    `_BadEdge` at the first edge that fails, its index counted from the
    start of `cols`: a non-`int` endpoint or weight, a negative
    weight, an endpoint outside `range(n)`, a self-loop or a repeated
    vertex pair. Each edge is checked as soon as `edges` yields it, so a
    generator's later items are never read past a bad one. While the
    keys rise no pair can repeat, so edges in pair order, as every
    generator lists them, build no set; the first key that does not
    rise builds `seen` from `cols`.
    """
    us, vs, ws = cols
    last = us[-1] * n + vs[-1] if us else -1  # read only while `seen` is empty
    for idx, edge in enumerate(edges, start=len(us)):
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
        if seen or key <= last:
            if not seen:  # the first pair out of order ends the order proof
                seen.update(map(add, map(mul, us, repeat(n)), vs))
            if key in seen:
                first = next(i for i, (a, b) in enumerate(zip(us, vs)) if a == u and b == v)
                raise _BadEdge(idx, "duplicate", f"duplicate edge ({u}, {v})", edge, first)
            seen.add(key)
        last = key
        us.append(u)
        vs.append(v)
        ws.append(w)


class GameInstance:
    """An undirected simple graph with nonnegative integer edge weights.

    The vertex count, endpoints and weights must be `int`s; anything
    else (a float, a `bool`, a `Fraction`) is rejected rather than
    rounded. Vertex ids are 0-based and dense in `range(vertex_count)`;
    a `vertex_count` past `MAX_VERTICES` raises `BoundExceeded`, and the
    edges are not bounded here. Edge k is held in three columns, as its
    ends `us[k] < vs[k]` and its weight `ws[k]`, each a tuple; `edges`
    builds the `(u, v, w)` tuples on each call. The attributes and the
    columns are read-only, so an instance is safe to share between
    threads; `name`, None or a `str`, takes no part in `==` or the hash.
    """

    __slots__ = ("vertex_count", "us", "vs", "ws", "name")

    def __init__(self, vertex_count: int, edges: Iterable[Edge], name: str | None = None):
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count is not an int: {vertex_count!r}")
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if vertex_count > MAX_VERTICES:
            raise BoundExceeded(f"vertex_count {vertex_count} is above the bound of {MAX_VERTICES}")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"name is not a str: {name!r}")
        cols: tuple[list[int], list[int], list[int]] = ([], [], [])  # us, vs, ws
        _normalized_edges(vertex_count, edges, cols, set())
        _fill(self, vertex_count, cols, name)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):  # for copy and pickle, which would set the slots
        return GameInstance, (self.vertex_count, self.edges, self.name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vertex_count == other.vertex_count and self.us == other.us
                and self.vs == other.vs and self.ws == other.ws)

    def __hash__(self):
        return hash((self.vertex_count, self.us, self.vs, self.ws))

    def __repr__(self):
        return (f"GameInstance(vertex_count={self.vertex_count!r}, "
                f"edges={self.edges!r}, name={self.name!r})")

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.us, self.vs, self.ws))

    @property
    def edge_count(self) -> int:
        return len(self.us)


def _fill(g: GameInstance, n: int, cols: tuple, name: str | None) -> GameInstance:
    """Set the read-only fields of `g`; its columns `cols`, checked, become
    tuples one at a time, each list emptied once it is copied."""
    object.__setattr__(g, "vertex_count", n)
    for attr, col in zip(("us", "vs", "ws"), cols):
        object.__setattr__(g, attr, tuple(col))
        col.clear()
    object.__setattr__(g, "name", name)
    return g


def parse_instance(text: str) -> GameInstance:
    """Parse the line-oriented instance format into a validated instance.

    Every rejection names the offending 1-based line, numbered as
    `text.splitlines()` numbers them: malformed header, bad edge line,
    self-loop, duplicate edge, negative weight, vertex id out of range,
    or an edge count that disagrees with the header. `_records` reads
    up to the header one line at a time, then the edge lines in pieces
    of about `_PIECE` characters. A piece made only of canonical edge
    lines (`e U V W` in ASCII with "\\n" line ends, as
    `serialize_instance` writes them) arrives as three columns that
    are checked whole and extend the instance's columns
    (`_take_columns`). Any other piece is read one
    line at a time by `_line_records`, the header's reader too; its
    edges, and those of any columns that fail a check, are checked one
    at a time, in file order, by `_normalized_edges`, the only code
    that names a fault. So the first fault in the file is the one
    reported, exactly as a line-by-line read reports it, and nothing
    is read past the piece that holds it. A rejected edge is restated
    with its line; the edge counts are compared once every line is
    read.

    While the keys `u * n + v` of the pairs rise, no pair can repeat,
    and `seen`, the set of keys the duplicate check needs, stays empty.
    It is built from the columns at the first piece of columns, or the
    first edge from the line reader, whose keys do not rise.

    A header past `MAX_VERTICES` or `MAX_EDGES` raises `BoundExceeded`
    before any edge is read, and so does an edge line past the
    `MAX_EDGES`-th, so a parse never holds more than `MAX_EDGES + 1`
    edges whatever the file's length.
    """
    records = _records(text)
    n, m, header_line = next(records)
    _check_bounds(f"line {header_line}: header declares", n, m)
    cols: tuple[list[int], list[int], list[int]] = ([], [], [])
    seen: set[int] = set()  # empty while the pairs of `cols` rise
    try:
        for batch in records:
            room = MAX_EDGES + 1 - len(cols[0])
            if type(batch) is tuple:  # the columns of a piece of canonical lines
                if len(batch[0]) < room and _take_columns(n, *batch, cols, seen):
                    continue
                batch = zip(*batch)
            _normalized_edges(n, islice(batch, room), cols, seen)
            if len(cols[0]) > MAX_EDGES:
                break
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
    count = len(cols[0])
    if count > MAX_EDGES:
        raise BoundExceeded(f"line {_edge_line(text, MAX_EDGES)[0]}: more than "
                            f"{MAX_EDGES} edge lines, above the bound")
    if count > m:
        raise InstanceFormatError(
            _edge_line(text, m)[0], f"more edge lines than the {m} declared")
    if count < m:
        raise InstanceFormatError(
            header_line, f"header declares {m} edges but {count} found")
    return _fill(GameInstance.__new__(GameInstance), n, cols, None)


def _take_columns(n: int, us, vs, ws, cols: tuple, seen: set[int]) -> bool:
    """Extend `cols` by columns of ints, ends in `range(n)`, with `u < v`,
    if they pass every check of `_normalized_edges`; tell whether they did.

    Each check runs on whole columns. A negative weight, a self-loop or
    a repeated pair leaves `cols` as it was, for the one-at-a-time check
    to name the first fault. While `seen` is empty the pairs of `cols`
    rise, and a piece whose keys rise strictly from above the last
    pair's is taken with no set; else `seen` is built from `cols` and
    must take every key.
    """
    if min(ws) < 0 or any(map(eq, us, vs)):
        return False
    if any(map(gt, us, vs)):  # reversed pairs, swapped in bulk
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
    keys = list(map(add, map(mul, us, repeat(n)), vs))  # the keys `_normalized_edges` keeps
    last = cols[0][-1] * n + cols[1][-1] if cols[0] else -1
    if seen or not (last < keys[0] and all(map(lt, keys, islice(keys, 1, None)))):
        if not seen:  # the first pair out of order ends the order proof
            seen.update(map(add, map(mul, cols[0], repeat(n)), cols[1]))
        fresh = set(keys)
        if len(fresh) != len(keys) or not seen.isdisjoint(fresh):  # a repeated pair
            return False
        seen.update(fresh)
    for col, new in zip(cols, (us, vs, ws)):
        col.extend(new)
    return True


def _records(text: str) -> Iterator:
    """The parsed lines of `text`: first the header `(n, m, line)`, then
    the edge lines after it in file order, in batches of 0-based
    `(u, v, w)`.

    `_pieces` cuts the text: up to the header one "\\n"-ended chunk at
    a time, and after it in pieces of about `_PIECE` characters, each
    ending just after a "\\n". Every line of a chunk, and of a piece
    that `_columns` does not take, is read by `_line_records`; the lines
    of the header's chunk after the header become the first batch. A
    piece that `_columns` takes becomes one batch: the tuple of its
    three columns. A line that breaks the syntax raises `InstanceFormatError`
    only when the reader gets to it, so every edge before it has
    already been checked. Vertex ids are read through a table from
    their strings once the lines read number at least twice the
    vertices, so the table never outweighs them.
    """
    lineno, start = 0, 0
    for chunk in _pieces(text, 0, 0):
        start += len(chunk)
        lines = chunk.splitlines()
        records = _line_records(lines, lineno, header=True)
        lineno += len(lines)
        if (header := next(records, None)) is not None:
            break
    else:
        raise InstanceFormatError(1, "missing header")
    yield header
    yield records  # the lines after the header in its chunk
    n = header[0]
    ids = None
    for piece in _pieces(text, start, _PIECE):
        lines = piece.count("\n")
        if ids is None and 2 * n <= lineno + lines:
            ids = {str(i + 1): i for i in range(n)}
        columns = _columns(piece, lines, n, ids)
        if columns is None:
            piece_lines = piece.splitlines()
            yield _line_records(piece_lines, lineno, header=False)
            lineno += len(piece_lines)
        else:
            yield columns
            lineno += lines


# Characters that, besides "\n", end a line for `str.splitlines` in
# ASCII text, and the two that `int()` reads in a number but the
# format does not allow
_NOT_CANONICAL = "\r\x0b\x0c\x1c\x1d\x1e+_"


def _columns(piece: str, lines: int, n: int, ids: dict[str, int] | None):
    """The columns `(us, vs, ws)` of a piece of `lines` canonical edge
    lines whose ids are all in 1..n, as lists of 0-based endpoints and
    of weights; else None.

    A canonical line is `e U V W` in ASCII, ending in "\\n", that the
    line reader reads as the same edge. The test proves it of all the
    lines at once: every line starts with "e ", the piece holds no
    other line break and no "+" or "_" (so `int()` reads a token only
    as `-?[0-9]+`), `split()` gives 4 tokens a line, and every token at
    a place 1, 2 or 3 mod 4 reads as a number. So no "e" is at such a
    place, each line's leading "e" is at a multiple of 4, and each line
    holds exactly its own 4 tokens. `ids` maps "1"..."n" to 0..n-1;
    without it ids are read with `int()` and their range checked.
    """
    if not (piece.startswith("e ") and piece.endswith("\n") and piece.isascii()
            and piece.count("\ne ") == lines - 1
            and not any(c in piece for c in _NOT_CANONICAL)):
        return None
    tokens = piece.split()
    if len(tokens) != 4 * lines:
        return None
    try:
        ws = list(map(int, tokens[3::4]))
        if ids is not None:
            id_of = ids.__getitem__
            return list(map(id_of, tokens[1::4])), list(map(id_of, tokens[2::4])), ws
        us = list(map(int, tokens[1::4]))
        vs = list(map(int, tokens[2::4]))
    except (KeyError, ValueError):  # an id not in `ids`, a token not a number
        return None
    if min(us) < 1 or min(vs) < 1 or max(us) > n or max(vs) > n:
        return None
    return list(map(sub, us, repeat(1))), list(map(sub, vs, repeat(1))), ws


def _line_records(lines: list[str], lineno: int, header: bool) -> Iterator:
    """The records of `lines`, the lines after line `lineno`, read one
    line at a time: if `header`, first the header `(n, m, line)` (an
    edge line before it raises), then the edges as `(u, v, w)` with
    0-based endpoints (a second header raises).

    Reads the syntax only: a line that breaks it raises
    `InstanceFormatError` when the reader gets to it.
    """
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if fields[0] == "e" and not header:  # nearly every line, so tested first
            if len(fields) != 4 or not _plain_digits(line):
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(lineno, f"malformed edge line: {line!r}")
            yield u - 1, v - 1, w
        elif fields[0] == "p" and header:
            if len(fields) != 4 or fields[1] != "mg" or not _plain_digits(line):
                raise InstanceFormatError(lineno, f"malformed header: {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(lineno, f"malformed header: {line!r}")
            if n < 0 or m < 0:
                raise InstanceFormatError(lineno, "negative count in header")
            header = False
            yield n, m, lineno
        elif fields[0] in ("e", "p"):
            raise InstanceFormatError(lineno, "edge before header" if header else "duplicate header")
        else:
            raise InstanceFormatError(lineno, f"unknown directive: {fields[0]!r}")


_PIECE = 1 << 16  # characters of text read at a time past the header


def _pieces(text: str, start: int, least: int) -> Iterator[str]:
    """The pieces of `text` from `start` on, each ending just past the
    first "\\n" at least `least` characters on, or at the end of the text.

    No line break, "\\r\\n" included, straddles two pieces, so their
    lines and numbering are exactly those of `text.splitlines()`.
    """
    while start < len(text):
        end = text.find("\n", start + least) + 1 or len(text)  # 0: no "\n" left
        yield text[start:end]
        start = end


def _edge_line(text: str, index: int) -> tuple[int, str]:
    """Line number and stripped text of edge line `index` (0-based) of a
    file whose lines up to that one parse.

    The parse keeps no line number per edge; only its error paths need
    one, and they read the text again up to the edge, one piece at a
    time, without a list of all its lines.
    """
    lines = chain.from_iterable(map(str.splitlines, _pieces(text, 0, _PIECE)))
    edge_lines = ((lineno, raw) for lineno, raw in enumerate(lines, start=1)
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
    for (u, v, w) in zip(g.us, g.vs, g.ws):
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
    _check_int("n", n)
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
        edges += [(a, b, 0) for a, b in combinations(range(0, 6 * n, 3), 2)]
    return GameInstance(6 * n, tuple(edges), name=name)


def gen_odd_cycle(k: int, weight: int = 1) -> GameInstance:
    """Cycle on 2k+1 vertices with every edge at the given weight."""
    _check_int("k", k)
    _check_int("weight", weight)
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
    _check_int("n", n)
    _check_int("max_weight", max_weight)
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
    pairs = product(range(left), range(left, n)) if bipartite else combinations(range(n), 2)
    edges: list[Edge] = []
    for (u, v) in pairs:
        if rng.randrange(p.denominator) < p.numerator:
            edges.append((u, v, rng.randint(1, max_weight)))
            if len(edges) > MAX_EDGES:
                raise BoundExceeded(
                    f"{name} drew more than {MAX_EDGES} edges, above the bound")
    return GameInstance(n, tuple(edges), name=name)
