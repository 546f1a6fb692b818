"""Independent verification oracles, exhaustive by design.

Everything here re-derives facts from first principles rather than
trusting the mechanism pipeline: coalition worths by brute-force
matching enumeration, core membership by checking every subset of
agents, the relaxation gap by comparing the integral and fractional
optima, and the structural factor guarantee from the shortest odd
cycle. The integral optimum is enumerated only between two bounds
checked here: the weight of the mechanism's backing matching and the
floor of a feasible dual's total, the fractional optimum. Exponential
enumeration is bounded and refuses to run past its size bound rather
than silently approximating. Every comparison is an exact integer one
(see `check_core`); `Fraction`s are built only for the reports.

Costs: `check_core` in edges mode is O(m); in exhaustive mode it is
O(2^n * degree) for the subset table plus one pass over all 2^n
coalitions, in O(2^(n-1)) memory: it stores the worths of the
coalitions without the top vertex, all that the others' worths read,
as one `bytearray` of fixed-width fields, a few bytes per coalition,
and streams the rest of the worths and every coalition's allocation in
slices of at most 4,096 masks. A slice is one int of such fields, so
each step of the subset table and each slice's marks are a handful of
C-level big-int operations, not a Python step per mask; Python runs
per coalition only at the violations and the tight coalitions that the
report lists, and reads their members from tables by mask byte. The
worst ratio comes from the edges, in O(m). `odd_girth` runs one
breadth-first search per vertex, over the vertices numbered from it
on, each cut off once it cannot beat the shortest odd cycle found so
far; O(n * m) stays the worst case, but a triangle ends the scan and a
short odd cycle cuts every later search.

Two deliberately different exact matchers are provided so they can be
played against each other: `worth_bruteforce` enumerates matchings
recursively with weight-bound pruning for a single coalition, while
`coalition_worth_table` computes the worths of all 2^n coalitions at
once by dynamic programming over vertex subsets.
"""

import functools
import math
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .bipartite import check_certificate
from .errors import BoundExceeded, InvariantViolation
from .instances import GameInstance
from .mechanism import run_pipeline
from .rationals import FractionArray

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
        inside = zip(g.us, g.vs, g.ws)
    else:
        given = tuple(coalition)
        for i in given:  # before any set: {1, True} == {1}
            if type(i) is not int:
                raise ValueError(f"coalition member {i!r} is not an int")
            if not (0 <= i < g.vertex_count):
                raise ValueError(f"vertex {i} outside the instance")
        members = set(given)
        inside = (e for e in zip(g.us, g.vs, g.ws) if e[0] in members and e[1] in members)
    sub = _positive_edges(inside, max_edges)
    if sub is None:  # `inside` is left past the edge over the bound
        count = max(max_edges + 1, 0) + sum(1 for e in inside if e[2])
        raise BoundExceeded(f"coalition has {count} weighted edges, above the bound "
                            f"{max_edges}; raise max_edges to force the enumeration")
    return _max_matching_recursive(sub)


def _positive_edges(edges: Iterable, max_edges: int = DEFAULT_MAX_EDGES) -> list | None:
    """The positive-weight `edges`, or None past `max_edges` of them."""
    sub = list(islice(filter(itemgetter(2), edges), max(max_edges + 1, 0)))
    return None if len(sub) > max_edges else sub


def _max_matching_recursive(edges: list[tuple[int, int, int]], best: int = 0,
                            stop: int | None = None) -> int:
    """Max weight of a matching of `edges`, at least `best`; ends on reaching `stop`."""
    if not edges or best == stop:
        return best
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

    def rec(pos: int, cur: int, pot: int) -> None:
        nonlocal best
        if cur > best:
            best = cur
        while pos < nv and not free[pos]:
            pos += 1
        if pos == nv:
            return
        # each future edge weighs at most half its endpoints' maxima
        if 2 * cur + pot <= 2 * best or best == stop:
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
    recursive matcher above and of the solver pipeline. This is the
    exhaustive `check_core`'s own DP (`_worth_store`) at scale 1, read
    out of its packed fields into a list.
    """
    n = g.vertex_count
    _check_size(n)
    nb = _field_bytes(sum(g.ws))
    store = _worth_store(_lower_neighbours(g, 1), nb)
    return [int.from_bytes(store[i:i + nb], "little") for i in range(0, len(store), nb)]


# Masks per slice of the worth table's blocks as they are built and of
# the exhaustive check's worth and allocation streams. A slice is one
# int of 4,096 fields at most, and each big-int step makes a new one:
# over a whole table, every step would copy the table.
_SLICE = 1 << 12


def _check_size(n: int) -> None:
    if n > DEFAULT_MAX_VERTICES:
        raise BoundExceeded(
            f"{n} vertices need a 2^{n} table, above the bound {DEFAULT_MAX_VERTICES}")


def _field_bytes(*bounds: int) -> int:
    """Bytes per field for values up to the largest of `bounds`, with
    the field's top bit, the guard bit, left above them."""
    return (max(bounds).bit_length() + 8) // 8


def _packed(value: int, nb: int, count: int) -> int:
    """`count` fields of `nb` bytes, each holding `value`."""
    return int.from_bytes(value.to_bytes(nb, "little") * count, "little")


def _read(store: bytes, nb: int, start: int, size: int) -> int:
    """Fields `start` to `start` + `size` - 1 of `store`, as one int."""
    return int.from_bytes(store[start * nb:(start + size) * nb], "little")


def _lower_neighbours(g: GameInstance, k: int) -> list[list[tuple[int, int]]]:
    """Per vertex v, its neighbours u < v with k times the edge's weight."""
    lower: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for (u, v, w) in zip(g.us, g.vs, g.ws):  # normalized: u < v
        lower[v].append((u, k * w))
    return lower


def _worth_store(lower: list[list[tuple[int, int]]], nb: int) -> bytearray:
    """k * the worth of every coalition of the vertices below
    len(`lower`), with `lower` as `_lower_neighbours` gives it, by mask,
    in fields of `nb` bytes: mask i's is bytes i * nb to (i + 1) * nb,
    least significant first. Built one block per vertex t, the
    coalitions whose highest member is t, in slices of at most `_SLICE`
    masks (`_block`)."""
    store = bytearray(nb << len(lower))
    for t, neighbours in enumerate(lower):
        half = 1 << t
        size = min(half, _SLICE)
        guard = _packed(1 << (8 * nb - 1), nb, size)
        offers = _offers(neighbours, nb, size)
        for start in range(0, half, size):
            store[(half + start) * nb:(half + start + size) * nb] = _block(
                store, nb, guard, offers, start, size).to_bytes(size * nb, "little")
    return store


def _offers(neighbours: list[tuple[int, int]], nb: int,
            size: int) -> list[tuple[int, int | None, int]]:
    """Per lower neighbour j of a vertex t, with k * w(j, t):
    (2^j, the fields of a `size`-mask slice whose mask holds j, k * w
    in those fields), or (2^j, None, k * w in every field) when 2^j is
    at least `size`, so that j is in all of a slice's masks or in none."""
    out = []
    for (j, kw) in neighbours:
        run = 1 << j
        field = kw.to_bytes(nb, "little")
        if run < size:
            skip = bytes(run * nb)
            reps = size // (2 * run)
            out.append((run, int.from_bytes((skip + b"\xff" * (run * nb)) * reps, "little"),
                        int.from_bytes((skip + field * run) * reps, "little")))
        else:
            out.append((run, None, int.from_bytes(field * size, "little")))
    return out


def _block(low: bytearray, nb: int, guard: int, offers: list[tuple[int, int | None, int]],
           start: int, size: int) -> int:
    """k * the worths of the `size` coalitions `start`, `start` + 1, ...
    of the block of a vertex t, each mask taken with bit t cleared, as
    one int of `nb`-byte fields.

    `low` holds k * the worths of every coalition below t (at least the
    first 2^t fields), `size` is a power of two that divides `start`,
    `guard` is the top bit of each of `size` fields and `offers` is
    `_offers(t's lower neighbours, nb, size)`. A coalition's worth
    starts as `low`'s (t stays unmatched); each lower neighbour j then
    offers k * w(j, t) plus the worth of the coalition without j and t.
    Below `size` that worth is the slice's own field 2^j lower, so one
    shift of the slice moves every offer into place; a bit j at or
    above `size` is constant over the slice, so the offer applies to
    the whole slice, from `low`'s slice 2^j lower, or to none of it.
    Each offer is then kept field by field where it beats the worth so
    far, by one guarded subtraction (see `check_core`).
    """
    bits = 8 * nb
    own = out = _read(low, nb, start, size)
    for (run, select, add) in offers:
        if select is not None:
            cand = ((own << (run * bits)) & select) + add
        elif start & run:
            cand = _read(low, nb, start - run, size) + add
        else:
            continue
        keep = ((out | guard) - cand) & guard
        keep = (keep << 1) - (keep >> (bits - 1))  # all ones where out >= cand
        out = cand ^ ((out ^ cand) & keep)
    return out


@functools.cache  # built at the first exhaustive check, not at import
def _byte_members(shift: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the vertices shift + i for the set bits i of the byte b,
    so a mask m < 2^24 has the members of its three bytes, in order."""
    return tuple(tuple(shift + i for i in range(8) if b >> i & 1) for b in range(256))


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
    floats or `bool`s); `c` may also be a `FractionArray`, whose ints
    are read as they are, with no `Fraction` built.

    Both modes compare in integers: the imputation becomes numerators
    `ci` over one scale L, the lcm of its denominators, and with
    alpha = a/b a coalition S falls short exactly when
    b * sum(ci over S) < a * L * worth(S). Every value reported is a
    reduced `Fraction`, so the report does not depend on L.

    The exhaustive mode compares k * worth(S), with k = a * L, against
    y = b * sum(ci over S) in packed fields: one int holds a slice of
    masks, mask i's value in bits i * B to i * B + B - 1, both exact.
    B is the least multiple of 8 above the bit length of the larger of
    k * (sum of the weights) and b * sum(ci), so every value is below
    2^(B-1): k * worth(S) and every offer of the subset DP,
    k * w(j, t) + k * worth(S without j and t), are at most
    k * (sum of the weights), and y at most b * sum(ci). Let G hold the
    top bit, the guard bit, of every field, and A and C be packed
    values. Field i of (A | G) - C is then A_i + 2^(B-1) - C_i, which
    lies in [1, 2^B): no field borrows from the next, and
    ((A | G) - C) & G has the guard bit of field i set exactly where
    A_i >= C_i. The DP keeps, field by field, the larger of the worth
    so far and each offer by that mark; the check marks every mask with
    k * worth(S) >= y and k * worth(S) >= 1, the violations and the
    tight coalitions, and a second mark, of k * worth(S) >= y + 1, the
    violations: y + 1 <= 2^(B-1) does not borrow either (`_exhaustive`).

    The worst ratio, the least x(S) / worth(S) over the coalitions of
    positive worth, is r, the least (c_i + c_j) / w_ij over the
    positive edges, in both modes. Proof: each such edge's pair is a
    coalition of worth w_ij, so the least ratio is at most r; and a
    coalition S of worth W > 0 has a matching M of weight W, over which,
    the c being nonnegative, x(S) >= sum over M of (c_i + c_j)
    >= r * w(M) = r * W. Hence violations (x(S) < alpha * W with W > 0;
    a worthless coalition cannot fall short) exist exactly when
    r < alpha, and with none, tight coalitions (x(S) = alpha * W, W > 0)
    exist exactly when r == alpha. The exhaustive mode takes r from the
    edge pass and raises `InvariantViolation` unless its enumeration
    agrees.
    """
    n = g.vertex_count
    if type(c) is FractionArray and len(c.dens) != len(c.nums):
        raise ValueError(f"imputation has {len(c.nums)} numerators and {len(c.dens)} denominators")
    if len(c) != n:
        raise ValueError(f"imputation has {len(c)} entries for {n} vertices")
    # `type(x)` rather than isinstance: `bool` is an `int` subclass
    if type(c) is not FractionArray:
        for x in c:
            if type(x) not in (int, Fraction):
                raise ValueError(f"{x!r} is not an int or a Fraction")
        c = FractionArray([x.numerator for x in c], [x.denominator for x in c])
    if type(alpha) not in (int, Fraction):
        raise ValueError(f"{alpha!r} is not an int or a Fraction")
    if any(x < 0 for x in c.nums):
        raise ValueError("imputation entries must be nonnegative")
    if any(d < 1 for d in c.dens):
        raise ValueError("imputation denominators must be positive")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    scale = math.lcm(*c.dens)
    ci = [x * (scale // d) for x, d in zip(c.nums, c.dens)]
    total = sum(ci)

    if mode == "exhaustive":
        _check_size(n)
        b = alpha.denominator
        violations, tight, grand = _exhaustive(g, [b * x for x in ci],
                                               alpha.numerator * scale, b * scale)
        worst = _edge_pass(g, ci, alpha, scale)[2]
        below = worst is not None and worst < alpha
        if below != bool(violations) or (
                not violations and (worst == alpha) != bool(tight)):
            raise InvariantViolation(
                f"{len(violations)} violations and {len(tight)} tight coalitions "
                f"at alpha {alpha} disagree with the worst edge ratio {worst}")
        checked = 1 << n
    elif mode == "edges":
        violations, tight, worst = _edge_pass(g, ci, alpha, scale)
        checked = g.edge_count
        grand = None if _positive_edges(zip(g.us, g.vs, g.ws)) is None else worth_bruteforce(g)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return CoalitionReport(
        alpha=alpha, mode=mode, checked_count=checked,
        violations=violations, tight_coalitions=tight, worst_ratio=worst,
        total_allocated=Fraction(total, scale), grand_worth=grand,
        budget_ok=None if grand is None else total <= scale * grand)


def _exhaustive(g: GameInstance, bci: list[int], k: int, den: int) -> tuple[
        tuple[CoalitionViolation, ...], tuple[tuple[int, ...], ...], int]:
    """Violations and tight coalitions among all 2^n masks, in mask
    order, and the grand worth; with `bci` the b * `ci`, k = a * L and
    `den` = b * L.

    Every mask's k * w and y = b * sum(ci over S) are packed one per
    field (`check_core` gives the width and the proof), and two guarded
    subtractions per slice, of y and of 1, mark every mask with
    y <= k * w and w > 0; in a slice with any, a third, of y + 1, marks
    the violations, and the rest are tight. Only a violation's fields
    are read. A coalition of worth 0 is neither, so none is read.
    """
    n = g.vertex_count
    if n == 0:  # the empty coalition: worth 0, paid 0
        return (), (), 0
    nb = _field_bytes(k * sum(g.ws), sum(bci))
    bits = 8 * nb
    lower = _lower_neighbours(g, k)
    top = n - 1
    low = _worth_store(lower[:top], nb)
    size = min(1 << top, _SLICE)
    span = size * nb
    ones = _packed(1, nb, size)
    guard = ones << (bits - 1)
    offers = _offers(lower[top], nb, size)
    starts = range(0, 1 << top, size)
    worths = chain((_read(low, nb, start, size) for start in starts),
                   (_block(low, nb, guard, offers, start, size) for start in starts))
    # y over a slice's low vertices, packed, plus one offset per slice
    # for the vertices from log2(size) on
    low_bits = size.bit_length() - 1
    ys = 0
    for t, x in enumerate(bci[:low_bits]):
        ys += (ys + _packed(x, nb, 1 << t)) << (bits << t)
    y_fields = ys.to_bytes(span, "little")
    offsets = [0]
    for x in bci[low_bits:]:
        offsets += [y + x for y in offsets]

    t0, t1, t2 = map(_byte_members, (0, 8, 16))  # n <= 20: three bytes

    def hits(fields: int, first: int):  # masks first + i whose field i has its guard bit set
        tops = fields.to_bytes(span, "little")[nb - 1::nb]
        i = -1
        while (i := tops.find(128, i + 1)) >= 0:
            yield first + i

    violations = []
    tight = []
    for first, worth, off in zip(range(0, 1 << n, size), worths, offsets):
        lifted = worth | guard
        above = lifted - (ys + off * ones)
        marks = above & (lifted - ones) & guard
        if not marks:
            continue
        short = (above - ones) & guard  # y + 1 <= k * w: the violations
        tight += [t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16] for m in hits(marks ^ short, first)]
        if short:
            w_fields = worth.to_bytes(span, "little")
            violations += [
                CoalitionViolation(t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16],
                                   _read(w_fields, nb, m - first, 1) // k,
                                   Fraction(_read(y_fields, nb, m - first, 1) + off, den))
                for m in hits(short, first)]
    return tuple(violations), tuple(tight), (worth >> (span * 8 - bits)) // k


def _edge_pass(g: GameInstance, ci: list[int], alpha: Fraction, scale: int) -> tuple[
        tuple[CoalitionViolation, ...], tuple[tuple[int, ...], ...], Fraction | None]:
    """Violations, tight pairs and the worst ratio over the edges'
    two-agent coalitions, in one pass, with `ci` numerators over
    `scale`."""
    a_scale, b = alpha.numerator * scale, alpha.denominator
    violations = []
    tight = []
    worst_num, worst_den = 1, 0  # 1/0 stands above every ratio
    for (i, j, worth) in zip(g.us, g.vs, g.ws):
        x = ci[i] + ci[j]
        lhs, rhs = b * x, a_scale * worth
        if lhs < rhs:
            violations.append(CoalitionViolation((i, j), worth, Fraction(x, scale)))
        if worth:
            if lhs == rhs:
                tight.append((i, j))
            if x * worst_den < worst_num * worth:
                worst_num, worst_den = x, worth
    worst = Fraction(worst_num, scale * worst_den) if worst_den else None
    return tuple(violations), tuple(tight), worst


def integrality_gap(g: GameInstance, max_edges: int = DEFAULT_MAX_EDGES) -> GapReport:
    """Integral optimum nu against the fractional optimum tau.

    tau comes from one run of the pipeline, at any size. nu is refused
    past `max_edges` positive edges, leaving emptiness unknown; else its
    certificate is checked here, its feasible dual bounding nu by tau,
    and nu enumerated from a checked matching's weight up to floor(tau)
    (`_integral_optimum`). The core is nonempty exactly if nu = tau.
    """
    trace = run_pipeline(g)
    opt_f = Fraction(trace.certificate.total_dual(), 2)  # tau, by strong duality
    positive = _positive_edges(zip(g.us, g.vs, g.ws), max_edges)
    if positive is None:
        return GapReport(None, opt_f, None, None)
    if problems := check_certificate(g, trace.certificate):
        raise InvariantViolation(f"certificate of tau is invalid: {problems[0]}")
    opt_i = _integral_optimum(g, positive, trace.result.matching, math.floor(opt_f))
    if opt_i > opt_f or 3 * opt_i < 2 * opt_f:
        raise InvariantViolation(
            f"optima out of order: integral {opt_i}, fractional {opt_f}")
    return GapReport(opt_i, opt_f, Fraction(opt_i) / opt_f if opt_f > 0 else None, opt_i == opt_f)


def _integral_optimum(g: GameInstance, positive: list[tuple[int, int, int]],
                      matching: Sequence[tuple[int, int]], stop: int) -> int:
    """nu, with `positive` g's positive-weight edges, enumerated only from
    the weight in g of `matching`, once its pairs are checked to be
    disjoint edges (u, v), u < v, of g, up to `stop`, floor(tau)."""
    pairs = set(matching)
    weights = [w for (u, v, w) in zip(g.us, g.vs, g.ws) if (u, v) in pairs]
    if len(weights) != len(matching) or len({x for p in pairs for x in p}) != 2 * len(pairs):
        raise InvariantViolation(f"backing matching {matching} is not a matching of g")
    return _max_matching_recursive(positive, sum(weights), stop)


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
    for (u, v) in zip(g.us, g.vs):
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
