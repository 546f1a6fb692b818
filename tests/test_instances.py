"""Instance model: parsing, serialization, generators, validation."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcore.errors import BoundExceeded, InstanceFormatError
from matchcore.instances import (
    MAX_VERTICES,
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
    serialize_instance,
)

K3_TEXT = "p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"


def test_parse_k3():
    g = parse_instance(K3_TEXT)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 1), (1, 2, 1), (0, 2, 1))


def test_parse_single_edge():
    g = parse_instance("p mg 2 1\ne 1 2 5\n")
    assert g.vertex_count == 2
    assert g.edges == ((0, 1, 5),)


def test_parse_comments_and_blank_lines():
    g = parse_instance("# a triangle\n\np mg 3 3\ne 1 2 1\n# middle\ne 2 3 1\ne 1 3 1\n")
    assert g.edge_count == 3


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("p mg 3 2\ne 1 2 1\ne 1 2 2\n")
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_parse_reversed_duplicate_detected():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("p mg 3 2\ne 1 2 1\ne 2 1 2\n")
    assert err.value.line == 3


@pytest.mark.parametrize("text,line,fragment", [
    ("p xx 3 3\n", 1, "header"),
    ("e 1 2 1\n", 1, "before header"),
    ("p mg 2 1\ne 1 1 4\n", 2, "self-loop"),
    ("p mg 2 1\ne 1 2 -3\n", 2, "negative weight"),
    ("p mg 2 1\ne 1 3 4\n", 2, "out of range"),
    ("p mg 2 1\ne 0 2 4\n", 2, "out of range"),
    ("p mg 2 1\ne 1 2\n", 2, "malformed edge"),
    ("p mg 2 1\nq 1 2 1\n", 2, "unknown directive"),
    ("q 1 2 1\np mg 2 1\n", 1, "unknown directive"),
    ("", 1, "missing header"),
    ("p mg 2 2\ne 1 2 1\n", 1, "declares 2 edges"),
    ("p mg 2 0\ne 1 2 1\n", 2, "more edge lines"),
    # each token passes the ASCII, no "+" and no "_" test, but "-" is no number
    ("p mg 2 1\ne 1 - 3\n", 2, "malformed edge line: 'e 1 - 3'"),
    ("p mg - 3\n", 1, "malformed header: 'p mg - 3'"),
    ("p mg 2 0\np mg 2 0\n", 2, "duplicate header"),
    ("p mg -1 0\n", 1, "negative count in header"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,line,fragment", [
    ("p mg 3 2\ne 1 1 1\ne 1 2\n", 2, "self-loop"),
    ("p mg 3 2\ne 1 2 -1\np mg 3 2\n", 2, "negative weight"),
    ("p mg 3 1\ne 1 4 1\nq\n", 2, "out of range"),
    ("p mg 3 1\ne 1 2 1\ne 2 1 1\n", 3, "first seen at line 2"),
    # each bad edge, then a malformed line, an unknown directive, a
    # second header, one edge line too many and one too few
    ("p mg 4 3\ne 3 4 5\ne 1 5 1\ne 1 2\n", 3, "vertex id out of range in 'e 1 5 1'"),
    ("p mg 4 2\ne 3 4 5\ne 1 5 1\nq 1 2\n", 3, "vertex id out of range in 'e 1 5 1'"),
    ("p mg 4 2\ne 3 4 5\ne 1 5 1\np mg 4 9\n", 3, "vertex id out of range in 'e 1 5 1'"),
    ("p mg 4 2\ne 3 4 5\ne 1 5 1\ne 1 4 1\n", 3, "vertex id out of range in 'e 1 5 1'"),
    ("p mg 4 3\ne 3 4 5\ne 1 5 1\n", 3, "vertex id out of range in 'e 1 5 1'"),
    ("p mg 4 3\ne 3 4 5\ne 2 2 1\ne 1 2\n", 3, "self-loop at vertex 2"),
    ("p mg 4 2\ne 3 4 5\ne 2 2 1\nq 1 2\n", 3, "self-loop at vertex 2"),
    ("p mg 4 2\ne 3 4 5\ne 2 2 1\np mg 4 9\n", 3, "self-loop at vertex 2"),
    ("p mg 4 2\ne 3 4 5\ne 2 2 1\ne 1 4 1\n", 3, "self-loop at vertex 2"),
    ("p mg 4 3\ne 3 4 5\ne 2 2 1\n", 3, "self-loop at vertex 2"),
    ("p mg 4 3\ne 3 4 5\ne 1 2 -1\ne 1 2\n", 3, "negative weight -1"),
    ("p mg 4 2\ne 3 4 5\ne 1 2 -1\nq 1 2\n", 3, "negative weight -1"),
    ("p mg 4 2\ne 3 4 5\ne 1 2 -1\np mg 4 9\n", 3, "negative weight -1"),
    ("p mg 4 2\ne 3 4 5\ne 1 2 -1\ne 1 4 1\n", 3, "negative weight -1"),
    ("p mg 4 3\ne 3 4 5\ne 1 2 -1\n", 3, "negative weight -1"),
    ("p mg 4 4\ne 3 4 5\ne 1 2 1\ne 2 1 1\ne 1 2\n", 4, "duplicate edge (2, 1), first seen at line 3"),
    ("p mg 4 3\ne 3 4 5\ne 1 2 1\ne 2 1 1\nq 1 2\n", 4, "duplicate edge (2, 1), first seen at line 3"),
    ("p mg 4 3\ne 3 4 5\ne 1 2 1\ne 2 1 1\np mg 4 9\n", 4, "duplicate edge (2, 1), first seen at line 3"),
    ("p mg 4 3\ne 3 4 5\ne 1 2 1\ne 2 1 1\ne 1 4 1\n", 4, "duplicate edge (2, 1), first seen at line 3"),
    ("p mg 4 4\ne 3 4 5\ne 1 2 1\ne 2 1 1\n", 4, "duplicate edge (2, 1), first seen at line 3"),
])
def test_parse_reports_the_first_fault_in_the_file(text, line, fragment):
    # a bad edge is reported before a later syntax or count error
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("p mg 2 1\ne 1 2 +1_000\n", 2),
    ("p mg 2 1\ne 1 2 +5\n", 2),
    ("p mg 2 1\ne 1 2 1_000\n", 2),
    ("p mg 2 1\ne \u0661 2 1\n", 2),  # ARABIC-INDIC DIGIT ONE
    ("p mg 2 1\ne 1 2 \uff15\n", 2),  # FULLWIDTH DIGIT FIVE
    ("# comment\np mg +2 1\ne 1 2 1\n", 2),
    ("p mg 2 \u0661\ne 1 2 1\n", 1),
])
def test_parse_rejects_non_ascii_decimal_numbers(text, line):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert "malformed" in str(err.value)


LINE_BREAKS = ["\r\n", "\r", "\x0c", "\x1c", "\u2028"]


def _long_text(sep: str, faults: dict[int, str], declared_extra: int = 0):
    """A 200-vertex instance text of about 125,000 characters whose edge
    lines end in `sep`, with `faults` replacing edge lines by index.

    A comment line with non-ASCII text ends in "\\n" every 40 lines, so
    the text also has plain newlines to break at. Edge line 6000 and
    later ones start over 80,000 characters in, past the first 65,536
    characters that the parser splits into lines at once. Returns the
    text and its list of edge lines.
    """
    n = 200
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)][:9000]
    edges = [f"e {u} {v} {1000 + i}" for i, (u, v) in enumerate(pairs)]
    for index, line in faults.items():
        edges[index] = line
    parts = [f"# instance über ✓ été\np mg {n} {len(edges) + declared_extra}{sep}"]
    for i, line in enumerate(edges):
        if i % 40 == 0:
            parts.append(f"# Kommentar {i} — ünïcödé\n")
        parts.append(line + sep)
    return "".join(parts), edges


def _line_of(text: str, line: str) -> int:
    """The 1-based number `text.splitlines()` gives `line`."""
    return text.splitlines().index(line) + 1


def _parse_error(text: str) -> InstanceFormatError:
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    return err.value


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_parse_long_text_out_of_range_line(sep):
    text, edges = _long_text(sep, {8500: "e 5 201 1"})
    err = _parse_error(text)
    assert err.line == _line_of(text, "e 5 201 1") > 8500
    assert "vertex id out of range in 'e 5 201 1'" in str(err)


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_parse_long_text_duplicate_lines(sep):
    _, edges = _long_text(sep, {})
    _, u, v, _ = edges[6000].split()
    text, edges = _long_text(sep, {8500: f"e {v} {u} 4"})
    err = _parse_error(text)
    assert err.line == _line_of(text, f"e {v} {u} 4")
    assert f"first seen at line {_line_of(text, edges[6000])}" in str(err)


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_parse_long_text_one_edge_line_too_many(sep):
    text, edges = _long_text(sep, {}, declared_extra=-1)
    err = _parse_error(text)
    assert err.line == _line_of(text, edges[-1])
    assert f"more edge lines than the {len(edges) - 1} declared" in str(err)


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_parse_long_text_malformed_line(sep):
    text, _ = _long_text(sep, {8500: "e 1 2"})
    err = _parse_error(text)
    assert err.line == _line_of(text, "e 1 2")
    assert "malformed edge line" in str(err)


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_parse_long_text_bad_edge_before_malformed_line(sep):
    # the syntax fault comes last, so the bad edge's line is found again
    text, _ = _long_text(sep, {7000: "e 7 0 1", 8500: "e 1 2"})
    err = _parse_error(text)
    assert err.line == _line_of(text, "e 7 0 1")
    assert "out of range" in str(err)


def test_instance_stores_plain_tuples_with_u_below_v():
    class Edge(tuple):
        pass

    plain = ((0, 1, 5), (1, 2, 7), (0, 2, 0))
    forms = [
        plain,
        [[0, 1, 5], [1, 2, 7], [0, 2, 0]],
        ((1, 0, 5), (2, 1, 7), (2, 0, 0)),
        tuple(Edge(e) for e in plain),
        [Edge((1, 0, 5)), [2, 1, 7], (0, 2, 0)],
    ]
    for edges in forms:
        g = GameInstance(3, edges)
        assert g.edges == plain
        assert g == GameInstance(3, plain)
        assert all(type(e) is tuple and e[0] < e[1] for e in g.edges)
        # held as three tuples of plain ints, not as the edges given
        assert (g.us, g.vs, g.ws) == ((0, 1, 0), (1, 2, 2), (5, 7, 0))
        assert {type(x) for col in (g.us, g.vs, g.ws) for x in col} == {int}
        assert type(g.us) is type(g.vs) is type(g.ws) is tuple


def test_instance_columns_cannot_be_changed():
    g = GameInstance(3, ((0, 1, 5), (1, 2, 7)))
    for col, value in (("us", 2), ("vs", 0), ("ws", -4)):
        with pytest.raises(TypeError):
            getattr(g, col)[0] = value
        with pytest.raises(AttributeError):
            setattr(g, col, [value])
    assert g.edges == ((0, 1, 5), (1, 2, 7))
    assert hash(g) == hash(GameInstance(3, ((0, 1, 5), (1, 2, 7))))


def test_serialize_empty():
    assert serialize_instance(GameInstance(0, ())) == "p mg 0 0\n"


def test_serialize_single_edge():
    text = serialize_instance(GameInstance(2, ((0, 1, 5),)))
    assert text.splitlines() == ["p mg 2 1", "e 1 2 5"]


def test_round_trip_k3():
    g = parse_instance(K3_TEXT)
    assert parse_instance(serialize_instance(g)) == g


@pytest.mark.parametrize("name,comments", [
    ("gap_2c", "# gap_2c\n"),
    ("a\nb", "# a\n# b\n"),
    ("a\r\nb", "# a\n# b\n"),
    ("a\x1cb", "# a\n# b\n"),
    ("a\u2028b", "# a\n# b\n"),
])
def test_round_trip_name(name, comments):
    # one comment line per line of the name, so a line break in it
    # cannot start a directive
    g = GameInstance(2, ((0, 1, 3),), name=name)
    text = serialize_instance(g)
    assert text == comments + "p mg 2 1\ne 1 2 3\n"
    assert parse_instance(text) == g


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, data.draw(st.integers(0, 50))) for (u, v) in chosen)
    g = GameInstance(n, edges, name="prop")
    assert parse_instance(serialize_instance(g)) == g


def test_instance_validation():
    with pytest.raises(ValueError):
        GameInstance(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        GameInstance(2, ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(ValueError):
        GameInstance(2, ((0, 1, -1),))
    with pytest.raises(ValueError):
        GameInstance(2, ((0, 2, 1),))
    with pytest.raises(ValueError, match="vertex_count must be nonnegative"):
        GameInstance(-1, ())


def test_instance_refuses_a_vertex_count_past_the_bound():
    # refused before an edge is read, as the parser refuses the header;
    # at the bound the instance round-trips through the parser. Neither
    # is solved: the kernel would allocate rows for every vertex.
    edges = iter([(0, 1, 1)])
    with pytest.raises(BoundExceeded, match=f"^vertex_count {MAX_VERTICES + 1} is above "
                                            f"the bound of {MAX_VERTICES}$"):
        GameInstance(MAX_VERTICES + 1, edges)
    assert next(edges) == (0, 1, 1)
    g = GameInstance(MAX_VERTICES, [(0, 1, 1), (MAX_VERTICES - 2, MAX_VERTICES - 1, 7)])
    assert parse_instance(serialize_instance(g)) == g


def test_instance_reads_an_iterator_no_further_than_a_bad_edge():
    read = []

    def edges():
        for e in [(0, 1, 5), (1, 1, 2), (1, 2, 3)]:
            read.append(e)
            yield e

    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        GameInstance(3, edges())
    assert read == [(0, 1, 5), (1, 1, 2)]
    assert GameInstance(3, iter([(1, 0, 5), (1, 2, 3)])) == GameInstance(3, ((0, 1, 5), (1, 2, 3)))


def _checked_with_a_set(n, edges):
    """The constructor's checks in input order, with a set of the pairs
    from the first edge on: the edges `GameInstance` holds, or the text
    of the first fault."""
    seen, kept = set(), []
    for (u, v, w) in edges:
        if type(u) is not int or type(v) is not int:
            return f"an endpoint of edge ({u!r}, {v!r}) is not an int"
        if type(w) is not int:
            return f"weight {w!r} on edge ({u}, {v}) is not an int"
        if w < 0:
            return f"negative weight on edge ({u}, {v})"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range"
        if u == v:
            return f"self-loop at vertex {u}"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"duplicate edge {pair}"
        seen.add(pair)
        kept.append((*pair, w))
    return tuple(kept)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_instance_proves_ordered_pairs_distinct_as_a_set_does(data):
    # edges given as a tuple, a list or an iterator, in pair order or
    # not: the same edges, or the same first fault, as a set of pairs
    n = data.draw(st.integers(1, 7))
    end = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(end, end, st.integers(0, 9)), max_size=12))
    if data.draw(st.booleans()):
        edges.sort()  # pairs in order, with self-loops, repeats and reversed pairs
    for _ in range(data.draw(st.integers(0, 2))):
        u, v, w = data.draw(st.tuples(end, end, st.integers(0, 9)))
        odd = data.draw(st.sampled_from([
            (n, v, w), (u, n, w), (-1, v, w), (u, -1, w), (u, v, -1), (True, v, w), (u, 0.0, w),
            (u, v, 1.5), (u, v, Fraction(w)), [u, v, w]]))
        edges.insert(data.draw(st.integers(0, len(edges))), odd)
    given_as = data.draw(st.sampled_from([tuple, list, iter]))
    try:
        outcome = GameInstance(n, given_as(edges)).edges
    except ValueError as exc:
        outcome = str(exc)
    assert outcome == _checked_with_a_set(n, edges)


def test_instance_equality_with_other_types():
    g = GameInstance(1, ())
    assert g.__eq__((1, ())) is NotImplemented
    assert g != (1, ()) and g != "g"


@pytest.mark.parametrize("n,edges", [
    (2, ((0, 1, 1.5),)),
    (2, ((0, 1, True),)),
    (2, ((0, 1, Fraction(2)),)),
    (2, ((0.0, 1, 1),)),
    (2, ((0, True, 1),)),
    (True, ()),
])
def test_instance_rejects_non_int(n, edges):
    # coercing would change the instance silently (1.5 -> 1, True -> 1)
    with pytest.raises(ValueError, match="not an int"):
        GameInstance(n, edges)


def test_gap_family_counts():
    for n in range(1, 5):
        g = gen_gap_family(n)
        assert g.vertex_count == 6 * n
        assert g.edge_count == 6 * n
        assert all(w == 1 for (_, _, w) in g.edges)


def test_gap_family_connected_adds_zero_clique():
    g = gen_gap_family(1, connected=True)
    assert g.vertex_count == 6
    zero = [e for e in g.edges if e[2] == 0]
    assert zero == [(0, 3, 0)]
    assert g.edge_count == 7


def test_gap_family_rejects_zero():
    with pytest.raises(ValueError):
        gen_gap_family(0)


@pytest.mark.parametrize("make, message", [
    (lambda: gen_odd_cycle(0), "k must be >= 1"),
    (lambda: gen_odd_cycle(1, weight=-1), "weight must be nonnegative"),
    (lambda: gen_random(-1, Fraction(1, 2), 5, seed=1), "n must be nonnegative"),
    (lambda: gen_random(3, Fraction(1, 2), 0, seed=1), "max_weight must be >= 1"),
    # counts must be ints: a bool, a float or a Fraction is refused, not converted
    (lambda: gen_random(6, Fraction(1), True, seed=1), "max_weight True is not an int"),
    (lambda: gen_random(6, Fraction(1), 3.0, seed=1), "max_weight 3.0 is not an int"),
    (lambda: gen_random(6, Fraction(1), Fraction(5), seed=1), r"max_weight Fraction\(5, 1\) is not an int"),
    (lambda: gen_random(6.0, Fraction(1), 5, seed=1), "n 6.0 is not an int"),
    (lambda: gen_gap_family(True), "n True is not an int"),
    (lambda: gen_gap_family(2.0), "n 2.0 is not an int"),
    (lambda: gen_odd_cycle(True), "k True is not an int"),
    (lambda: gen_odd_cycle(2.0), "k 2.0 is not an int"),
    (lambda: gen_odd_cycle(2, weight=1.0), "weight 1.0 is not an int"),
])
def test_generators_reject_bad_arguments(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_odd_cycle_shapes():
    k3 = gen_odd_cycle(1)
    assert k3.vertex_count == 3 and k3.edge_count == 3
    c5 = gen_odd_cycle(2)
    assert c5.vertex_count == 5 and c5.edge_count == 5
    heavy = gen_odd_cycle(2, weight=3)
    assert all(w == 3 for (_, _, w) in heavy.edges)


def test_random_empty():
    assert gen_random(0, Fraction(1, 2), 10, seed=1).vertex_count == 0


def test_random_complete_bipartite():
    g = gen_random(6, Fraction(1), 1, seed=3, bipartite=True)
    assert g.edge_count == 9
    assert all(u < 3 <= v for (u, v, _) in g.edges)
    assert all(w == 1 for (_, _, w) in g.edges)


def test_random_deterministic():
    a = gen_random(8, Fraction(1, 2), 10, seed=42)
    b = gen_random(8, Fraction(1, 2), 10, seed=42)
    assert serialize_instance(a) == serialize_instance(b)
    c = gen_random(8, Fraction(1, 2), 10, seed=43)
    assert serialize_instance(a) != serialize_instance(c)


@pytest.mark.parametrize("p", [0.5, True, "1/2", Decimal("0.5")])
def test_random_rejects_inexact_probability(p):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        gen_random(6, p, 5, seed=1)


def test_random_extreme_probabilities():
    none = gen_random(6, Fraction(0), 5, seed=1)
    assert none.edge_count == 0
    full = gen_random(6, Fraction(1), 5, seed=1)
    assert full.edge_count == 15
