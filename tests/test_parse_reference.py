"""The parser against the line-by-line parser it replaced.

`parse_instance` reads a piece of canonical edge lines as whole
columns and anything else one line at a time. On every input it must
return the instance `oracles.reference_parse_instance` returns, or
raise the same exception type with the same text. Small texts come
from hypothesis; seeded texts over 65,536 characters span several
pieces, with one fault planted in each, often next to where one piece
ends and the next begins.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcore import instances
from matchcore.errors import MatchcoreError
from matchcore.instances import parse_instance
from oracles import reference_parse_instance


def _outcome(parse, text):
    try:
        return parse(text)
    except MatchcoreError as exc:  # InstanceFormatError or BoundExceeded
        return type(exc), str(exc)


def _assert_same(text):
    expected = _outcome(reference_parse_instance, text)
    assert _outcome(parse_instance, text) == expected
    return expected


# Line ends that `str.splitlines` breaks at, "\n" the most often, and
# a space, which puts every line on one.
BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x1c", "\x85", " "]
NUMBERS = st.one_of(st.integers(-2, 9).map(str),
                    st.sampled_from(["07", "-0", "+1", "1_0", "x", "٣", "", "2 3"]))


@st.composite
def _edge_line(draw, n):
    """An edge line, canonical `e U V W` most often."""
    if draw(st.integers(0, 3)):
        u, v = draw(st.integers(1, max(n, 1))), draw(st.integers(1, max(n, 1)))
        return f"e {u} {v} {draw(st.integers(0, 30))}"
    gap = st.sampled_from([" ", "  ", "\t", " \x1f"])
    lead = draw(st.sampled_from(["", " ", "\t"]))
    u, v, w = draw(NUMBERS), draw(NUMBERS), draw(NUMBERS)
    return f"{lead}e{draw(gap)}{u}{draw(gap)}{v}{draw(gap)}{w}{draw(st.sampled_from(['', ' ']))}"


OTHER_LINES = st.sampled_from(["", "  ", "# note", "\t# ü", "p mg 3 1", "q 1 2", "e", "e 1 2"])


@st.composite
def _small_texts(draw):
    n = draw(st.integers(0, 6))
    lines = draw(st.lists(_edge_line(n), max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINES))
    m = len(lines) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines.insert(draw(st.integers(0, 1 if lines else 0)), f"p mg {n} {max(m, 0)}")
    if draw(st.booleans()):
        lines.insert(0, "# name")
    end = draw(st.sampled_from(BREAKS))
    text = end.join(lines)
    return text + end if draw(st.integers(0, 3)) else text


@settings(max_examples=400, deadline=None)
@given(_small_texts())
@example("p mg 3 2\re 1 2 3\ne 2 3 4\n")    # an edge line in the header's "\n" line
@example("p mg 3 1\ne 2 1 3\n")             # a reversed pair
@example("p mg 3 2\ne 1 2 3\ne 2 1 4\n")    # a repeated pair
@example("p mg 3 2\ne 1 2 3\ne 2 2 4\n")    # a self-loop
@example("p mg 3 1\ne 1 2 -3\n")            # a negative weight
@example("p mg 900 1\ne 1 2 3\n")           # ids read with int()
@example("p mg 900 2\ne 1 2 3\ne 1 901 3\n")
@example("p mg 900 1\ne 1 x 3\n")
@example("# only a comment\n")
# a header inside a multi-line "\n" chunk
@example("# a\r# b\rp mg 2 1\re 1 2 1\n")
@example("# a\re 1 2 1\rp mg 2 1\n")
@example("p mg 2 1\rp mg 2 1\n")
@example("# x\rq 1\rp mg 2 0\n")
def test_small_texts_parse_as_before(text):
    _assert_same(text)


def _canonical(n, m, rng):
    """m distinct pairs of 1..n as `e U V W` lines, some reversed."""
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        pairs.add((min(u, v), max(u, v)))
    lines = []
    for u, v in sorted(pairs, key=lambda _: rng.random()):
        if rng.random() < 0.05:
            u, v = v, u
        lines.append(f"e {u} {v} {rng.randint(0, 1 << rng.choice([4, 40, 70]))}")
    return lines


def _piece_ends(lines: list[str]) -> list[int]:
    """Indices of the lines that end a piece of the parser's read when
    `lines`, each ending in "\\n", follow the header line."""
    ends, size = [], 0
    for i, line in enumerate(lines):
        size += len(line) + 1
        if size > instances._PIECE:
            ends.append(i)
            size = 0
    return ends


FAULTS = ["token", "digit", "plus", "underscore", "duplicate", "negative",
          "range", "self-loop", "too many", "too few", "before header", "comment",
          "tab", "blank", "crlf", "none"]


def _long_text(seed: int, fault: str) -> str:
    rng = random.Random(seed)
    n = rng.choice([200, 300, 5000])
    lines = _canonical(n, rng.randint(9000, 12000), rng)
    m = len(lines)
    head = f"# seed {seed}\np mg {n} {m}\n"
    ends = _piece_ends(lines)
    at = rng.choice(ends) + rng.choice([-1, 0, 1, 2]) if ends and rng.random() < 0.7 \
        else rng.randrange(len(lines))
    at = min(max(at, 0), len(lines) - 1)
    u, v, w = lines[at].split()[1:]
    if fault == "token":
        lines[at] = f"e {u} {v} 1x"
    elif fault == "digit":
        lines[at] = f"e {u} ٣ {w}"
    elif fault == "plus":
        lines[at] = f"e +{u} {v} {w}"
    elif fault == "underscore":
        lines[at] = f"e {u} {v} 1_000"
    elif fault == "duplicate":
        first = rng.randrange(at) if at else 1
        a, b = lines[first].split()[1:3]
        lines[at] = rng.choice([f"e {a} {b} 5", f"e {b} {a} 5"])
    elif fault == "negative":
        lines[at] = f"e {u} {v} -{w}"
    elif fault == "range":
        lines[at] = f"e {u} {rng.choice([0, n + 1])} {w}"
    elif fault == "self-loop":
        lines[at] = f"e {u} {u} {w}"
    elif fault == "too many":
        head = f"# seed {seed}\np mg {n} {m - 1}\n"
    elif fault == "too few":
        head = f"# seed {seed}\np mg {n} {m + 1}\n"
    elif fault == "before header":
        head = f"e {u} {v} {w}\n" + head
    elif fault == "comment":
        lines.insert(at, "# a comment between edges")
    elif fault == "tab":
        lines[at] = f"  e\t{u} {v}\t{w}"
    elif fault == "blank":
        lines.insert(at, "")
    text = head + "\n".join(lines) + "\n"
    if fault == "crlf":
        text = text.replace("\n", "\r\n")
    return text if rng.random() < 0.8 else text[:-1]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("seed", range(3))
def test_long_texts_parse_as_before(seed, fault):
    text = _long_text(seed * len(FAULTS) + FAULTS.index(fault), fault)
    assert len(text) > 2 * instances._PIECE
    outcome = _assert_same(text)
    if fault in ("comment", "tab", "blank", "crlf", "none"):
        assert not isinstance(outcome, tuple)  # these texts are valid


@pytest.mark.parametrize("bound", [1_000, 4_400, 5_000])
def test_long_texts_meet_the_edge_bound_as_before(monkeypatch, bound):
    monkeypatch.setattr(instances, "MAX_EDGES", bound)
    for seed, fault in enumerate(["none", "duplicate", "range", "token"]):
        text = _long_text(100 + seed, fault)
        _assert_same(text)
