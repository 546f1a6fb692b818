"""Fraction strings: the interchange form of every rational value."""

from fractions import Fraction

import pytest

from matchcore.rationals import FractionArray, parse_fraction, parse_fractions


@pytest.mark.parametrize("text, value", [
    ("0", Fraction(0)),
    ("-3", Fraction(-3)),
    (" 5/2 ", Fraction(5, 2)),
    ("4/6", Fraction(2, 3)),
])
def test_parse_fraction(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text", [
    "\u0661/2",  # Arabic-Indic digit one
    "1/1\u0662",  # Arabic-Indic digit two in a denominator
    "\uff13",  # fullwidth digit three
    "1\uff13",
    "0.5",
    "1e3",
    "1/0",
    "+1",
    "1_000",
])
def test_parse_fraction_rejects(text):
    with pytest.raises(ValueError):
        parse_fraction(text)


def test_format_round_trip():
    for x in (Fraction(0), Fraction(7), Fraction(-5, 2), Fraction(2, 3)):
        assert parse_fraction(str(x)) == x


def test_parse_fractions_reads_each_string_as_parse_fraction():
    texts = ["0", "-3", " 5/2 ", "4/6", "7"]
    values = parse_fractions(texts)
    assert isinstance(values, FractionArray)
    assert (values.nums, values.dens) == ([0, -3, 5, 4, 7], [1, 1, 2, 6, 1])  # not reduced
    assert len(values) == 5
    assert list(values) == [parse_fraction(t) for t in texts]


@pytest.mark.parametrize("texts, bad", [
    (["1", "0.5", "1e3"], "0.5"),
    (["1/0"], "1/0"),
    (["2/3", " +1 "], " +1 "),
])
def test_parse_fractions_names_the_first_bad_string(texts, bad):
    with pytest.raises(ValueError) as err:
        parse_fractions(texts)
    with pytest.raises(ValueError) as one:
        parse_fraction(bad)
    assert str(err.value) == str(one.value) == f"not a fraction string: {bad!r}"
