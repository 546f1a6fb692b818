"""Fraction strings: the interchange form of every rational value."""

from fractions import Fraction

import pytest

from matchcore.rationals import parse_fraction


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
