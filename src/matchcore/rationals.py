"""Exact rational values and their external string form.

All monetary quantities in this package (edge weights, covers,
imputations, ratios) are exact rationals; nothing is ever represented
in floating point. Internally we use `int`s and `fractions.Fraction`,
which stores values in lowest terms with a positive denominator.
Externally values cross the CLI/JSON boundary as reduced-fraction
strings: output is `str` of the exact value, which for an `int` or a
`Fraction` is `"a/b"`, or plain `"a"` when the value is an integer.
`parse_fraction` reads that form back, and `parse_fractions` reads a
list of them to a `FractionArray` of int numerators and denominators.
"""

import re
from fractions import Fraction

_FRACTION_RE = re.compile(r"^(-?[0-9]+)(?:/([1-9][0-9]*))?$")


def parse_fraction(text: str) -> Fraction:
    """Parse `"a"` or `"a/b"` into an exact rational.

    Rejects decimal notation, exponents, zero denominators and digits
    other than ASCII 0-9: the interchange format is integer fractions
    only.
    """
    return parse_fractions([text])[0]


class FractionArray:
    """Exact rationals held as two lists of ints, `nums` and positive
    `dens`, not necessarily reduced; item i is `nums[i] / dens[i]`.

    `parse_fractions` builds one without a `Fraction` per value, and
    `verify.check_core` reads its lists as they are.
    """

    __slots__ = ("nums", "dens")

    def __init__(self, nums: list[int], dens: list[int]):
        self.nums = nums
        self.dens = dens

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.dens[i])


def parse_fractions(texts: list[str]) -> FractionArray:
    """Read every string of `texts` as `parse_fraction` reads one, to
    ints and with no `Fraction` built.

    Raises `ValueError` at the first string that is not `"a"` or
    `"a/b"`, naming it.
    """
    found = list(map(_FRACTION_RE.match, map(str.strip, texts)))
    if None in found:
        raise ValueError(f"not a fraction string: {texts[found.index(None)]!r}")
    parts = [match.groups("1") for match in found]  # "a" has denominator 1
    return FractionArray([int(num) for num, _ in parts], [int(den) for _, den in parts])
