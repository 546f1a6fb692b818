"""Exact rational values and their external string form.

All monetary quantities in this package (edge weights, covers,
imputations, ratios) are exact rationals; nothing is ever represented
in floating point. Internally we use `int`s and `fractions.Fraction`,
which stores values in lowest terms with a positive denominator.
Externally values cross the CLI/JSON boundary as reduced-fraction
strings: output is `str` of the exact value, which for an `int` or a
`Fraction` is `"a/b"`, or plain `"a"` when the value is an integer.
`parse_fraction` reads that form back.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FRACTION_RE = re.compile(r"^(-?[0-9]+)(?:/([1-9][0-9]*))?$")


def parse_fraction(text: str) -> Fraction:
    """Parse `"a"` or `"a/b"` into an exact rational.

    Rejects decimal notation, exponents, zero denominators and digits
    other than ASCII 0-9: the interchange format is integer fractions
    only.
    """
    m = _FRACTION_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a fraction string: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)

