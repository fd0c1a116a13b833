"""Exact-to-decimal rendering. Core values stay rational; this is presentation only."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def format_ratios(
    nums: Iterable[int], den: int, decimals: int = 2, *, comma: bool = False
) -> list[str]:
    """Fixed-point rendering of each ``num / den`` (``den > 0``), rounding halves up.

    A ratio need not be reduced: floor(num/den * 10**decimals + 1/2) is the
    same for every representation of one rational. ``comma=True`` swaps the
    decimal point for a comma (the convention used in several European league
    tables). A whole column is rounded in one pass and rendered in another.
    """
    scale = 10**decimals
    twice_scale, twice_den = 2 * scale, 2 * den
    digits = [(num * twice_scale + den) // twice_den for num in nums]
    if not decimals:
        return list(map(str, digits))
    template = f"%d{',' if comma else '.'}%0{decimals}d"
    return [
        template % divmod(d, scale) if d >= 0 else "-" + template % divmod(-d, scale)
        for d in digits
    ]


def format_decimal(value: Fraction | int, decimals: int = 2, *, comma: bool = False) -> str:
    """Fixed-point rendering of an exact rational, half-up (see :func:`format_ratios`)."""
    value = Fraction(value)
    return format_ratios((value.numerator,), value.denominator, decimals, comma=comma)[0]
