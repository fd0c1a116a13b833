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
    tables). Rendering a whole column in one call sets up the scale and the
    format once.
    """
    scale = 10**decimals
    twice_scale, twice_den = 2 * scale, 2 * den
    # str.format ignores the fraction digits when decimals is 0.
    template = f"{{}}{',' if comma else '.'}{{:0{decimals}d}}" if decimals else "{}"
    positive, negative = template.format, ("-" + template).format
    cells = []
    for num in nums:
        digits = (num * twice_scale + den) // twice_den
        if digits < 0:
            cells.append(negative(*divmod(-digits, scale)))
        else:
            cells.append(positive(*divmod(digits, scale)))
    return cells


def format_decimal(value: Fraction | int, decimals: int = 2, *, comma: bool = False) -> str:
    """Fixed-point rendering of an exact rational, half-up (see :func:`format_ratios`)."""
    value = Fraction(value)
    return format_ratios((value.numerator,), value.denominator, decimals, comma=comma)[0]
