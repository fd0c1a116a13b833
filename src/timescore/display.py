"""Exact-to-decimal rendering. Core values stay rational; this is presentation only."""

from __future__ import annotations

from fractions import Fraction


def format_ratio(num: int, den: int, decimals: int = 2, *, comma: bool = False) -> str:
    """Fixed-point rendering of ``num / den`` (``den > 0``), rounding halves up.

    The ratio need not be reduced: floor(num/den * 10**decimals + 1/2) is the
    same for every representation of one rational. ``comma=True`` swaps the
    decimal point for a comma (the convention used in several European league
    tables).
    """
    scale = 10**decimals
    digits = (2 * num * scale + den) // (2 * den)
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    if decimals == 0:
        text = f"{sign}{digits}"
    else:
        whole, frac = divmod(digits, scale)
        text = f"{sign}{whole}.{frac:0{decimals}d}"
    return text.replace(".", ",") if comma else text


def format_decimal(value: Fraction | int, decimals: int = 2, *, comma: bool = False) -> str:
    """Fixed-point rendering of an exact rational, half-up (see :func:`format_ratio`)."""
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator, decimals, comma=comma)
