"""Presentation only: exact ratios as decimal or ``p/q`` text, and columns as CSV text."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


# A column whose denominator has more bits than this rounds from its top 64
# bits. On 7,080 cells the exact division took 1.2-1.35 ms at 128-384 bits,
# 2.3 ms at 1,024 and 5.2 ms at 2,809, against 2.1-2.3 ms for the top-bit loop.
WIDE_BITS = 1024


def format_ratios(
    nums: Iterable[int], den: int, decimals: int = 2, *, comma: bool = False
) -> list[str]:
    """Fixed-point rendering of each ``num / den`` (``den > 0``), rounding halves up.

    A ratio need not be reduced: floor(num/den * 10**decimals + 1/2) is the
    same for every representation of one rational. ``comma=True`` swaps the
    decimal point for a comma (the convention used in several European league
    tables). A whole column is rounded in one pass and rendered in another.

    A ``den`` of up to ``WIDE_BITS`` bits is divided exactly. A wider one is
    shifted to its top 64 bits, with each ``num``; a cell that lands within
    the margin proved below of a rounding half is divided exactly instead.
    """
    scale = 10**decimals
    twice_scale, twice_den = 2 * scale, 2 * den
    if den.bit_length() <= WIDE_BITS:
        digits = [(num * twice_scale + den) // twice_den for num in nums]
    else:
        # With top = den >> shift >= 2**63 and n = num >> shift (floored, also
        # when num < 0), y = scale*n/top is within (scale + |y|)/top of
        # scale*num/den, and |y| < 2*(scale*big//den + 1) + scale/top for the
        # column's largest |num|, big. So 2*top*|error| < 2*(scale + |y|) <
        # margin: a remainder r with margin <= r < 2*top - margin gives the
        # exact digit, and any other cell, such as an exact half or a neighbour
        # of one, takes the exact division.
        nums, shift = list(nums), den.bit_length() - 64
        top = den >> shift
        twice_top = 2 * top
        margin = 4 * (scale + scale * max(map(abs, nums), default=0) // den + 2)
        digits = [
            q if margin <= r < twice_top - margin else (num * twice_scale + den) // twice_den
            for num in nums
            for q, r in (divmod((num >> shift) * twice_scale + top, twice_top),)
        ]
    if not decimals:
        return list(map(str, digits))
    template = f"%d{',' if comma else '.'}%0{decimals}d"
    return [
        template % divmod(d, scale) if d >= 0 else "-" + template % divmod(-d, scale)
        for d in digits
    ]


def ratio_text(num: int, den: int) -> str:
    """``num / den`` (``den != 0``) in lowest terms, ``p/q`` or ``p``, as ``str(Fraction)``."""
    gcd = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // gcd, den // gcd
    return str(num) if den == 1 else f"{num}/{den}"


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def csv_text(columns: Sequence[Sequence[str]]) -> str:
    """A CSV file's text from its columns, each headed by its header cell.

    Lines end in a bare newline. A cell holding a comma, a double quote, a
    carriage return or a line feed is quoted, its double quotes doubled, so
    every CSV reader reads the rows back whole; when no cell holds one, the
    cells are joined as they are. Each row needs two or more cells: a row of
    one empty cell would read back as a blank line.
    """
    if _needs_quotes("".join(map("".join, columns))):
        columns = [
            ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in column]
            for column in columns
        ]
    return "\n".join(map(",".join, zip(*columns))) + "\n"
