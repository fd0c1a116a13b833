"""Presentation only: exact ratios as decimal or ``p/q`` text, and columns as CSV text."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


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
