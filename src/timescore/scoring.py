"""The four scoring systems as one integer rule, and the time-system weights.

Each system is a :class:`ScoringRule`: integer coefficients on a side's
leading, level and trailing seconds, its 3/1/0 result and its goal-difference
bonus. The season ledger applies the rule to every match, so an award is an
exact ratio of integers; any decimal in an output file is presentation-only
rounding.
"""

from __future__ import annotations

import enum
import math
import re
from typing import NamedTuple

from .display import ratio_text
from .ingest import MAX_NUMBER_DIGITS, FrozenRecord

# One weight: an optional sign, then an integer, a decimal or a fraction a/b in
# ASCII digits. int() alone also takes ``_`` and non-ASCII digits.
_WEIGHT_RE = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


class ScoringSystem(enum.Enum):
    CLASSIC = "classic"
    TIME = "time"
    MIXED_HALF = "mixed"
    GOALDIFF_THIRD = "goaldiff"


class WeightTriple(FrozenRecord):
    """Weights on leading, level and trailing time: ``alpha_w / scale`` and so on.

    The numerators must strictly decrease. They are stored in lowest terms over
    one positive ``scale``, the lcm of the weights' reduced denominators, so
    ``0.5``, ``1/2`` and ``2/4`` give equal triples.
    """

    __slots__ = ()
    alpha_w: int
    alpha_d: int
    alpha_l: int
    scale: int

    def __new__(cls, alpha_w: int, alpha_d: int, alpha_l: int, scale: int = 1) -> WeightTriple:
        if scale < 1:
            raise ValueError(f"the weight scale must be positive, got {scale}")
        if not alpha_w > alpha_d > alpha_l:
            weights = ", ".join(ratio_text(a, scale) for a in (alpha_w, alpha_d, alpha_l))
            raise ValueError(f"weights must satisfy alpha_w > alpha_d > alpha_l, got ({weights})")
        gcd = math.gcd(alpha_w, alpha_d, alpha_l, scale)
        return tuple.__new__(cls, (alpha_w // gcd, alpha_d // gcd, alpha_l // gcd, scale // gcd))

    @classmethod
    def from_string(cls, text: str) -> "WeightTriple":
        """Parse "W,D,L" where each part is an integer, decimal or fraction a/b."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated weights, got {text!r}")
        ratios = []
        for part in parts:
            if not _WEIGHT_RE.fullmatch(part):
                raise ValueError(
                    f"bad weight {part!r}: expected an integer, a decimal or a fraction a/b"
                )
            digits = sum(map(str.isdigit, part))
            if digits > MAX_NUMBER_DIGITS:
                raise ValueError(
                    f"bad weight: {digits} digits, at most {MAX_NUMBER_DIGITS} digits allowed"
                )
            num, slash, den = part.partition("/")
            if not slash:  # a decimal: its digits over a power of ten
                num, _, decimals = part.partition(".")
                num, den = num + decimals, 10 ** len(decimals)
            ratios.append((int(num), int(den)))
        if not all(den for _, den in ratios):
            raise ValueError(f"weights must not divide by zero, got {text!r}")
        scale = math.lcm(*(den for _, den in ratios))
        return cls(*(num * (scale // den) for num, den in ratios), scale)


DEFAULT_WEIGHTS = WeightTriple(3, 1, 0)


class ScoringRule(NamedTuple):
    """One scoring system as integer coefficients. A side's award for one match is

        (lead*T_lead + level*T_level + trail*T_trail + (result*r + goal_diff*g)*T_match)
        / (scale * T_match)

    where r is its 3/1/0 result and g its capped goal-difference bonus. The
    weights on time are ``lead / scale``, ``level / scale`` and ``trail / scale``,
    and the rule keeps no other copy of them.
    """

    system: ScoringSystem
    lead: int
    level: int
    trail: int
    result: int
    goal_diff: int
    scale: int

    @property
    def reads_time(self) -> bool:
        """Whether any weight on time is nonzero; if not, no award depends on T."""
        return bool(self.lead or self.level or self.trail)


# (lead, level, trail, result, goal_diff, scale) of each system that ignores the weights.
_COEFFICIENTS = {
    ScoringSystem.CLASSIC: (0, 0, 0, 1, 0, 1),
    ScoringSystem.MIXED_HALF: (3, 1, 0, 1, 0, 2),
    ScoringSystem.GOALDIFF_THIRD: (3, 1, 0, 1, 1, 3),
}


def scoring_rule(system: ScoringSystem, weights: WeightTriple = DEFAULT_WEIGHTS) -> ScoringRule:
    """The coefficients of ``system``; only ``time`` reads the weights.

    classic = r; time = the weighted time share, over the weights' ``scale``;
    mixed = ((3,1,0) time share + r) / 2;
    goaldiff = ((3,1,0) time share + r + g) / 3.
    """
    if system is ScoringSystem.TIME:
        lead, level, trail, scale = weights
        return ScoringRule(system, lead, level, trail, 0, 0, scale)
    return ScoringRule(system, *_COEFFICIENTS[system])
