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
from fractions import Fraction
from typing import NamedTuple

from .ingest import MAX_NUMBER_DIGITS, FrozenRecord

# One weight: an optional sign, then an integer, a decimal or a fraction a/b in
# ASCII digits. Fraction() alone also takes exponents, ``_`` and non-ASCII digits.
_WEIGHT_RE = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


class ScoringSystem(enum.Enum):
    CLASSIC = "classic"
    TIME = "time"
    MIXED_HALF = "mixed"
    GOALDIFF_THIRD = "goaldiff"


class WeightTriple(FrozenRecord):
    """Weights applied to leading, level and trailing time (strictly ordered)."""

    __slots__ = ("alpha_w", "alpha_d", "alpha_l")
    alpha_w: Fraction
    alpha_d: Fraction
    alpha_l: Fraction

    def __init__(self, alpha_w: Fraction, alpha_d: Fraction, alpha_l: Fraction) -> None:
        alpha_w, alpha_d, alpha_l = Fraction(alpha_w), Fraction(alpha_d), Fraction(alpha_l)
        if not alpha_w > alpha_d > alpha_l:
            raise ValueError(
                f"weights must satisfy alpha_w > alpha_d > alpha_l, got "
                f"({alpha_w}, {alpha_d}, {alpha_l})"
            )
        _set = object.__setattr__
        _set(self, "alpha_w", alpha_w)
        _set(self, "alpha_d", alpha_d)
        _set(self, "alpha_l", alpha_l)

    @classmethod
    def from_string(cls, text: str) -> "WeightTriple":
        """Parse "W,D,L" where each part is an integer, decimal or fraction a/b."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated weights, got {text!r}")
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
        try:
            return cls(*map(Fraction, parts))
        except ZeroDivisionError:
            raise ValueError(f"weights must not divide by zero, got {text!r}") from None


DEFAULT_WEIGHTS = WeightTriple(Fraction(3), Fraction(1), Fraction(0))


def final_result(goals_for: int, goals_against: int) -> int:
    """Match outcome on the 3/1/0 scale for the side scoring ``goals_for``."""
    if goals_for > goals_against:
        return 3
    if goals_for == goals_against:
        return 1
    return 0


def goal_diff_value(goals_for: int, goals_against: int) -> int:
    """Goal-difference bonus: 0 for a non-positive difference, else capped at 3."""
    return max(0, min(goals_for - goals_against, 3))


class ScoringRule(NamedTuple):
    """One scoring system as integer coefficients. A side's award for one match is

        (lead*T_lead + level*T_level + trail*T_trail + (result*r + goal_diff*g)*T_match)
        / (scale * T_match)

    where r is its 3/1/0 result and g its capped goal-difference bonus.
    """

    system: ScoringSystem
    weights: WeightTriple
    lead: int
    level: int
    trail: int
    result: int
    goal_diff: int
    scale: int


def scoring_rule(system: ScoringSystem, weights: WeightTriple = DEFAULT_WEIGHTS) -> ScoringRule:
    """The coefficients of ``system``; only ``time`` reads the weights.

    classic = r; time = the weighted time share, scaled by the lcm of the
    weight denominators; mixed = ((3,1,0) time share + r) / 2;
    goaldiff = ((3,1,0) time share + r + g) / 3.
    """
    if system is ScoringSystem.CLASSIC:
        return ScoringRule(system, weights, 0, 0, 0, 1, 0, 1)
    if system is ScoringSystem.TIME:
        alphas = (weights.alpha_w, weights.alpha_d, weights.alpha_l)
        scale = math.lcm(*(a.denominator for a in alphas))
        lead, level, trail = (a.numerator * (scale // a.denominator) for a in alphas)
        return ScoringRule(system, weights, lead, level, trail, 0, 0, scale)
    if system is ScoringSystem.MIXED_HALF:
        return ScoringRule(system, weights, 3, 1, 0, 1, 0, 2)
    if system is ScoringSystem.GOALDIFF_THIRD:
        return ScoringRule(system, weights, 3, 1, 0, 1, 1, 3)
    raise ValueError(f"unknown scoring system: {system!r}")
