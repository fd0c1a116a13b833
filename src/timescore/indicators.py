"""Season-level competitiveness metrics and overtake what-ifs.

Everything here is computed from exact integer or rational points, so repeated
runs are bit-identical; rounding happens only where ``cli`` renders the report
files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import TooFewTeamsError, WrongSystemError
from .ingest import REGULATION_LENGTH_S, SECONDS_PER_MINUTE
from .scoring import DEFAULT_WEIGHTS, ScoringRule, ScoringSystem, WeightTriple
from .standings import SeasonLedger, Standings, leadership, percent_of_leader, rank_moves


class IndicatorBundle(NamedTuple):
    """The season-comparison numbers for one scoring system."""

    gap_1_3_pct: Fraction
    gap_1_9_pct: Fraction
    gap_1_last_pct: Fraction
    overall_changes: int
    leadership_changes: int
    distinct_leaders: int
    avg_points_per_team_game: Fraction


def gaps(standings: Standings) -> tuple[Fraction, Fraction, Fraction]:
    """Percentage points deficits of the 3rd, 9th and last teams to the leader.

    Each gap is 100*(P_1 - P_k)/P_1, so the leader must have positive points
    (NON_POSITIVE_LEADER otherwise). Leagues of fewer than nine teams fall
    back to the last team for the 9th-place gap.
    """
    n = len(standings.teams)
    if n < 3:
        raise TooFewTeamsError(f"need at least 3 teams, got {n}")
    percents, leader = percent_of_leader(standings)
    third, ninth, last = (Fraction(percents[k], leader) for k in (2, min(9, n) - 1, n - 1))
    return 100 - third, 100 - ninth, 100 - last


def minutes_for_deficit(deficit: Fraction, weights: WeightTriple = DEFAULT_WEIGHTS) -> Fraction:
    """``deficit`` points as minutes of leading instead of level time in a 90-minute match.

    A minute of level time turned into leading time is worth
    (alpha_w - alpha_d)/T_match points, with T_match the 90-minute regulation
    length, so m = deficit * T_match / (alpha_w - alpha_d). This is a unit
    conversion. It is how much earlier one go-ahead goal from level must fall
    only in a 90-minute match (a longer one needs more minutes) and only up to
    a deficit of alpha_w - alpha_d, which takes all 90 minutes; a larger
    deficit reads past 90.
    """
    t_match_min = Fraction(REGULATION_LENGTH_S, SECONDS_PER_MINUTE)
    return deficit * t_match_min / (weights.alpha_w - weights.alpha_d)


def minutes_to_upper(standings: Standings) -> tuple[list[int], int]:
    """Per team below the top: its deficit to the team above, in :func:`minutes_for_deficit`.

    Only meaningful for time standings (WRONG_SYSTEM otherwise). The leader
    has no metric, so the numerators cover ranks 2..n in order; they share
    one denominator, returned with them.
    """
    if standings.rule.system is not ScoringSystem.TIME:
        raise WrongSystemError(
            f"minutes-to-upper applies to time tables, got {standings.rule.system.value!r}"
        )
    # The conversion is linear, so one point's worth scales every deficit.
    per_point = minutes_for_deficit(Fraction(1), standings.rule.weights)
    order, points = standings.order, standings.points
    nums = [(points[a] - points[b]) * per_point.numerator for a, b in zip(order, order[1:])]
    return nums, standings.den * per_point.denominator


def draws_to_wins(standings: Standings, draws: Sequence[int]) -> list[tuple[int, bool]]:
    """Per team below the top: drawn matches to convert into wins to catch the team above.

    Classic standings only (WRONG_SYSTEM otherwise). Each conversion gains two
    points, so the raw answer is ceil(deficit/2). It is capped at the team's
    drawn matches, ``draws`` indexed like ``standings.teams``; each entry is
    (count, whether the cap binds), for ranks 2..n in order.
    """
    if standings.rule.system is not ScoringSystem.CLASSIC:
        raise WrongSystemError(
            f"draws-to-wins applies to classic tables, got {standings.rule.system.value!r}"
        )
    order, points, twice_den = standings.order, standings.points, 2 * standings.den
    metrics = []
    for above, team in zip(order, order[1:]):
        # ceil(deficit/2) in ints: -floor(-x) == ceil(x).
        raw = -((points[team] - points[above]) // twice_den)
        metrics.append((min(raw, draws[team]), raw > draws[team]))
    return metrics


def ecdf_counts(awards: list[int]) -> list[tuple[int, int]]:
    """(value, number of awards <= value) at each distinct value; sorts ``awards`` in place."""
    awards.sort()
    total = len(awards)
    return [
        (value, i)
        for i, value in enumerate(awards, start=1)
        if i == total or awards[i] != value
    ]


def indicator_bundle(ledger: SeasonLedger, rule: ScoringRule) -> IndicatorBundle:
    """All Table-style indicators for one rule, from one pass over the ledger's rounds."""
    orders = []
    for standings in ledger.rounds(rule):
        orders.append(standings.order)
    gap_3, gap_9, gap_last = gaps(standings)
    leads = leadership([ledger.teams[order[0]] for order in orders])
    return IndicatorBundle(
        gap_1_3_pct=gap_3,
        gap_1_9_pct=gap_9,
        gap_1_last_pct=gap_last,
        overall_changes=rank_moves(orders),
        leadership_changes=leads.num_changes,
        distinct_leaders=leads.distinct_leaders,
        avg_points_per_team_game=standings.average(),
    )
