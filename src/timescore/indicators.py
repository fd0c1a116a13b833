"""Season-level competitiveness metrics and overtake what-ifs.

Everything here is computed from exact integer or rational points, so repeated
runs are bit-identical; rounding happens only in the CSV/JSON renderers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .display import format_decimal, format_ratios
from .errors import TooFewTeamsError, WrongSystemError
from .ingest import REGULATION_LENGTH_S, SECONDS_PER_MINUTE
from .scoring import DEFAULT_WEIGHTS, ScoringRule, ScoringSystem, WeightTriple
from .standings import LeagueTable, SeasonLedger, leadership, percent_of_leader, rank_moves


class IndicatorBundle(NamedTuple):
    """The season-comparison numbers for one scoring system."""

    gap_1_3_pct: Fraction
    gap_1_9_pct: Fraction
    gap_1_last_pct: Fraction
    overall_changes: int
    leadership_changes: int
    distinct_leaders: int
    avg_points_per_team_game: Fraction


class OvertakeMetric(NamedTuple):
    """What one team would need to overtake the team ranked directly above it.

    ``minutes_to_upper`` is filled for time-share tables (how many minutes
    earlier a single victory goal would need to fall); ``draws_to_wins`` for
    classic tables (how many drawn matches converted to wins close the gap).
    ``precision_limited`` flags sub-minute answers that minute-resolution data
    cannot support; ``capped`` flags a draws→wins count limited by the team's
    actual draw count.
    """

    team: str
    deficit_pts: Fraction
    minutes_to_upper: Fraction | None = None
    draws_to_wins: int | None = None
    precision_limited: bool = False
    capped: bool = False


def gaps(table: LeagueTable) -> tuple[Fraction, Fraction, Fraction]:
    """Percentage points deficits of the 3rd, 9th and last rows to the leader.

    Each gap is 100*(P_1 - P_k)/P_1, so the leader must have positive points
    (NON_POSITIVE_LEADER otherwise). Tables shorter than nine rows fall back
    to the last row for the 9th-place gap.
    """
    rows = table.rows
    if len(rows) < 3:
        raise TooFewTeamsError(f"need at least 3 teams, got {len(rows)}")
    percents = percent_of_leader(table)
    return 100 - percents[2], 100 - percents[min(9, len(rows)) - 1], 100 - percents[-1]


def minutes_for_deficit(deficit: Fraction, weights: WeightTriple = DEFAULT_WEIGHTS) -> Fraction:
    """Minutes earlier a single victory goal must fall to recover ``deficit`` points.

    Anticipating a winning goal by m minutes converts m minutes of the
    scorer's level time into leading time, worth (alpha_w - alpha_d)*m/T_match
    points, so m = deficit * T_match / (alpha_w - alpha_d), with T_match the
    90-minute regulation length.
    """
    t_match_min = Fraction(REGULATION_LENGTH_S, SECONDS_PER_MINUTE)
    return deficit * t_match_min / (weights.alpha_w - weights.alpha_d)


def minutes_to_upper(table: LeagueTable) -> list[OvertakeMetric]:
    """Per team below the top: minutes to erase the deficit to the row above.

    Only meaningful for time-share tables (WRONG_SYSTEM otherwise). The leader
    has no metric, so the list covers ranks 2..n in order. Deficits under one
    minute are flagged precision-limited: minute-resolution goal data cannot
    distinguish them.
    """
    if table.system is not ScoringSystem.TIME:
        raise WrongSystemError(
            f"minutes-to-upper applies to time tables, got {table.system.value!r}"
        )
    metrics = []
    for above, row in zip(table.rows, table.rows[1:]):
        deficit = above.points - row.points
        minutes = minutes_for_deficit(deficit, table.weights)
        metrics.append(
            OvertakeMetric(
                team=row.team,
                deficit_pts=deficit,
                minutes_to_upper=minutes,
                precision_limited=0 < minutes < 1,
            )
        )
    return metrics


def draws_to_wins(table: LeagueTable) -> list[OvertakeMetric]:
    """Per team below the top: drawn matches to convert into wins to catch the row above.

    Classic tables only (WRONG_SYSTEM otherwise). Each conversion gains two
    points, so the raw answer is ceil(deficit/2); it is capped at the team's
    actual draw count, with ``capped`` set when the cap binds.
    """
    if table.system is not ScoringSystem.CLASSIC:
        raise WrongSystemError(
            f"draws-to-wins applies to classic tables, got {table.system.value!r}"
        )
    metrics = []
    for above, row in zip(table.rows, table.rows[1:]):
        deficit = above.points - row.points
        raw = math.ceil(deficit / 2)
        metrics.append(
            OvertakeMetric(
                team=row.team,
                deficit_pts=deficit,
                draws_to_wins=min(raw, row.draws),
                capped=raw > row.draws,
            )
        )
    return metrics


# Rows of an ECDF file rendered per format_ratios call; cell lists for a whole
# file would raise a command's peak memory.
_ECDF_BLOCK_ROWS = 1024


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
    gap_3, gap_9, gap_last = gaps(standings.table())
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


_INDICATOR_ROWS = (
    ("Gap 1st-3rd place (%)", "gap_1_3_pct", 1),
    ("Gap 1st-9th place (%)", "gap_1_9_pct", 1),
    ("Gap 1st-last (%)", "gap_1_last_pct", 1),
    ("# Overall Changes", "overall_changes", None),
    ("# Changes on Leadership", "leadership_changes", None),
    ("# Different Leaders", "distinct_leaders", None),
    ("Aver. points per game", "avg_points_per_team_game", 2),
)


def indicators_to_csv(
    bundles: Sequence[tuple[ScoringSystem, IndicatorBundle]],
    *,
    comma: bool = False,
) -> str:
    """Fixed-order indicator rows, one value column per system."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["indicator"] + [system.value for system, _ in bundles])
    for label, attr, decimals in _INDICATOR_ROWS:
        row = [label]
        for _, bundle in bundles:
            value = getattr(bundle, attr)
            if decimals is None:
                row.append(str(value))
            else:
                row.append(format_decimal(value, decimals, comma=comma))
        writer.writerow(row)
    return out.getvalue()


def indicators_to_json(
    bundles: Sequence[tuple[ScoringSystem, IndicatorBundle]],
) -> str:
    """Indicator bundles keyed by system, with exact rationals as strings."""
    doc = {
        system.value: {
            attr: getattr(bundle, attr) if decimals is None else str(getattr(bundle, attr))
            for _, attr, decimals in _INDICATOR_ROWS
        }
        for system, bundle in bundles
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def ecdf_to_csv(steps: Sequence[tuple[int, int]], den: int, *, comma: bool = False) -> str:
    """Plot-ready CSV of :func:`ecdf_counts` steps over ``den``; six decimals keep steps apart."""
    total = steps[-1][1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["points", "cumulative_fraction"])
    for start in range(0, len(steps), _ECDF_BLOCK_ROWS):
        block = steps[start : start + _ECDF_BLOCK_ROWS]
        writer.writerows(
            zip(
                format_ratios([value for value, _ in block], den, 6, comma=comma),
                format_ratios([count for _, count in block], total, 6, comma=comma),
            )
        )
    return out.getvalue()
