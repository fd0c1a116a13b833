"""The season ledger, league tables, round-by-round evolution and rank-movement statistics.

Team points are integers over one denominator per scoring system, ranked on
integer keys; they become ``Fraction`` only where a table row is built.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .display import format_decimal, format_ratios
from .errors import EmptySeasonError, NonPositiveLeaderError, TooManyLengthsError
from .ingest import MatchRecord, SeasonDataset
from .scoring import ScoringRule, ScoringSystem, WeightTriple, final_result, goal_diff_value
from .timeline import effective_length, timeline


class TableRow(NamedTuple):
    team: str
    points: Fraction
    played: int
    wins: int
    draws: int
    losses: int
    goals_for: int
    goal_diff: int
    rank: int


class LeagueTable(NamedTuple):
    """A ranked table plus the system/weights it was computed under."""

    system: ScoringSystem
    weights: WeightTriple
    rows: tuple[TableRow, ...]


# The most bits the lcm of a season's match lengths may have. An lcm past it is
# at least 2**9966 and so has more than 3,000 digits. Up to it, every total and
# average has a denominator below 10**300 (the weight scale) * lcm * appearances,
# so each rendered rational stays under CPython's 4,300-digit int-to-str limit. A
# season of every whole-second length from 90:00 to 120:00 has a 2,231-digit lcm.
MAX_LENGTH_LCM_BITS = 9966


class LeadershipStats(NamedTuple):
    num_changes: int
    distinct_leaders: int


# Where a 3/1/0 result is counted in a team's (wins, draws, losses).
_WDL_SLOT = {3: 0, 1: 1, 0: 2}


class RoundTotals(NamedTuple):
    """Every team's rule-independent totals after one round, indexed like the ledger's teams.

    ``wdl[3*i:3*i + 3]`` is team i's (wins, draws, losses). ``tiebreak`` lists
    the team indices by goal difference desc, goals scored desc, name asc.
    """

    goals_for: list[int]
    goal_diff: list[int]
    wdl: list[int]
    tiebreak: list[int]


class Standings:
    """Cumulative standings under one rule after some round, indexed like ``teams``.

    ``points[i] / den`` is team i's exact points total and ``totals`` holds
    the round's goals and results. ``order`` lists the team indices by rank.
    A :meth:`SeasonLedger.rounds` stream updates one object in place, so read
    it before asking for the next round.
    """

    __slots__ = ("teams", "rule", "den", "points", "totals", "order")

    def __init__(self, teams: tuple[str, ...], rule: ScoringRule, den: int) -> None:
        self.teams = teams
        self.rule = rule
        self.den = den
        self.points = [0] * len(teams)

    def add(self, sides: list[int], awards: list[int]) -> None:
        """Add one round's awards; ``sides`` names the team index of each."""
        points = self.points
        for team, award in zip(sides, awards):
            points[team] += award

    def rank(self, totals: RoundTotals) -> None:
        # Tie-break: points desc, goal difference desc, goals scored desc, name
        # asc. The sort is stable, also with reverse=True, so sorting the
        # round's tie-break order by points applies all four.
        self.totals = totals
        self.order = sorted(totals.tiebreak, key=self.points.__getitem__, reverse=True)

    def average(self) -> Fraction:
        """Mean points per team appearance so far."""
        return Fraction(sum(self.points), self.den * sum(self.totals.wdl))

    def table(self) -> LeagueTable:
        """The ranked table with exact ``Fraction`` points."""
        goals_for, goal_diff, wdl, _ = self.totals
        rows = []
        for rank, i in enumerate(self.order, start=1):
            wins, draws, losses = wdl[3 * i : 3 * i + 3]
            rows.append(
                TableRow(
                    team=self.teams[i],
                    points=Fraction(self.points[i], self.den),
                    played=wins + draws + losses,
                    wins=wins,
                    draws=draws,
                    losses=losses,
                    goals_for=goals_for[i],
                    goal_diff=goal_diff[i],
                    rank=rank,
                )
            )
        return LeagueTable(system=self.rule.system, weights=self.rule.weights, rows=tuple(rows))


class SeasonLedger:
    """A season segmented once, from which every scoring system is ranked.

    Each round keeps one row of ints per side of each fixture: its leading,
    level and trailing seconds, its 3/1/0 result, its capped goal-difference
    bonus, the match length T and the length factor ``length_lcm // T``,
    where ``length_lcm`` is the lcm of the distinct match lengths. Totals that
    no rule changes (goals, goal difference, wins, draws, losses and the
    tie-break order they imply) are computed once per season. Under a rule,
    awards and totals are integers over ``rule.scale * length_lcm``: each
    award is multiplied by its length factor once, so every other stored
    value stays small.
    """

    def __init__(self, dataset: SeasonDataset) -> None:
        if not dataset.matches:
            raise EmptySeasonError("season has no matches")
        self.teams = dataset.teams
        index = {team: i for i, team in enumerate(self.teams)}
        lengths = {effective_length(match) for match in dataset.matches}
        self.length_lcm = math.lcm(*lengths)
        if self.length_lcm.bit_length() > MAX_LENGTH_LCM_BITS:
            raise TooManyLengthsError(
                f"the {len(lengths)} distinct match lengths have an lcm of more than "
                "3000 digits, too large for exact points"
            )
        length_factor = {t: self.length_lcm // t for t in lengths}
        by_round: list[list[MatchRecord]] = [[] for _ in range(dataset.num_rounds)]
        for match in dataset.matches:
            by_round[match.round - 1].append(match)

        n = len(self.teams)
        goals_for, goal_diff, wdl = [0] * n, [0] * n, [0] * (3 * n)
        self._sides: list[list[int]] = []
        self._rows: list[list[tuple[int, ...]]] = []
        self._totals: list[RoundTotals] = []
        for matches in by_round:
            sides, rows = [], []
            for match in matches:
                win, draw, lose, t, hg, ag = timeline(match)
                factor = length_factor[t]
                home, away = index[match.home], index[match.away]
                home_result, away_result = final_result(hg, ag), final_result(ag, hg)
                sides += (home, away)
                rows += (
                    (win, draw, lose, home_result, goal_diff_value(hg, ag), t, factor),
                    (lose, draw, win, away_result, goal_diff_value(ag, hg), t, factor),
                )
                goals_for[home] += hg
                goals_for[away] += ag
                goal_diff[home] += hg - ag
                goal_diff[away] += ag - hg
                wdl[3 * home + _WDL_SLOT[home_result]] += 1
                wdl[3 * away + _WDL_SLOT[away_result]] += 1
            # Teams are indexed in name order and the sort is stable, so equal
            # keys stay in name order.
            keys = list(zip(goal_diff, goals_for))
            tiebreak = sorted(range(n), key=keys.__getitem__, reverse=True)
            self._sides.append(sides)
            self._rows.append(rows)
            self._totals.append(RoundTotals(goals_for[:], goal_diff[:], wdl[:], tiebreak))

    def den(self, rule: ScoringRule) -> int:
        """The common denominator of every award and total under ``rule``."""
        return rule.scale * self.length_lcm

    def _round_awards(self, rule: ScoringRule) -> Iterator[list[int]]:
        """Each round's awards over :meth:`den`, one per side, in ``_sides`` order."""
        lead, level, trail = rule.lead, rule.level, rule.trail
        result, goal_diff = rule.result, rule.goal_diff
        # ScoringRule's award numerator, inlined because it runs once per side
        # per system; tests/reference.py scores each system from its definition.
        for rows in self._rows:
            yield [
                (lead * w + level * d + trail * l + (result * r + goal_diff * g) * t) * factor
                for w, d, l, r, g, t, factor in rows
            ]

    def awards(self, rule: ScoringRule) -> list[int]:
        """Every team's award in every match (home, away per fixture) over :meth:`den`."""
        return [award for awards in self._round_awards(rule) for award in awards]

    def rounds(self, rule: ScoringRule) -> Iterator[Standings]:
        """Cumulative standings after each round; one :class:`Standings` updated in place."""
        standings = Standings(self.teams, rule, self.den(rule))
        for sides, awards, totals in zip(self._sides, self._round_awards(rule), self._totals):
            standings.add(sides, awards)
            standings.rank(totals)
            yield standings

    def final(self, rule: ScoringRule) -> Standings:
        """The standings after the last round, ranked once."""
        standings = Standings(self.teams, rule, self.den(rule))
        for sides, awards in zip(self._sides, self._round_awards(rule)):
            standings.add(sides, awards)
        standings.rank(self._totals[-1])
        return standings


def leadership(leaders: Sequence[str]) -> LeadershipStats:
    """How often the top of the table changed hands, given each round's leader."""
    changes = sum(1 for prev, cur in zip(leaders, leaders[1:]) if prev != cur)
    return LeadershipStats(num_changes=changes, distinct_leaders=len(set(leaders)))


def rank_moves(orders: Sequence[Sequence]) -> int:
    """Count of (team, consecutive-round pair) entries whose rank moved.

    Each order lists the same teams by rank. A team's rank moved exactly when
    a different team held its new position in the previous round.
    """
    return sum(
        1 for prev, cur in zip(orders, orders[1:]) for a, b in zip(prev, cur) if a != b
    )


def percent_of_leader(table: LeagueTable) -> tuple[Fraction, ...]:
    """Each row's points as an exact percentage of the leader's points.

    Shares of the leader mean something only when the leader has points, so a
    leader on zero or fewer points raises NON_POSITIVE_LEADER.
    """
    leader = table.rows[0]
    if leader.points <= 0:
        raise NonPositiveLeaderError(
            f"{table.system.value} leader {leader.team} has "
            f"{format_decimal(leader.points)} points; "
            "percentages of the leader need a positive leader"
        )
    return tuple(100 * row.points / leader.points for row in table.rows)


def evolution_to_csv(
    rounds: Iterable[Standings], *, decimals: int = 2, comma: bool = False
) -> str:
    """Long-form (round, team, rank, points) CSV suitable for plotting tools."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["round", "team", "rank", "points"])
    for round_no, standings in enumerate(rounds, start=1):
        teams, points, order = standings.teams, standings.points, standings.order
        cells = format_ratios([points[i] for i in order], standings.den, decimals, comma=comma)
        writer.writerows(
            [round_no, teams[i], rank, cell]
            for rank, (i, cell) in enumerate(zip(order, cells), start=1)
        )
    return out.getvalue()
