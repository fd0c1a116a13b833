"""The season ledger, league tables, round-by-round evolution and rank-movement statistics.

Team points are integers over one denominator per scoring system, ranked on
integer keys; they become ``Fraction`` only where a table row is built.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .display import format_decimal, format_ratio
from .errors import EmptySeasonError, NonPositiveLeaderError
from .ingest import SeasonDataset
from .scoring import (
    DEFAULT_WEIGHTS,
    ScoringRule,
    ScoringSystem,
    WeightTriple,
    final_result,
    scoring_rule,
)
from .timeline import SegmentBreakdown, segment


@dataclass(frozen=True, slots=True)
class TableRow:
    team: str
    points: Fraction
    played: int
    wins: int
    draws: int
    losses: int
    goals_for: int
    goal_diff: int
    rank: int


@dataclass(frozen=True, slots=True)
class LeagueTable:
    """A ranked table plus the system/weights it was computed under."""

    system: ScoringSystem
    weights: WeightTriple
    rows: tuple[TableRow, ...]


@dataclass(frozen=True, slots=True)
class StandingsEvolution:
    """Cumulative tables after each completed round, in round order."""

    system: ScoringSystem
    weights: WeightTriple
    tables: tuple[LeagueTable, ...]


@dataclass(frozen=True, slots=True)
class LeadershipStats:
    num_changes: int
    distinct_leaders: int
    leader_sequence: tuple[str, ...]


class Fixture(NamedTuple):
    """One match as the ledger keeps it: team indices, final score, segmentation."""

    home: int
    away: int
    home_goals: int
    away_goals: int
    seg: SegmentBreakdown


class Standings:
    """Cumulative per-team totals after some round, indexed like ``teams``.

    ``points[i] / den`` is team i's exact points total. ``order`` lists the
    team indices by rank. A :meth:`SeasonLedger.rounds` stream updates one
    object in place, so read it before asking for the next round.
    """

    __slots__ = ("teams", "rule", "den", "points", "goals_for", "goal_diff", "results", "order")

    def __init__(self, teams: tuple[str, ...], rule: ScoringRule, den: int) -> None:
        n = len(teams)
        self.teams = teams
        self.rule = rule
        self.den = den
        self.points = [0] * n
        self.goals_for = [0] * n
        self.goal_diff = [0] * n
        # results[i][r] counts team i's matches with 3/1/0 result r.
        self.results = [[0, 0, 0, 0] for _ in range(n)]
        self.order = list(range(n))

    def add(self, fixture: Fixture, home_pts: int, away_pts: int) -> None:
        home, away, hg, ag, _ = fixture
        self.points[home] += home_pts
        self.points[away] += away_pts
        self.goals_for[home] += hg
        self.goals_for[away] += ag
        self.goal_diff[home] += hg - ag
        self.goal_diff[away] += ag - hg
        self.results[home][final_result(hg, ag)] += 1
        self.results[away][final_result(ag, hg)] += 1

    def rank(self) -> None:
        # Tie-break: points desc, goal difference desc, goals scored desc, name
        # asc. Teams are indexed in name order and the sort is stable, so one
        # descending sort on the integer keys applies all four, under every system.
        keys = list(zip(self.points, self.goal_diff, self.goals_for))
        self.order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)

    def average(self) -> Fraction:
        """Mean points per team appearance so far."""
        return Fraction(sum(self.points), self.den * sum(map(sum, self.results)))

    def table(self) -> LeagueTable:
        """The ranked table with exact ``Fraction`` points."""
        rows = []
        for rank, i in enumerate(self.order, start=1):
            losses, draws, _, wins = self.results[i]
            rows.append(
                TableRow(
                    team=self.teams[i],
                    points=Fraction(self.points[i], self.den),
                    played=wins + draws + losses,
                    wins=wins,
                    draws=draws,
                    losses=losses,
                    goals_for=self.goals_for[i],
                    goal_diff=self.goal_diff[i],
                    rank=rank,
                )
            )
        return LeagueTable(system=self.rule.system, weights=self.rule.weights, rows=tuple(rows))


class SeasonLedger:
    """A season segmented once, from which every scoring system is ranked.

    Totals under a rule are integers over ``rule.scale * length_lcm``, where
    ``length_lcm`` is the lcm of the distinct match lengths. Each match award
    is scaled up to it only when it is added, so the stored components stay small.
    """

    def __init__(self, dataset: SeasonDataset) -> None:
        if not dataset.matches:
            raise EmptySeasonError("season has no matches")
        self.teams = dataset.teams
        index = {team: i for i, team in enumerate(self.teams)}
        self.by_round: list[list[Fixture]] = [[] for _ in range(dataset.num_rounds)]
        for match in dataset.matches:
            self.by_round[match.round - 1].append(
                Fixture(index[match.home], index[match.away], *match.final_score, segment(match))
            )
        lengths = {f.seg.t_match for fixtures in self.by_round for f in fixtures}
        self.length_lcm = math.lcm(*lengths)
        self._length_factor = {t: self.length_lcm // t for t in lengths}

    def den(self, rule: ScoringRule) -> int:
        """The common denominator of every award and total under ``rule``."""
        return rule.scale * self.length_lcm

    def _scaled_awards(
        self, rule: ScoringRule, fixtures: Iterable[Fixture]
    ) -> Iterator[tuple[Fixture, int, int]]:
        factor = self._length_factor
        for fixture in fixtures:
            home, away = rule.numerators(fixture.seg, fixture.home_goals, fixture.away_goals)
            scale = factor[fixture.seg.t_match]
            yield fixture, home * scale, away * scale

    def awards(self, rule: ScoringRule) -> list[int]:
        """Every team's award in every match (home, away per fixture) over :meth:`den`."""
        values = []
        for _, home, away in self._scaled_awards(rule, chain.from_iterable(self.by_round)):
            values += (home, away)
        return values

    def rounds(self, rule: ScoringRule) -> Iterator[Standings]:
        """Cumulative standings after each round; one :class:`Standings` updated in place."""
        standings = Standings(self.teams, rule, self.den(rule))
        for fixtures in self.by_round:
            for award in self._scaled_awards(rule, fixtures):
                standings.add(*award)
            standings.rank()
            yield standings

    def final(self, rule: ScoringRule) -> Standings:
        """The standings after the last round."""
        for standings in self.rounds(rule):
            pass
        return standings


def final_table(
    dataset: SeasonDataset,
    system: ScoringSystem,
    weights: WeightTriple = DEFAULT_WEIGHTS,
) -> LeagueTable:
    """Full-season table: per-match awards summed per team, ranked by the tie-break."""
    return SeasonLedger(dataset).final(scoring_rule(system, weights)).table()


def evolution(
    dataset: SeasonDataset,
    system: ScoringSystem,
    weights: WeightTriple = DEFAULT_WEIGHTS,
) -> StandingsEvolution:
    """One cumulative table per round (round r includes all matches with round <= r)."""
    rounds = SeasonLedger(dataset).rounds(scoring_rule(system, weights))
    tables = tuple(standings.table() for standings in rounds)
    return StandingsEvolution(system=system, weights=weights, tables=tables)


def leadership(leaders: Sequence[str]) -> LeadershipStats:
    """How often the top of the table changed hands, given each round's leader."""
    leaders = tuple(leaders)
    changes = sum(1 for prev, cur in zip(leaders, leaders[1:]) if prev != cur)
    return LeadershipStats(
        num_changes=changes,
        distinct_leaders=len(set(leaders)),
        leader_sequence=leaders,
    )


def rank_moves(orders: Sequence[Sequence]) -> int:
    """Count of (team, consecutive-round pair) entries whose rank moved.

    Each order lists the same teams by rank. A team's rank moved exactly when
    a different team held its new position in the previous round.
    """
    return sum(
        1 for prev, cur in zip(orders, orders[1:]) for a, b in zip(prev, cur) if a != b
    )


def leadership_stats(evo: StandingsEvolution) -> LeadershipStats:
    """How often the top of the table changed hands across rounds."""
    return leadership([table.rows[0].team for table in evo.tables])


def overall_changes(evo: StandingsEvolution) -> int:
    """Count of (team, consecutive-round pair) entries whose rank moved."""
    return rank_moves([[row.team for row in table.rows] for table in evo.tables])


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
        teams, points, den = standings.teams, standings.points, standings.den
        writer.writerows(
            [round_no, teams[i], rank, format_ratio(points[i], den, decimals, comma=comma)]
            for rank, i in enumerate(standings.order, start=1)
        )
    return out.getvalue()
