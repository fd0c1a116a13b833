"""The season ledger, round-by-round standings and rank-movement statistics.

Team points are integers over one denominator per scoring system, ranked on
integer keys; they become ``Fraction`` only in the indicators that are ratios.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .display import format_ratios
from .errors import EmptySeasonError, NonPositiveLeaderError, TooManyLengthsError
from .ingest import MatchRecord, SeasonDataset
from .scoring import ScoringRule, final_result, goal_diff_value
from .timeline import effective_length, timeline


# The most bits the lcm of a season's match lengths may have. An lcm past it is
# at least 2**9966 and so has more than 3,000 digits. Up to it, every total and
# average has a denominator below 10**300 (the weight scale) * lcm * appearances,
# so each rendered rational stays under CPython's 4,300-digit int-to-str limit. A
# season of every whole-second length from 90:00 to 120:00 has a 2,231-digit lcm.
MAX_LENGTH_LCM_BITS = 9966


class LeadershipStats(NamedTuple):
    num_changes: int
    distinct_leaders: int


class Standings:
    """Cumulative standings under one rule after some round, indexed like ``teams``.

    ``points[i] / den`` is team i's exact points total and ``appearances``
    counts the team appearances so far. ``order`` lists the team indices by
    rank. A :meth:`SeasonLedger.rounds` stream updates one object in place, so
    read it before asking for the next round.
    """

    __slots__ = ("teams", "rule", "den", "points", "appearances", "_tiebreak", "_order")

    def __init__(self, teams: tuple[str, ...], rule: ScoringRule, den: int) -> None:
        self.teams = teams
        self.rule = rule
        self.den = den
        self.points = [0] * len(teams)
        self.appearances = 0
        self._tiebreak: Sequence[int] = range(len(teams))
        self._order: list[int] | None = None

    def add(self, sides: list[int], awards: list[int], tiebreak: Sequence[int]) -> None:
        """Add one round's awards; ``sides`` names the team index of each.

        ``tiebreak`` lists the team indices by goal difference desc, goals
        scored desc, name asc, after this round.
        """
        points = self.points
        for team, award in zip(sides, awards):
            points[team] += award
        self.appearances += len(sides)
        self._tiebreak = tiebreak
        self._order = None

    @property
    def order(self) -> list[int]:
        """The team indices by rank, sorted the first time it is read after :meth:`add`."""
        if self._order is None:
            # Tie-break: points desc, goal difference desc, goals scored desc,
            # name asc. The sort is stable, also with reverse=True, so sorting
            # the round's tie-break order by points applies all four.
            self._order = sorted(self._tiebreak, key=self.points.__getitem__, reverse=True)
        return self._order

    def average(self) -> Fraction:
        """Mean points per team appearance so far."""
        return Fraction(sum(self.points), self.den * self.appearances)


class SeasonLedger:
    """A season segmented once, from which every scoring system is ranked.

    Each round keeps one row of ints per side of each fixture: its leading,
    level and trailing seconds, its 3/1/0 result, its capped goal-difference
    bonus, the match length T and the length factor ``length_lcm // T``,
    where ``length_lcm`` is the lcm of the distinct match lengths. What no
    rule changes is computed once per season: each round's tie-break order
    and each team's season ``draws``. Under a rule,
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
        goals_for, goal_diff = [0] * n, [0] * n
        self.draws = [0] * n
        self._sides: list[list[int]] = []
        self._rows: list[list[tuple[int, ...]]] = []
        self._tiebreaks: list[list[int]] = []
        for matches in by_round:
            sides, rows = [], []
            for match in matches:
                win, draw, lose, t, hg, ag = timeline(match)
                factor = length_factor[t]
                home, away = index[match.home], index[match.away]
                sides += (home, away)
                rows += (
                    (win, draw, lose, final_result(hg, ag), goal_diff_value(hg, ag), t, factor),
                    (lose, draw, win, final_result(ag, hg), goal_diff_value(ag, hg), t, factor),
                )
                goals_for[home] += hg
                goals_for[away] += ag
                goal_diff[home] += hg - ag
                goal_diff[away] += ag - hg
                if hg == ag:
                    self.draws[home] += 1
                    self.draws[away] += 1
            # Teams are indexed in name order and the sort is stable, so equal
            # keys stay in name order.
            keys = list(zip(goal_diff, goals_for))
            self._tiebreaks.append(sorted(range(n), key=keys.__getitem__, reverse=True))
            self._sides.append(sides)
            self._rows.append(rows)

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
        """Cumulative standings after each round; one :class:`Standings` updated in place.

        The last item is the final standings. A round whose ``order`` is never
        read is never ranked.
        """
        standings = Standings(self.teams, rule, self.den(rule))
        for sides, awards, tiebreak in zip(self._sides, self._round_awards(rule), self._tiebreaks):
            standings.add(sides, awards, tiebreak)
            yield standings


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


def percent_of_leader(standings: Standings) -> tuple[list[int], int]:
    """Each team's points, in rank order, as an exact percentage of the leader's.

    Returns the numerators and their one denominator, the leader's points
    numerator. Shares of the leader mean something only when the leader has
    points, so a leader on zero or fewer points raises NON_POSITIVE_LEADER.
    """
    order, points = standings.order, standings.points
    leader = points[order[0]]
    if leader <= 0:
        raise NonPositiveLeaderError(
            f"{standings.rule.system.value} leader {standings.teams[order[0]]} has "
            f"{format_ratios((leader,), standings.den)[0]} points; "
            "percentages of the leader need a positive leader"
        )
    return [100 * points[i] for i in order], leader
