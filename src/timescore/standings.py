"""The season ledger, round-by-round standings and each team's percentage of the leader.

Team points are integers over one denominator per scoring system, ranked on
integer keys. A ratio such as the average is an int pair (numerator,
denominator), never a ``Fraction``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .display import ratio_text
from .errors import EmptySeasonError, NonPositiveLeaderError, TooManyLengthsError
from .ingest import MatchRecord, SeasonDataset
from .scoring import ScoringRule


# The most bits the lcm of a season's match lengths may have. An lcm past it is
# at least 2**9966 and so has more than 3,000 digits. Up to it, every total and
# average has a denominator below 10**300 (the weight scale) * lcm * appearances,
# so each rendered rational stays under CPython's 4,300-digit int-to-str limit. A
# season of every whole-second length from 90:00 to 120:00 has a 2,231-digit lcm.
MAX_LENGTH_LCM_BITS = 9966


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

    def add(
        self, sides: list[int], nums: list[int], factors: list[int], tiebreak: Sequence[int]
    ) -> None:
        """Add one round's awards ``nums[k] * factors[k] / den`` to team ``sides[k]``.

        ``tiebreak`` lists the team indices by goal difference desc, goals
        scored desc, name asc, after this round.
        """
        points = self.points
        for team, num, factor in zip(sides, nums, factors):
            points[team] += num * factor
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

    def average(self) -> tuple[int, int]:
        """Mean points per team appearance so far, as (numerator, denominator), not reduced."""
        return sum(self.points), self.den * self.appearances


class SeasonLedger:
    """A season segmented once, from which every scoring system is ranked.

    Each round keeps one row of ints per side of each fixture: its leading,
    level and trailing seconds, its 3/1/0 result, its capped goal-difference
    bonus and the match length T; and, per side, T and the length factor
    ``length_lcm // T``, where ``length_lcm`` is the lcm of the distinct match
    lengths. What no rule changes is computed once per season: each round's
    tie-break order and each team's season ``draws``.

    Under a rule that reads time (:attr:`ScoringRule.reads_time`), an award
    is a small integer over ``rule.scale * T`` (:meth:`awards`), and totals
    are integers over ``rule.scale * length_lcm``: each award is multiplied by
    its length factor once, as it is added. A rule that reads no time, such
    as ``classic``, sees every match length, length factor and ``length_lcm``
    as 1, so its awards and totals are integers over ``rule.scale``.
    """

    def __init__(self, dataset: SeasonDataset) -> None:
        if not dataset.matches:
            raise EmptySeasonError("season has no matches")
        self.teams = dataset.teams
        index = {team: i for i, team in enumerate(self.teams)}
        by_round: list[list[MatchRecord]] = [[] for _ in range(dataset.num_rounds)]
        for match in dataset.matches:
            by_round[match.round - 1].append(match)

        n = len(self.teams)
        goals_for, goal_diff = [0] * n, [0] * n
        draws = self.draws = [0] * n
        self._sides: list[list[int]] = []
        self._rows: list[list[tuple[int, ...]]] = []
        self._lengths: list[list[int]] = []
        self._tiebreaks: list[list[int]] = []
        for matches in by_round:
            sides, rows, round_lengths = [], [], []
            for match in matches:
                win, draw, lose, t, hg, ag = match.timeline
                home, away = index[match.home], index[match.away]
                sides += (home, away)
                # The 3/1/0 result and the goal-difference bonus, capped at 3,
                # of each side from the one difference.
                diff = hg - ag
                if diff > 0:
                    rows += ((win, draw, lose, 3, min(diff, 3), t), (lose, draw, win, 0, 0, t))
                elif diff:
                    rows += ((win, draw, lose, 0, 0, t), (lose, draw, win, 3, min(-diff, 3), t))
                else:
                    rows += ((win, draw, lose, 1, 0, t), (lose, draw, win, 1, 0, t))
                    draws[home] += 1
                    draws[away] += 1
                round_lengths += (t, t)
                goals_for[home] += hg
                goals_for[away] += ag
                goal_diff[home] += diff
                goal_diff[away] -= diff
            # One int per team orders by goal difference, then goals scored,
            # which stay below m. Teams are indexed in name order and the sort
            # is stable, so equal keys stay in name order.
            m = max(goals_for) + 1
            keys = [gd * m + gf for gd, gf in zip(goal_diff, goals_for)]
            self._tiebreaks.append(sorted(range(n), key=keys.__getitem__, reverse=True))
            self._sides.append(sides)
            self._rows.append(rows)
            self._lengths.append(round_lengths)

        lengths = set().union(*self._lengths)
        self.length_lcm = math.lcm(*lengths)
        self.max_length = max(lengths)
        if self.length_lcm.bit_length() > MAX_LENGTH_LCM_BITS:
            raise TooManyLengthsError(
                f"the {len(lengths)} distinct match lengths have an lcm of more than "
                "3000 digits, too large for exact points"
            )
        factor = {t: self.length_lcm // t for t in lengths}.__getitem__
        self._factors = [list(map(factor, round_lengths)) for round_lengths in self._lengths]
        # Each round's lengths and length factors as a rule that reads no time sees them.
        self._units = [[1] * len(sides) for sides in self._sides]

    def den(self, rule: ScoringRule) -> int:
        """The common denominator of every total under ``rule``.

        It is ``rule.scale * length_lcm`` for a rule that reads time and
        ``rule.scale`` for one that reads none.
        """
        return rule.scale * self.length_lcm if rule.reads_time else rule.scale

    def awards(self, rule: ScoringRule) -> Iterator[tuple[list[int], list[int]]]:
        """Each round's awards as ``(nums, lengths)``, one entry per side, home then away.

        A side's award is ``nums[k] / (rule.scale * lengths[k])``, the numerator
        of :class:`ScoringRule` over its own match length; this is the one place
        the package computes an award. A rule that reads no time gets every
        length as 1, so its award is ``result*r + goal_diff*g`` over ``rule.scale``.
        """
        result, goal_diff = rule.result, rule.goal_diff
        if not rule.reads_time:
            # A second expression: one shared expression needs the rows
            # without T, zipped with the lengths, and made every rule slower.
            for rows, units in zip(self._rows, self._units):
                yield [result * r + goal_diff * g for _, _, _, r, g, _ in rows], units
            return
        lead, level, trail = rule.lead, rule.level, rule.trail
        for rows, lengths in zip(self._rows, self._lengths):
            yield [
                lead * w + level * d + trail * l + (result * r + goal_diff * g) * t
                for w, d, l, r, g, t in rows
            ], lengths

    def rounds(self, rule: ScoringRule) -> Iterator[Standings]:
        """Cumulative standings after each round; one :class:`Standings` updated in place.

        Each award is added times its length factor, so the totals are ints
        over :meth:`den`; a rule that reads no time adds it with factor 1. The
        last item is the final standings. A round whose ``order`` is never
        read is never ranked.
        """
        standings = Standings(self.teams, rule, self.den(rule))
        round_factors = self._factors if rule.reads_time else self._units
        for (nums, _), sides, factors, tiebreak in zip(
            self.awards(rule), self._sides, round_factors, self._tiebreaks
        ):
            standings.add(sides, nums, factors, tiebreak)
            yield standings


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
            f"{ratio_text(leader, standings.den)} points; "
            "percentages of the leader need a positive leader"
        )
    return [100 * points[i] for i in order], leader
