"""The season ledger, round-by-round standings and each team's percentage of the leader.

Team points are integers over one denominator per scoring system, ranked on
integer keys. A ratio such as the average is an int pair (numerator,
denominator), never a ``Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Sequence

from .display import ratio_text
from .errors import SeasonDataError
from .ingest import MatchRecord, SeasonDataset
from .scoring import ScoringRule


# The most bits the lcm of a season's match lengths may have. An lcm past it is
# at least 2**9966 and so has more than 3,000 digits. Up to it, every total and
# average has a denominator below 10**300 (the weight scale) * lcm * appearances,
# so each rendered rational stays under CPython's 4,300-digit int-to-str limit. A
# season of every whole-second length from 90:00 to 120:00 has a 2,231-digit lcm.
MAX_LENGTH_LCM_BITS = 9966


class Standings(NamedTuple):
    """Cumulative standings under one rule after one round, a plain value indexed like ``teams``.

    ``points[i] / den`` is team i's exact points total and ``appearances``
    counts the team appearances so far. ``order`` lists the team indices by
    rank: points desc, goal difference desc, goals scored desc, name asc.
    Each round of a :meth:`SeasonLedger.rounds` stream is its own value,
    ranked as it is built, so rounds may be kept and read in any order.
    """

    teams: tuple[str, ...]
    rule: ScoringRule
    den: int
    points: list[int]
    appearances: int
    order: Sequence[int]

    def average(self) -> tuple[int, int]:
        """Mean points per team appearance so far, as (numerator, denominator), not reduced."""
        return sum(self.points), self.den * self.appearances


class SeasonLedger:
    """A season segmented once, from which every scoring system is ranked.

    Each round keeps one row of ints per side of each fixture: its leading,
    level and trailing seconds, its 3/1/0 result, its capped goal-difference
    bonus and the match length T; and, per side, the length factor
    ``length_lcm // T``, where ``length_lcm`` is the lcm of the distinct match
    lengths. What no rule changes is kept once per season: each team's season
    ``draws``, and each round's goal-difference and goals-for totals, from
    which the first :meth:`rounds` call sorts every round's tie-break order.

    Under a rule that reads time (:attr:`ScoringRule.reads_time`), an award
    is a small integer over ``rule.scale * T`` (:meth:`tally`), and totals
    are integers over ``rule.scale * length_lcm``: each award is multiplied by
    its length factor once, as it is added. A rule that reads no time, such
    as ``classic``, sees every match length, length factor and ``length_lcm``
    as 1, so its awards and totals are integers over ``rule.scale``.
    """

    def __init__(self, dataset: SeasonDataset) -> None:
        if not dataset.matches:
            raise SeasonDataError("EMPTY_SEASON", "season has no matches")
        self.teams = dataset.teams
        index = {team: i for i, team in enumerate(self.teams)}
        self.num_rounds = dataset.num_rounds
        by_round: list[list[MatchRecord]] = [[] for _ in range(self.num_rounds)]
        for match in dataset.matches:
            by_round[match[0] - 1].append(match)  # match.round, read as the tuple item

        n = len(self.teams)
        goals_for, goal_diff = [0] * n, [0] * n
        draws = self.draws = [0] * n
        self._sides: list[list[int]] = []
        self._rows: list[list[tuple[int, ...]]] = []
        self._totals: list[tuple[list[int], list[int]]] = []
        for matches in by_round:
            sides, rows = [], []
            # Each record unpacks as the tuple it is, with no property reads.
            for _, home_name, away_name, _, _, _, (win, draw, lose, t, hg, ag) in matches:
                home, away = index[home_name], index[away_name]
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
                goals_for[home] += hg
                goals_for[away] += ag
                goal_diff[home] += diff
                goal_diff[away] -= diff
            self._totals.append((goal_diff.copy(), goals_for.copy()))
            self._sides.append(sides)
            self._rows.append(rows)

        lengths = {row[5] for row in chain.from_iterable(self._rows)}
        self.length_lcm = math.lcm(*lengths)
        if self.length_lcm.bit_length() > MAX_LENGTH_LCM_BITS:
            raise SeasonDataError(
                "TOO_MANY_LENGTHS", f"the {len(lengths)} distinct match lengths have an lcm "
                "of more than 3000 digits, too large for exact points"
            )
        factor = {t: self.length_lcm // t for t in lengths}.__getitem__
        self._factors = [[factor(row[5]) for row in rows] for rows in self._rows]

    def den(self, rule: ScoringRule) -> int:
        """The common denominator of every total under ``rule``.

        It is ``rule.scale * length_lcm`` for a rule that reads time and
        ``rule.scale`` for one that reads none.
        """
        return rule.scale * self.length_lcm if rule.reads_time else rule.scale

    def tally(self, rule: ScoringRule) -> tuple[list[int], list[int], list[int]]:
        """The season's awards as ``(nums, dens, counts)``, one entry per distinct side row.

        ``counts[k]`` sides have award ``nums[k] / dens[k]``. Each den is
        ``rule.scale * T`` under a rule that reads time, else ``rule.scale``.
        The rows are counted once per ledger, on the first call.
        """
        rows, counts = self._row_counts
        scale = rule.scale
        dens = [scale * row[5] for row in rows] if rule.reads_time else [scale] * len(rows)
        return _award_nums(rule, rows), dens, counts

    def rounds(self, rule: ScoringRule) -> Iterator[Standings]:
        """Cumulative standings after each round, a new :class:`Standings` per round.

        Each holds a copy of the running totals, with that round's appearances
        and its ``order``, ranked once as the round is built, so a kept round
        keeps its values. Each award is added times its length factor, so the
        totals are ints over :meth:`den`. The last item equals :meth:`final`.
        The first call sorts every round's tie-break, once per ledger.
        """
        den, points, appearances = self.den(rule), [0] * len(self.teams), 0
        # A rule that reads no time adds each award as it is, over its scale.
        round_factors = self._factors if rule.reads_time else repeat(repeat(1))
        for rows, sides, factors, tiebreak in zip(
            self._rows, self._sides, round_factors, self._tiebreaks
        ):
            for team, num, factor in zip(sides, _award_nums(rule, rows), factors):
                points[team] += num * factor
            appearances += len(sides)
            # A stable sort, also reversed: equal points keep the tie-break order.
            order = sorted(tiebreak, key=points.__getitem__, reverse=True)
            yield Standings(self.teams, rule, den, points.copy(), appearances, order)

    def final(self, rule: ScoringRule) -> Standings:
        """The final standings, equal to the last item of :meth:`rounds`, walking no round.

        Each team's season row ``(Σ w·f, Σ d·f, Σ l·f, Σ r, Σ g, length_lcm)``, f
        each side row's length factor, is summed once per ledger. An award is linear
        in its row and ``T·f == length_lcm``, so a season row's award is the team's
        total over :meth:`den`. Only the last round's tie-break order is sorted.
        """
        rows, appearances, tiebreak = self._season
        points = _award_nums(rule, rows)
        order = sorted(tiebreak, key=points.__getitem__, reverse=True)  # as in rounds()
        return Standings(self.teams, rule, self.den(rule), points, appearances, order)

    @cached_property
    def _row_counts(self) -> tuple[list[tuple[int, ...]], list[int]]:
        counted = Counter(chain.from_iterable(self._rows))
        return list(counted), list(counted.values())

    @cached_property
    def _tiebreaks(self) -> list[list[int]]:
        return [_tiebreak(*totals) for totals in self._totals]

    @cached_property
    def _season(self) -> tuple[list[tuple[int, ...]], int, list[int]]:
        lead, level, trail, result, bonus = sums = [[0] * len(self.teams) for _ in range(5)]
        for rows, sides, factors in zip(self._rows, self._sides, self._factors):
            for team, (w, d, l, r, g, _), f in zip(sides, rows, factors):
                lead[team] += w * f
                level[team] += d * f
                trail[team] += l * f
                result[team] += r
                bonus[team] += g
        rows = [(*row, self.length_lcm) for row in zip(*sums)]
        return rows, sum(map(len, self._sides)), _tiebreak(*self._totals[-1])


def _tiebreak(goal_diff: list[int], goals_for: list[int]) -> list[int]:
    """Team indices by goal difference desc, goals scored desc, name asc."""
    # One int key per team, with goals scored below m. Teams are indexed in
    # name order and the sort is stable, so equal keys stay in name order.
    m = max(goals_for) + 1
    keys = [gd * m + gf for gd, gf in zip(goal_diff, goals_for)]
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)


def _award_nums(rule: ScoringRule, rows: Sequence[tuple[int, ...]]) -> list[int]:
    """Each ``(w, d, l, r, g, T)`` row's award numerator: the one place an award is computed."""
    result, goal_diff = rule.result, rule.goal_diff
    if not rule.reads_time:  # one expression for both kinds of rule made every rule slower
        return [result * r + goal_diff * g for _, _, _, r, g, _ in rows]
    lead, level, trail = rule.lead, rule.level, rule.trail
    return [lead * w + level * d + trail * l + (result * r + goal_diff * g) * t
            for w, d, l, r, g, t in rows]


def percent_of_leader(standings: Standings) -> tuple[list[int], int]:
    """Each team's points, in rank order, as an exact percentage of the leader's.

    Returns the numerators and their one denominator, the leader's points
    numerator. Shares of the leader mean something only when the leader has
    points, so a leader on zero or fewer points raises NON_POSITIVE_LEADER.
    """
    order, points = standings.order, standings.points
    leader = points[order[0]]
    if leader <= 0:
        raise SeasonDataError(
            "NON_POSITIVE_LEADER", f"{standings.rule.system.value} leader "
            f"{standings.teams[order[0]]} has {ratio_text(leader, standings.den)} points; "
            "percentages of the leader need a positive leader"
        )
    return [100 * points[i] for i in order], leader
