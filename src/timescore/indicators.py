"""Season-level competitiveness metrics and overtake what-ifs.

Everything here is computed from exact integer points, so repeated runs are
bit-identical. A ratio is an int pair ``(numerator, denominator)`` with a
positive denominator, not reduced; rounding happens only where ``cli`` renders
the report files.
"""

from __future__ import annotations

from itertools import accumulate, compress
from typing import Sequence

from .errors import SeasonDataError
from .ingest import REGULATION_LENGTH_S, SECONDS_PER_MINUTE
from .scoring import ScoringSystem
from .standings import Standings, percent_of_leader


Ratio = tuple[int, int]


def gaps(standings: Standings) -> tuple[Ratio, Ratio, Ratio]:
    """Percentage points deficits of the 3rd, 9th and last teams to the leader.

    Each gap is 100*(P_1 - P_k)/P_1, so the leader must have positive points
    (NON_POSITIVE_LEADER otherwise). Leagues of fewer than nine teams fall
    back to the last team for the 9th-place gap.
    """
    n = len(standings.teams)
    if n < 3:
        raise SeasonDataError("TOO_FEW_TEAMS", f"need at least 3 teams, got {n}")
    percents, leader = percent_of_leader(standings)
    third, ninth, last = (100 * leader - percents[k] for k in (2, min(9, n) - 1, n - 1))
    return (third, leader), (ninth, leader), (last, leader)


def rank_changes(orders: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(overall changes, leadership changes, distinct leaders) of each round's team order.

    An overall change is a (team, consecutive-round pair) whose rank moved,
    which is exactly when a different team held its new position in the
    previous round. A leadership change is a round whose leader is not the
    previous round's.
    """
    overall = sum(
        1 for prev, cur in zip(orders, orders[1:]) for a, b in zip(prev, cur) if a != b
    )
    leaders = [order[0] for order in orders]
    changes = sum(1 for prev, cur in zip(leaders, leaders[1:]) if prev != cur)
    return overall, changes, len(set(leaders))


def minutes_to_upper(standings: Standings) -> tuple[list[int], int]:
    """Per team below the top: its deficit to the team above, as minutes of a 90-minute match.

    Only meaningful for time standings (WRONG_SYSTEM otherwise). Under the
    rule, a minute of level time turned into leading time is worth
    (lead - level)/(scale * T_match) points, with T_match the 90-minute
    regulation length, so m = deficit * scale * T_match / (lead - level). This
    is a unit conversion. It is how much earlier one go-ahead goal from level
    must fall only in a 90-minute match (a longer one needs more minutes) and
    only up to a deficit of (lead - level)/scale, which takes all 90 minutes; a
    larger deficit reads past 90. The leader has no metric, so the numerators
    cover ranks 2..n in order; they share one denominator, returned with them.
    """
    rule = standings.rule
    if rule.system is not ScoringSystem.TIME:
        raise SeasonDataError(
            "WRONG_SYSTEM", f"minutes-to-upper applies to time tables, got {rule.system.value!r}"
        )
    # The conversion is linear, so one point's worth scales every deficit.
    per_point = REGULATION_LENGTH_S // SECONDS_PER_MINUTE * rule.scale
    order, points = standings.order, standings.points
    nums = [(points[a] - points[b]) * per_point for a, b in zip(order, order[1:])]
    return nums, standings.den * (rule.lead - rule.level)


def draws_to_wins(standings: Standings, draws: Sequence[int]) -> list[tuple[int, bool]]:
    """Per team below the top: drawn matches to convert into wins to catch the team above.

    Classic standings only (WRONG_SYSTEM otherwise). Each conversion gains two
    points, so the raw answer is ceil(deficit/2). It is capped at the team's
    drawn matches, ``draws`` indexed like ``standings.teams``; each entry is
    (count, whether the cap binds), for ranks 2..n in order.
    """
    if standings.rule.system is not ScoringSystem.CLASSIC:
        raise SeasonDataError(
            "WRONG_SYSTEM",
            f"draws-to-wins applies to classic tables, got {standings.rule.system.value!r}",
        )
    order, points, twice_den = standings.order, standings.points, 2 * standings.den
    metrics = []
    for above, team in zip(order, order[1:]):
        # ceil(deficit/2) in ints: -floor(-x) == ceil(x).
        raw = -((points[team] - points[above]) // twice_den)
        metrics.append((min(raw, draws[team]), raw > draws[team]))
    return metrics


# Decimal places of an ECDF points cell; ecdf_steps sizes its keys for them.
ECDF_DECIMALS = 6


def ecdf_steps(
    tally: tuple[Sequence[int], Sequence[int], Sequence[int]],
) -> tuple[list[int], list[int], int]:
    """The ECDF of a :meth:`SeasonLedger.tally` on exact keys: ``(uppers, at_or_below, bits)``.

    ``tally`` is ``(nums, dens, counts)``: ``counts[k]`` awards of ``nums[k] / dens[k]``,
    each den positive. There is one step per distinct award, in increasing order:
    ``at_or_below[i]`` awards are at or below the i-th, and ``uppers[i] / 2**bits``,
    just above it, renders to ``ECDF_DECIMALS`` places, halves up, as the award itself does.
    """
    # Each award's key is floor(n/m * 2**bits), an int of about 40 bits, where
    # with M the largest den, 2**bits >= M**2 and 2**bits > 2*M*10**6 (for six
    # decimals). Order and ties: two distinct awards differ by at least
    # 1/(m*m') >= 1/M**2 >= 2**-bits, so distinct awards get distinct keys in
    # their order. Rendering: an award a lies in [key/2**bits, (key+1)/2**bits).
    # Half-up rounding takes floor(a*10**6 + 1/2), and that quantity is a
    # multiple of 1/(2m): an integer, or at least 1/(2m) below the next one.
    # Moving a up to (key+1)/2**bits moves it by at most 10**6/2**bits, which is
    # below 1/(2m), so the floor stays the same, exact halves included.
    nums, dens, counts = tally
    max_den = max(dens, default=1)
    bits = max((max_den**2 - 1).bit_length(), (2 * max_den * 10**ECDF_DECIMALS).bit_length())
    keys = [(n << bits) // m for n, m in zip(nums, dens)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[k] for k in order]
    at_or_below = accumulate([counts[k] for k in order])
    # Distinct rows can share an award, so a step ends each run of equal keys.
    last = [key != after for key, after in zip(keys, keys[1:])] + [True]
    return [key + 1 for key in compress(keys, last)], list(compress(at_or_below, last)), bits
