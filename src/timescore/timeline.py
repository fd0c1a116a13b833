"""Split a match clock into leading / level / trailing durations for the home side.

The match is partitioned into left-closed, right-open intervals between goals;
each interval is classified by the score sign at its start, so the durations
always sum exactly to the effective match length.
"""

from __future__ import annotations

from .ingest import REGULATION_LENGTH_S, FrozenRecord, MatchRecord, Side


class SegmentBreakdown(FrozenRecord):
    """Durations (seconds) the home side spent leading, level and trailing.

    Away-side durations are the mirror image: the away side leads exactly
    while the home side trails, and level time is shared.
    """

    __slots__ = ("t_win_home", "t_draw", "t_lose_home", "t_match")
    t_win_home: int
    t_draw: int
    t_lose_home: int
    t_match: int

    def __init__(self, t_win_home: int, t_draw: int, t_lose_home: int, t_match: int) -> None:
        if min(t_win_home, t_draw, t_lose_home) < 0:
            raise ValueError("segment durations must be non-negative")
        if t_win_home + t_draw + t_lose_home != t_match:
            raise ValueError(
                f"durations {t_win_home}+{t_draw}+{t_lose_home} "
                f"do not sum to the match length {t_match}"
            )
        _set = object.__setattr__
        _set(self, "t_win_home", t_win_home)
        _set(self, "t_draw", t_draw)
        _set(self, "t_lose_home", t_lose_home)
        _set(self, "t_match", t_match)


def effective_length(match: MatchRecord) -> int:
    """Match length in seconds: declared if given, else 90' extended to the last goal."""
    if match.declared_length_s is not None:
        return match.declared_length_s
    last_goal = match.goals[-1].time_s if match.goals else 0
    return max(REGULATION_LENGTH_S, last_goal)


def segment(match: MatchRecord) -> SegmentBreakdown:
    """Accumulate leading/level/trailing durations by walking the goals in order."""
    t_match = effective_length(match)
    win = draw = lose = 0
    home = away = 0
    prev = 0
    for goal in match.goals:
        span = goal.time_s - prev
        if home > away:
            win += span
        elif home == away:
            draw += span
        else:
            lose += span
        if goal.side is Side.HOME:
            home += 1
        else:
            away += 1
        prev = goal.time_s
    tail = t_match - prev
    if home > away:
        win += tail
    elif home == away:
        draw += tail
    else:
        lose += tail
    return SegmentBreakdown(win, draw, lose, t_match)
