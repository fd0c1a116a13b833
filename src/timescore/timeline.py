"""Split a match clock into leading / level / trailing durations for the home side.

The match is partitioned into left-closed, right-open intervals between goals;
each interval is classified by the score sign at its start, so the durations
always sum exactly to the effective match length.
"""

from __future__ import annotations

from .ingest import REGULATION_LENGTH_S, MatchRecord


def timeline(match: MatchRecord) -> tuple[int, int, int, int, int, int]:
    """One walk over the goals: (leading, level, trailing, T, home goals, away goals).

    Each goal is a signed time, ``+time_s`` for a home goal and ``-time_s``
    for an away goal. Leading, level and trailing are the home side's seconds.
    T is the effective match length: the declared length if given, else 90'
    extended to the last goal. The goals are the final score.
    """
    goals = match.goals
    win = draw = lose = 0
    diff = 0  # home goals minus away goals so far
    prev = 0
    for goal in goals:
        time_s = goal if goal > 0 else -goal
        span = time_s - prev
        if diff > 0:
            win += span
        elif diff == 0:
            draw += span
        else:
            lose += span
        diff += 1 if goal > 0 else -1
        prev = time_s
    t_match = match.declared_length_s
    if t_match is None:
        t_match = prev if prev > REGULATION_LENGTH_S else REGULATION_LENGTH_S
    tail = t_match - prev
    if diff > 0:
        win += tail
    elif diff == 0:
        draw += tail
    else:
        lose += tail
    home = (len(goals) + diff) >> 1
    return win, draw, lose, t_match, home, home - diff
