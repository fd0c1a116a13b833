"""Split a match clock into leading / level / trailing durations for the home side.

The match is partitioned into left-closed, right-open intervals between goals;
each interval is classified by the score sign at its start, so the durations
always sum exactly to the effective match length.
"""

from __future__ import annotations

from .ingest import REGULATION_LENGTH_S, MatchRecord, Side

# Bound once: an enum member lookup costs several times a global's, once per goal.
_HOME = Side.HOME


def effective_length(match: MatchRecord) -> int:
    """Match length in seconds: declared if given, else 90' extended to the last goal."""
    if match.declared_length_s is not None:
        return match.declared_length_s
    last_goal = match.goals[-1].time_s if match.goals else 0
    return max(REGULATION_LENGTH_S, last_goal)


def timeline(match: MatchRecord) -> tuple[int, int, int, int, int, int]:
    """One walk over the goals: (leading, level, trailing, T, home goals, away goals).

    Leading, level and trailing are the home side's seconds and T is the
    :func:`effective_length`; the goals are the final score.
    """
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
        if goal.side is _HOME:
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
    return win, draw, lose, t_match, home, away
