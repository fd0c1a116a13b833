"""Deterministic synthetic seasons for demos, goldens, and fuzz corpora.

Everything is driven by a caller-supplied seed, so the bundled data files and
the golden CLI outputs can be regenerated bit-identically.
"""

from __future__ import annotations

import random
from typing import Sequence

from .ingest import (
    SECONDS_PER_MINUTE,
    GoalEvent,
    MatchRecord,
    SeasonDataset,
    Side,
    TimePrecision,
)

# Distribution of total goals per match, loosely modeled on European leagues.
_GOAL_COUNT_WEIGHTS = {0: 22, 1: 28, 2: 25, 3: 15, 4: 7, 5: 3}


def double_round_robin(teams: Sequence[str]) -> list[list[tuple[str, str]]]:
    """Schedule rounds so each ordered pairing appears exactly once.

    Uses the circle method: the first half gives every unordered pair once,
    the second half repeats it with venues swapped. Odd team counts get a bye.
    """
    names = list(teams)
    if len(names) < 2:
        raise ValueError("need at least two teams")
    if len(names) % 2 == 1:
        names.append("")  # bye marker
    n = len(names)
    first_half: list[list[tuple[str, str]]] = []
    rotation = names[1:]
    for round_no in range(n - 1):
        circle = [names[0]] + rotation
        pairs = []
        for i in range(n // 2):
            a, b = circle[i], circle[n - 1 - i]
            if not a or not b:
                continue
            # Alternate venues by round so home games spread evenly.
            pairs.append((a, b) if (round_no + i) % 2 == 0 else (b, a))
        first_half.append(pairs)
        rotation = rotation[-1:] + rotation[:-1]
    second_half = [[(away, home) for home, away in rnd] for rnd in first_half]
    return first_half + second_half


def synthetic_match(
    rng: random.Random, round_no: int, home: str, away: str
) -> MatchRecord:
    """One match with whole-minute goal times (occasionally in stoppage time)."""
    count = rng.choices(
        list(_GOAL_COUNT_WEIGHTS), weights=list(_GOAL_COUNT_WEIGHTS.values())
    )[0]
    minutes = sorted(rng.sample(range(1, 91), count))
    if minutes and rng.random() < 0.12:
        minutes[-1] = rng.randint(91, 98)  # late winner/equalizer past 90'
    goals = tuple(
        GoalEvent(
            side=rng.choice((Side.HOME, Side.AWAY)),
            time_s=minute * SECONDS_PER_MINUTE,
            precision=TimePrecision.MINUTE_TRUNCATED,
        )
        for minute in minutes
    )
    declared = None
    if rng.random() < 0.08:
        last_minute = minutes[-1] if minutes else 0
        declared = (max(90, last_minute) + rng.randint(1, 4)) * SECONDS_PER_MINUTE
    return MatchRecord(
        round=round_no, home=home, away=away, goals=goals, declared_length_s=declared
    )


def synthetic_season(seed: int, teams: Sequence[str]) -> SeasonDataset:
    """A complete double round-robin season with seeded random scorelines."""
    rng = random.Random(seed)
    matches = []
    for round_no, pairs in enumerate(double_round_robin(teams), start=1):
        for home, away in pairs:
            matches.append(synthetic_match(rng, round_no, home, away))
    return SeasonDataset(matches=tuple(matches))
