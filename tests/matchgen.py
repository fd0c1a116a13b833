"""Seeded and hypothesis-based generators for matches, weights and seasons."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from gen_synthetic_season import double_round_robin
from timescore.ingest import GoalEvent, MatchRecord, SeasonDataset, Side
from timescore.scoring import WeightTriple

# Fuzz goal times run to 100 minutes so stoppage-time handling is exercised.
MAX_FUZZ_TIME_S = 6000


def random_match(
    rng: random.Random,
    round_no: int = 1,
    home: str = "Home",
    away: str = "Away",
    max_goals: int = 10,
) -> MatchRecord:
    count = rng.randint(0, max_goals)
    times = sorted(rng.sample(range(1, MAX_FUZZ_TIME_S + 1), count))
    goals = tuple(GoalEvent(rng.choice((Side.HOME, Side.AWAY)), t) for t in times)
    declared = None
    if rng.random() < 0.2:
        floor = max(5400, times[-1] if times else 0)
        declared = floor + 60 * rng.randint(0, 10)
    return MatchRecord(
        round=round_no, home=home, away=away, goals=goals, declared_length_s=declared
    )


def random_match_corpus(n: int, seed: int) -> list[MatchRecord]:
    rng = random.Random(seed)
    return [random_match(rng) for _ in range(n)]


def random_weight_triple(rng: random.Random) -> WeightTriple:
    while True:
        vals = sorted(
            (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3)),
            reverse=True,
        )
        if vals[0] > vals[1] > vals[2]:
            return WeightTriple(*vals)


def random_season(rng: random.Random, num_teams: int = 6) -> SeasonDataset:
    teams = [f"Team{i:02d}" for i in range(1, num_teams + 1)]
    matches = []
    for round_no, pairs in enumerate(double_round_robin(teams), start=1):
        for home, away in pairs:
            matches.append(random_match(rng, round_no, home, away, max_goals=6))
    return SeasonDataset(matches=tuple(matches))


@st.composite
def match_records(draw, max_goals: int = 8) -> MatchRecord:
    times = draw(
        st.lists(st.integers(1, MAX_FUZZ_TIME_S), max_size=max_goals, unique=True).map(
            sorted
        )
    )
    sides = draw(
        st.lists(
            st.sampled_from((Side.HOME, Side.AWAY)),
            min_size=len(times),
            max_size=len(times),
        )
    )
    goals = tuple(GoalEvent(side, t) for side, t in zip(sides, times))
    extra = draw(st.one_of(st.none(), st.integers(0, 30)))
    declared = None
    if extra is not None:
        declared = max(5400, times[-1] if times else 0) + 60 * extra
    return MatchRecord(
        round=1, home="Home", away="Away", goals=goals, declared_length_s=declared
    )


@st.composite
def weight_triples(draw) -> WeightTriple:
    vals = draw(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=6),
            min_size=3,
            max_size=3,
            unique=True,
        ).map(lambda v: sorted(v, reverse=True))
    )
    return WeightTriple(*vals)
