"""Seeded and hypothesis-based generators for matches, weights and seasons."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from gen_synthetic_season import double_round_robin, season_texts
from reference import SLACK_S
from timescore.ingest import MatchRecord, SeasonDataset
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
    goals = tuple(rng.choice((1, -1)) * t for t in times)
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


def fraction_triple(values: list[Fraction]) -> WeightTriple:
    """The WeightTriple of three strictly decreasing Fractions."""
    scale = math.lcm(*(value.denominator for value in values))
    return WeightTriple(*(int(value * scale) for value in values), scale)


def random_weight_triple(rng: random.Random) -> WeightTriple:
    while True:
        vals = sorted(
            (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3)),
            reverse=True,
        )
        if vals[0] > vals[1] > vals[2]:
            return fraction_triple(vals)


def random_season(rng: random.Random, num_teams: int = 6) -> SeasonDataset:
    teams = [f"Team{i:02d}" for i in range(1, num_teams + 1)]
    matches = []
    for round_no, pairs in enumerate(double_round_robin(teams), start=1):
        for home, away in pairs:
            matches.append(random_match(rng, round_no, home, away, max_goals=6))
    return SeasonDataset(matches=tuple(matches))


def _minutes_up(time_s: int) -> int:
    return -(-time_s // 60)


def minute_season(season: SeasonDataset) -> SeasonDataset:
    """``season`` with each goal and declared length moved up to a whole minute.

    A goal that lands in the minute of the goal before it is dropped, so the
    times still strictly increase and the season can be written as CSV.
    """
    matches = []
    for match in season.matches:
        goals = []
        for goal in match.goals:
            minute = _minutes_up(abs(goal))
            if not goals or minute > abs(goals[-1]) // 60:
                goals.append(60 * minute if goal > 0 else -60 * minute)
        declared = match.declared_length_s
        if declared is not None:
            declared = 60 * _minutes_up(declared)
        matches.append(MatchRecord(match.round, match.home, match.away, tuple(goals), declared))
    return SeasonDataset(matches=tuple(matches))


def season_text(season: SeasonDataset, as_csv: bool) -> str:
    """``season`` as a CSV file of minute tokens, or as JSON of exact-second goal objects.

    The CSV needs every goal and declared length on a whole minute (:func:`minute_season`).
    """
    if as_csv:
        csv_text, _ = season_texts(
            (m.round, m.home, m.away, [("H" if g > 0 else "A", abs(g) // 60) for g in m.goals],
             None if m.declared_length_s is None else m.declared_length_s // 60)
            for m in season.matches
        )
        return csv_text
    docs = []
    for m in season.matches:
        goals = [{"side": "H" if g > 0 else "A", "time_s": abs(g)} for g in m.goals]
        doc = {"round": m.round, "home": m.home, "away": m.away, "goals": goals}
        if m.declared_length_s is not None:
            doc["length_s"] = m.declared_length_s
        docs.append(doc)
    return json.dumps({"league": "", "matches": docs})


@st.composite
def goal_entries(draw, max_goals: int = 8) -> list[dict]:
    """JSON goal objects at strictly increasing times, each with its own precision."""
    times = draw(
        st.lists(st.integers(1, MAX_FUZZ_TIME_S), max_size=max_goals, unique=True).map(
            sorted
        )
    )
    return [
        {
            "side": draw(st.sampled_from("HA")),
            "time_s": t,
            "precision": draw(st.sampled_from(sorted(SLACK_S))),
        }
        for t in times
    ]


@st.composite
def declared_lengths(draw, entries: list[dict]) -> int | None:
    """None, or a length in whole minutes past 90' or the last goal, whichever is later."""
    extra = draw(st.one_of(st.none(), st.integers(0, 30)))
    if extra is None:
        return None
    return max([5400] + [g["time_s"] for g in entries]) + 60 * extra


def record_from_entries(entries: list[dict], declared: int | None = None) -> MatchRecord:
    """The match that JSON goal objects describe, built without the parser."""
    goals = tuple(g["time_s"] if g["side"] == "H" else -g["time_s"] for g in entries)
    slack = sum(SLACK_S[g["precision"]] for g in entries)
    return MatchRecord(1, "Home", "Away", goals, declared, slack)


@st.composite
def match_records(draw, max_goals: int = 8) -> MatchRecord:
    entries = draw(goal_entries(max_goals))
    return record_from_entries(entries, draw(declared_lengths(entries)))


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
    return fraction_triple(vals)
