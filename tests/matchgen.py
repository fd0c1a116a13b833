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


def random_season(
    rng: random.Random, num_teams: int = 6, teams: list[str] | None = None
) -> SeasonDataset:
    """A double round robin of ``teams``, by default Team01, Team02, ... up to ``num_teams``."""
    teams = teams or [f"Team{i:02d}" for i in range(1, num_teams + 1)]
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


def season_text(
    season: SeasonDataset, as_csv: bool, rng: random.Random | None = None
) -> str:
    """``season`` as a CSV file of minute tokens, or as JSON of exact-second goal objects.

    The CSV needs every goal and declared length on a whole minute (:func:`minute_season`).
    With ``rng``, each JSON goal says a precision drawn from it, or none (exact), and
    a goal on a whole minute may be written as a token string instead.
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
        goals = [_goal_entry(g, rng) for g in m.goals]
        doc = {"round": m.round, "home": m.home, "away": m.away, "goals": goals}
        if m.declared_length_s is not None:
            doc["length_s"] = m.declared_length_s
        docs.append(doc)
    return json.dumps({"league": "", "matches": docs})


def _goal_entry(goal: int, rng: random.Random | None) -> dict | str:
    side, time_s = "H" if goal > 0 else "A", abs(goal)
    entry = {"side": side, "time_s": time_s}
    if rng is not None:
        if time_s % 60 == 0 and rng.random() < 0.5:
            return f"{side}:{time_s // 60}"
        precision = rng.choice([None, *sorted(SLACK_S)])
        if precision is not None:
            entry["precision"] = precision
    return entry


@st.composite
def team_names(draw, count: int) -> list[str]:
    """``count`` distinct team names, many holding a comma, a double quote, a CR or an LF.

    Each name is a letter, up to three drawn characters and its own index digit,
    so no two are equal and none has spaces to trim at either end.
    """
    return [
        draw(st.sampled_from("ABC")) + draw(st.text(',"\r\n xé', max_size=3)) + str(index)
        for index in range(count)
    ]


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
    """Three distinct weights from -10 to 10 over a drawn denominator of 1 to 6.

    The numerators are distinct by construction, the lowest drawn first and each
    next one above it, so no draw is thrown away.
    """
    den = draw(st.integers(1, 6))
    top = 10 * den
    low = draw(st.integers(-top, top - 2))
    mid = draw(st.integers(low + 1, top - 1))
    high = draw(st.integers(mid + 1, top))
    return fraction_triple([Fraction(high, den), Fraction(mid, den), Fraction(low, den)])
