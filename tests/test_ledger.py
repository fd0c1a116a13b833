"""The season ledger against paper-formula awards summed and ranked from scratch.

Each season goes through the JSON parser, each goal with its own precision,
and each match is segmented by the step-by-step oracle, not by ``MatchRecord.timeline``.
"""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import random_season, weight_triples
from reference import SLACK_S, draws_recount, expected_rounds, segment_oracle
from timescore.ingest import MatchRecord, SeasonDataset, parse_season
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger


def _with_second_lengths(season: SeasonDataset, rng: random.Random) -> SeasonDataset:
    # Declare about half the matches a length to the second past 90' or the
    # last goal, so the ledger's common denominator spans many lengths.
    matches = []
    for match in season.matches:
        if rng.random() < 0.5:
            floor = max(5400, abs(match.goals[-1]) if match.goals else 0)
            length = floor + rng.randint(1, 600)
            match = MatchRecord(match.round, match.home, match.away, match.goals, length)
        matches.append(match)
    return SeasonDataset(matches=tuple(matches))


def _through_json(season: SeasonDataset, rng: random.Random) -> SeasonDataset:
    # Write every goal as a JSON goal object with a random precision and parse
    # the season back: the same signed goals, each match's slack the sum.
    docs, slacks = [], []
    for match in season.matches:
        precisions = [rng.choice(sorted(SLACK_S)) for _ in match.goals]
        goals = [
            {"side": "H" if goal > 0 else "A", "time_s": abs(goal), "precision": precision}
            for goal, precision in zip(match.goals, precisions)
        ]
        doc = {"round": match.round, "home": match.home, "away": match.away, "goals": goals}
        if match.declared_length_s is not None:
            doc["length_s"] = match.declared_length_s
        docs.append(doc)
        slacks.append(sum(map(SLACK_S.__getitem__, precisions)))
    parsed = parse_season(json.dumps({"matches": docs}))
    assert [m.goals for m in parsed.matches] == [m.goals for m in season.matches]
    assert [m.slack_s for m in parsed.matches] == slacks
    return parsed


def _seasons(seed: int, teams: int) -> SeasonDataset:
    rng = random.Random(seed)
    return _through_json(_with_second_lengths(random_season(rng, num_teams=teams), rng), rng)


@given(st.integers(0, 2**32), weight_triples(), st.sampled_from([4, 6, 8]))
@settings(max_examples=40, deadline=None)
def test_ledger_rounds_equal_summed_match_points(seed, weights, teams):
    season = _seasons(seed, teams)
    segments = {match: segment_oracle(match) for match in season.matches}
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        rounds = ledger.rounds(rule)
        expected = expected_rounds(season, system, weights, segments)
        count = 0
        for standings, (points, order) in zip(rounds, expected, strict=True):
            assert [standings.teams[i] for i in standings.order] == order
            for i, team in enumerate(standings.teams):
                assert Fraction(standings.points[i], standings.den) == points[team]
            count += 1
        assert count == season.num_rounds


@given(st.integers(0, 2**32), weight_triples())
@settings(max_examples=25, deadline=None)
def test_order_read_once_equals_order_read_every_round(seed, weights):
    # Standings rank lazily: a stream whose order is read only after the last
    # round must end where a stream read every round ends, and both where the
    # from-scratch recount ends.
    season = _seasons(seed, 6)
    segments = {match: segment_oracle(match) for match in season.matches}
    ledger = SeasonLedger(season)
    assert dict(zip(ledger.teams, ledger.draws)) == draws_recount(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        *_, read_once = ledger.rounds(rule)
        for read_every_round in ledger.rounds(rule):
            read_every_round.order  # ranks this round
        *_, (points, order) = expected_rounds(season, system, weights, segments)
        for standings in (read_once, read_every_round):
            assert [standings.teams[i] for i in standings.order] == order
            assert [Fraction(p, standings.den) for p in standings.points] == [
                points[team] for team in standings.teams
            ]
            # Each fixture is one appearance for each side.
            assert standings.appearances == 2 * len(season.matches)
