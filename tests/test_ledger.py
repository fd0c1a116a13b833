"""The season ledger against paper-formula awards summed and ranked from scratch."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import random_season, weight_triples
from reference import final_score, paper_match_awards
from timescore.ingest import MatchRecord, SeasonDataset
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger


def _with_second_lengths(season: SeasonDataset, rng: random.Random) -> SeasonDataset:
    # Declare about half the matches a length to the second past 90' or the
    # last goal, so the ledger's common denominator spans many lengths.
    matches = []
    for match in season.matches:
        if rng.random() < 0.5:
            floor = max(5400, match.goals[-1].time_s if match.goals else 0)
            length = floor + rng.randint(1, 600)
            match = MatchRecord(match.round, match.home, match.away, match.goals, length)
        matches.append(match)
    return SeasonDataset(matches=tuple(matches))


def _expected_rounds(season: SeasonDataset, system, weights):
    """Per round: team -> exact points, and the teams in documented tie-break order."""
    points = {team: Fraction(0) for team in season.teams}
    goals_for = dict.fromkeys(season.teams, 0)
    goal_diff = dict.fromkeys(season.teams, 0)
    for round_no in range(1, season.num_rounds + 1):
        for match in season.matches:
            if match.round != round_no:
                continue
            home_pts, away_pts = paper_match_awards(match, system, weights)
            hg, ag = final_score(match)
            points[match.home] += home_pts
            points[match.away] += away_pts
            goals_for[match.home] += hg
            goals_for[match.away] += ag
            goal_diff[match.home] += hg - ag
            goal_diff[match.away] += ag - hg
        # Points desc, goal difference desc, goals scored desc, name asc.
        order = sorted(
            season.teams, key=lambda t: (-points[t], -goal_diff[t], -goals_for[t], t)
        )
        yield dict(points), order


@given(st.integers(0, 2**32), weight_triples(), st.sampled_from([4, 6, 8]))
@settings(max_examples=40, deadline=None)
def test_ledger_rounds_equal_summed_match_points(seed, weights, teams):
    rng = random.Random(seed)
    season = _with_second_lengths(random_season(rng, num_teams=teams), rng)
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        rounds = ledger.rounds(rule)
        expected = _expected_rounds(season, system, weights)
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
    rng = random.Random(seed)
    season = _with_second_lengths(random_season(rng, num_teams=6), rng)
    ledger = SeasonLedger(season)
    draws = dict.fromkeys(season.teams, 0)
    for match in season.matches:
        home_goals, away_goals = final_score(match)
        if home_goals == away_goals:
            draws[match.home] += 1
            draws[match.away] += 1
    assert dict(zip(ledger.teams, ledger.draws)) == draws
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        *_, read_once = ledger.rounds(rule)
        for read_every_round in ledger.rounds(rule):
            read_every_round.order  # ranks this round
        *_, (points, order) = _expected_rounds(season, system, weights)
        for standings in (read_once, read_every_round):
            assert [standings.teams[i] for i in standings.order] == order
            assert [Fraction(p, standings.den) for p in standings.points] == [
                points[team] for team in standings.teams
            ]
            # Each fixture is one appearance for each side.
            assert standings.appearances == 2 * len(season.matches)
