"""The season ledger against paper-formula awards summed and ranked from scratch."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import random_season, weight_triples
from reference import paper_match_awards
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
            hg, ag = match.final_score
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
def test_final_equals_last_round(seed, weights):
    rng = random.Random(seed)
    season = _with_second_lengths(random_season(rng, num_teams=6), rng)
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        for last in ledger.rounds(rule):
            pass
        final = ledger.final(rule)
        assert final.order == last.order
        assert final.points == last.points
        # Rows carry order, points, wins/draws/losses and goals.
        assert final.table() == last.table()
