import random
from fractions import Fraction

import pytest

from matchgen import random_season
from reference import final_score, paper_match_awards
from timescore.cli import evolution_report
from timescore.errors import EmptySeasonError
from timescore.ingest import MatchRecord, SeasonDataset
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.indicators import rank_changes
from timescore.standings import SeasonLedger, percent_of_leader


def _home(minute):
    """A home goal at ``minute``: its time in seconds."""
    return minute * 60


def _away(minute):
    """An away goal at ``minute``: its time in seconds, negated."""
    return -minute * 60


# A beats B 1-0 at home (goal on 30'), goalless away leg.
TWO_TEAM_SEASON = SeasonDataset(
    matches=(
        MatchRecord(1, "A", "B", (_home(30),)),
        MatchRecord(2, "B", "A"),
    )
)

# Three rounds over four teams, engineered so the lead changes hands twice.
HAND_SEASON = SeasonDataset(
    matches=(
        MatchRecord(1, "P", "Q", (_home(10),)),
        MatchRecord(1, "R", "S"),
        MatchRecord(2, "Q", "R", (_home(20), _home(40))),
        MatchRecord(2, "S", "P", (_home(70),)),
        MatchRecord(3, "P", "R"),
        MatchRecord(
            3,
            "Q",
            "S",
            (_home(5), _away(25), _home(50), _home(80)),
        ),
    )
)

HAND_LEDGER = SeasonLedger(HAND_SEASON)
TWO_TEAM_LEDGER = SeasonLedger(TWO_TEAM_SEASON)
CLASSIC = scoring_rule(ScoringSystem.CLASSIC)
TIME = scoring_rule(ScoringSystem.TIME)

# Classic ranks recomputed by hand for HAND_SEASON, round by round.
HAND_CLASSIC_RANKS = [
    ["P", "R", "S", "Q"],
    ["S", "Q", "P", "R"],
    ["Q", "P", "S", "R"],
]


def _ranked(standings):
    """(team, exact points) in rank order."""
    return [
        (standings.teams[i], Fraction(standings.points[i], standings.den))
        for i in standings.order
    ]


class TestFinalTable:
    def test_two_team_season_time_points(self):
        assert _ranked(TWO_TEAM_LEDGER.final(TIME)) == [
            ("A", Fraction(10, 3)),
            ("B", Fraction(4, 3)),
        ]

    def test_two_team_season_classic_points(self):
        assert _ranked(TWO_TEAM_LEDGER.final(CLASSIC)) == [("A", 4), ("B", 1)]

    def test_leader_percent_is_one_hundred(self):
        percents, leader = percent_of_leader(TWO_TEAM_LEDGER.final(TIME))
        assert Fraction(percents[0], leader) == 100
        assert Fraction(percents[1], leader) == 100 * Fraction(4, 3) / Fraction(10, 3)

    def test_draws_and_appearances(self):
        # A won at home and drew away; B lost away and drew at home.
        assert TWO_TEAM_LEDGER.draws == [1, 1]
        assert TWO_TEAM_LEDGER.final(CLASSIC).appearances == 4

    def test_empty_season_rejected(self):
        with pytest.raises(EmptySeasonError):
            SeasonLedger(SeasonDataset())

    def test_ranks_are_contiguous(self):
        # Every team holds exactly one rank.
        assert sorted(HAND_LEDGER.final(TIME).order) == [0, 1, 2, 3]


class TestTieBreak:
    def test_goal_difference_breaks_equal_points(self):
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "E", "F", (_home(10), _home(20))),
                MatchRecord(1, "G", "H", (_home(10),)),
            )
        )
        ranked = _ranked(SeasonLedger(season).final(CLASSIC))
        assert [team for team, _ in ranked] == ["E", "G", "H", "F"]

    def test_goals_scored_breaks_equal_negative_goal_difference(self):
        # Points tie in pairs and goal difference ties at +1 and -1; the later
        # name scored more, so goals scored, not the name, orders each pair.
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "E", "F", (_home(10),)),
                MatchRecord(1, "G", "H", (_home(10), _away(20), _home(30))),
            )
        )
        ranked = _ranked(SeasonLedger(season).final(CLASSIC))
        assert [team for team, _ in ranked] == ["G", "E", "H", "F"]

    def test_name_breaks_full_ties(self):
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "G", "H", (_home(10),)),
                MatchRecord(1, "E", "F", (_home(10),)),
            )
        )
        ranked = _ranked(SeasonLedger(season).final(CLASSIC))
        assert [team for team, _ in ranked] == ["E", "G", "F", "H"]


class TestEvolution:
    def test_single_round_equals_final_table(self):
        season = SeasonDataset(matches=(MatchRecord(1, "A", "B", (_home(30),)),))
        # A leads 60' of 90' and is level for 30'; the one round is the final.
        [only] = [_ranked(standings) for standings in SeasonLedger(season).rounds(TIME)]
        assert only == [("A", Fraction(7, 3)), ("B", Fraction(1, 3))]

    def test_hand_computed_rank_sequence(self):
        got = [[s.teams[i] for i in s.order] for s in HAND_LEDGER.rounds(CLASSIC)]
        assert got == HAND_CLASSIC_RANKS

    def test_played_counts_accumulate(self):
        for round_no, standings in enumerate(HAND_LEDGER.rounds(CLASSIC), start=1):
            assert standings.appearances == 4 * round_no

    def test_goalless_season_all_tied_by_name(self):
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "C", "D"),
                MatchRecord(1, "A", "B"),
                MatchRecord(2, "B", "A"),
                MatchRecord(2, "D", "C"),
            )
        )
        for round_no, standings in enumerate(SeasonLedger(season).rounds(TIME), start=1):
            ranked = _ranked(standings)
            assert [team for team, _ in ranked] == ["A", "B", "C", "D"]
            assert all(points == round_no for _, points in ranked)


class TestLeadershipStats:
    def test_hand_season_sequence(self):
        orders = [s.order for s in HAND_LEDGER.rounds(CLASSIC)]
        assert [HAND_LEDGER.teams[order[0]] for order in orders] == ["P", "S", "Q"]
        _, changes, leaders = rank_changes(orders)
        assert changes == 2
        assert leaders == 3

    def test_alternating_leaders(self):
        # Engineered leader sequence A, A, B, B, A: two changes, two leaders.
        # B overtakes on goal difference in round 3 and A retakes in round 5.
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "A", "B", (_home(10),)),
                MatchRecord(2, "C", "D"),
                MatchRecord(
                    3,
                    "B",
                    "C",
                    tuple(_home(10 * (i + 1)) for i in range(5)),
                ),
                MatchRecord(4, "D", "C"),
                MatchRecord(5, "A", "D", (_home(10), _home(20))),
            )
        )
        ledger = SeasonLedger(season)
        orders = [s.order for s in ledger.rounds(CLASSIC)]
        assert [ledger.teams[order[0]] for order in orders] == ["A", "A", "B", "B", "A"]
        _, changes, leaders = rank_changes(orders)
        assert changes == 2
        assert leaders == 2

    def test_constant_leader(self):
        _, changes, leaders = rank_changes([s.order for s in TWO_TEAM_LEDGER.rounds(CLASSIC)])
        assert changes == 0
        assert leaders == 1


class TestOverallChanges:
    def test_no_movement_is_zero(self):
        # A stays ahead of C on goal difference; B stays last throughout.
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "A", "B", (_home(10), _home(20))),
                MatchRecord(2, "C", "B", (_home(15),)),
            )
        )
        assert rank_changes([s.order for s in SeasonLedger(season).rounds(CLASSIC)])[0] == 0

    def test_single_swap_counts_both_teams(self):
        season = SeasonDataset(
            matches=(
                MatchRecord(1, "A", "B", (_home(10),)),
                MatchRecord(2, "B", "A", (_home(10), _home(20))),
            )
        )
        assert rank_changes([s.order for s in SeasonLedger(season).rounds(CLASSIC)])[0] == 2

    def test_hand_season_total(self):
        assert rank_changes([s.order for s in HAND_LEDGER.rounds(CLASSIC)])[0] == 7

    def test_matches_recount_from_scratch(self):
        # Independent recount: rebuild each round's table directly from a
        # truncated dataset and tally rank moves without the round stream.
        season = random_season(random.Random(20240817))
        ledger = SeasonLedger(season)
        for rule in (CLASSIC, TIME):
            recount = 0
            previous = None
            for round_no in range(1, season.num_rounds + 1):
                subset = SeasonDataset(
                    matches=tuple(m for m in season.matches if m.round <= round_no)
                )
                final = SeasonLedger(subset).final(rule)
                ranks = {final.teams[i]: rank for rank, i in enumerate(final.order, start=1)}
                if previous is not None:
                    recount += sum(
                        1 for team, rank in ranks.items() if previous[team] != rank
                    )
                previous = ranks
            assert rank_changes([s.order for s in ledger.rounds(rule)])[0] == recount


class TestTotals:
    def test_time_total_is_three_minus_draw_share_summed(self):
        season = random_season(random.Random(7))
        total = sum(points for _, points in _ranked(SeasonLedger(season).final(TIME)))
        expected = Fraction(0)
        for match in season.matches:
            _, draw, _, t_match, _, _ = match.timeline
            expected += 3 - Fraction(draw, t_match)
        assert total == expected

    def test_classic_total_counts_decisive_and_drawn(self):
        season = random_season(random.Random(8))
        total = sum(points for _, points in _ranked(SeasonLedger(season).final(CLASSIC)))
        decisive = sum(hg != ag for hg, ag in map(final_score, season.matches))
        drawn = len(season.matches) - decisive
        assert total == 3 * decisive + 2 * drawn

    def test_rerun_is_identical(self):
        season = random_season(random.Random(9))
        first = _ranked(SeasonLedger(season).final(TIME))
        second = _ranked(SeasonLedger(season).final(TIME))
        assert first == second


class TestExports:
    def test_evolution_csv_row_count(self):
        files = evolution_report(HAND_LEDGER, [CLASSIC], decimals=2, comma=False)
        lines = files["evolution_classic.csv"].splitlines()
        assert lines[0] == "round,team,rank,points"
        assert len(lines) == 1 + 3 * 4  # header + rounds * teams


def test_award_accumulation_matches_manual_sum():
    season = HAND_SEASON
    ranked = _ranked(HAND_LEDGER.final(scoring_rule(ScoringSystem.GOALDIFF_THIRD)))
    manual = {team: Fraction(0) for team in season.teams}
    for match in season.matches:
        home_pts, away_pts = paper_match_awards(match, ScoringSystem.GOALDIFF_THIRD)
        manual[match.home] += home_pts
        manual[match.away] += away_pts
    assert dict(ranked) == manual
