import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchgen import random_season
from reference import final_score, paper_match_awards
from timescore.display import format_decimal
from timescore.errors import EmptySeasonError, TooFewTeamsError, WrongSystemError
from timescore.indicators import (
    draws_to_wins,
    ecdf_counts,
    gaps,
    indicator_bundle,
    minutes_for_deficit,
    minutes_to_upper,
)
from timescore.ingest import GoalEvent, MatchRecord, SeasonDataset, Side
from timescore.scoring import DEFAULT_WEIGHTS, ScoringSystem, scoring_rule
from timescore.standings import LeagueTable, SeasonLedger, TableRow, percent_of_leader

CLASSIC = scoring_rule(ScoringSystem.CLASSIC)
TIME = scoring_rule(ScoringSystem.TIME)

# Final classic points column of a real 20-team season (1033 points in total).
REAL_CLASSIC_POINTS = [
    81, 71, 70, 66, 66, 63, 62, 60, 51, 50, 47, 47, 45, 43, 42, 42, 39, 37, 34, 17,
]


def _table(points, system, draws=None):
    rows = tuple(
        TableRow(
            team=f"T{rank:02d}",
            points=Fraction(p),
            played=38,
            wins=0,
            draws=0 if draws is None else draws[rank - 1],
            losses=0,
            goals_for=0,
            goal_diff=0,
            rank=rank,
        )
        for rank, p in enumerate(points, start=1)
    )
    return LeagueTable(system=system, weights=DEFAULT_WEIGHTS, rows=rows)


class TestGaps:
    def test_real_season_gap_values(self):
        table = _table(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC)
        gap_3, gap_9, gap_last = gaps(table)
        assert gap_3 == Fraction(100 * (81 - 70), 81)
        assert gap_9 == Fraction(100 * (81 - 51), 81)
        assert gap_last == Fraction(100 * (81 - 17), 81)
        assert format_decimal(gap_3, 1) == "13.6"
        assert format_decimal(gap_9, 1) == "37.0"
        assert format_decimal(gap_last, 1) == "79.0"

    def test_gap_is_complement_of_percent_of_leader(self):
        table = _table(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC)
        percents = percent_of_leader(table)
        gap_3, gap_9, gap_last = gaps(table)
        assert gap_3 == 100 - percents[2]
        assert gap_9 == 100 - percents[8]
        assert gap_last == 100 - percents[-1]

    def test_percent_display_half_up(self):
        table = _table(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC)
        percents = percent_of_leader(table)
        assert format_decimal(percents[1], 0) == "88"  # 71/81 = 87.65...

    def test_equal_points_give_zero_gaps(self):
        table = _table([10, 10, 10, 10], ScoringSystem.CLASSIC)
        assert gaps(table) == (0, 0, 0)

    def test_too_few_teams(self):
        with pytest.raises(TooFewTeamsError):
            gaps(_table([3, 1], ScoringSystem.CLASSIC))

    def test_short_table_ninth_falls_back_to_last(self):
        table = _table([10, 8, 5], ScoringSystem.CLASSIC)
        gap_3, gap_9, gap_last = gaps(table)
        assert gap_3 == gap_9 == gap_last == 50


class TestAveragePoints:
    def test_all_goalless_time_average_is_one(self):
        season = SeasonDataset(
            matches=(MatchRecord(1, "A", "B"), MatchRecord(1, "C", "D"))
        )
        assert SeasonLedger(season).final(TIME).average() == 1

    def test_denominator_is_team_appearances(self):
        # One decisive match: 3 points over 2 appearances.
        season = SeasonDataset(
            matches=(MatchRecord(1, "A", "B", (GoalEvent(Side.HOME, 600),)),)
        )
        assert SeasonLedger(season).final(CLASSIC).average() == Fraction(3, 2)

    def test_matches_manual_summation(self):
        season = random_season(random.Random(11))
        total = Fraction(0)
        for match in season.matches:
            total += sum(paper_match_awards(match, ScoringSystem.TIME))
        expected = total / (2 * len(season.matches))
        assert SeasonLedger(season).final(TIME).average() == expected

    def test_empty_season(self):
        # No appearances to average over: the ledger refuses the season.
        with pytest.raises(EmptySeasonError):
            SeasonLedger(SeasonDataset())

    def test_time_average_strictly_below_three_halves(self):
        for seed in range(5):
            season = random_season(random.Random(seed))
            avg = SeasonLedger(season).final(TIME).average()
            assert 1 <= avg < Fraction(3, 2)


class TestMinutesToUpper:
    def test_deficit_example(self):
        minutes = minutes_for_deficit(Fraction(73, 100))
        assert minutes == Fraction(3285, 100)
        assert format_decimal(minutes, 0) == "33"

    def test_zero_deficit_is_zero_minutes(self):
        assert minutes_for_deficit(Fraction(0)) == 0

    def test_sub_minute_deficit_flagged(self):
        table = _table([Fraction(7502, 100), Fraction(7500, 100), Fraction(60)], ScoringSystem.TIME)
        metrics = minutes_to_upper(table)
        assert metrics[0].minutes_to_upper == Fraction(9, 10)
        assert metrics[0].precision_limited
        assert not metrics[1].precision_limited

    @given(st.fractions(min_value=0, max_value=5))
    def test_linear_in_deficit(self, deficit):
        assert minutes_for_deficit(2 * deficit) == 2 * minutes_for_deficit(deficit)

    def test_table_metrics_use_the_row_above(self):
        table = _table([10, 8, 5], ScoringSystem.TIME)
        metrics = minutes_to_upper(table)
        assert [m.team for m in metrics] == ["T02", "T03"]
        assert [m.deficit_pts for m in metrics] == [2, 3]
        assert metrics[0].minutes_to_upper == 2 * 45
        assert metrics[1].minutes_to_upper == 3 * 45

    def test_wrong_system_rejected(self):
        with pytest.raises(WrongSystemError):
            minutes_to_upper(_table([10, 8, 5], ScoringSystem.CLASSIC))


class TestDrawsToWins:
    def test_ten_point_deficit_needs_five_swaps(self):
        table = _table([81, 71, 60], ScoringSystem.CLASSIC, draws=[4, 11, 6])
        metrics = draws_to_wins(table)
        assert metrics[0].draws_to_wins == 5
        assert not metrics[0].capped

    def test_ceiling_of_half_deficit(self):
        table = _table([10, 7, 7], ScoringSystem.CLASSIC, draws=[5, 5, 5])
        metrics = draws_to_wins(table)
        assert metrics[0].draws_to_wins == 2  # ceil(3/2)
        assert metrics[1].draws_to_wins == 0

    def test_cap_binds_at_actual_draw_count(self):
        table = _table([20, 10, 5], ScoringSystem.CLASSIC, draws=[0, 2, 0])
        metrics = draws_to_wins(table)
        assert metrics[0].draws_to_wins == 2
        assert metrics[0].capped

    def test_wrong_system_rejected(self):
        with pytest.raises(WrongSystemError):
            draws_to_wins(_table([10, 8, 5], ScoringSystem.TIME))


class TestPointsEcdf:
    def test_all_goalless_is_single_step(self):
        ledger = SeasonLedger(SeasonDataset(matches=(MatchRecord(1, "A", "B"),)))
        [(value, count)] = ecdf_counts(ledger.awards(TIME))
        assert (Fraction(value, ledger.den(TIME)), count) == (1, 2)

    def test_classic_steps_match_result_counts(self):
        season = random_season(random.Random(13))
        ledger = SeasonLedger(season)
        den = ledger.den(CLASSIC)
        steps = ecdf_counts(ledger.awards(CLASSIC))
        lookup = {Fraction(value, den): count for value, count in steps}
        assert set(lookup) <= {0, 1, 3}
        losses = sum(hg != ag for hg, ag in map(final_score, season.matches))
        draws = 2 * (len(season.matches) - losses)
        assert lookup[0] == losses
        assert lookup[1] == losses + draws
        assert lookup[3] == 2 * len(season.matches)

    def test_matches_counting_oracle(self):
        season = random_season(random.Random(14))
        ledger = SeasonLedger(season)
        for system in ScoringSystem:
            awards = []
            for match in season.matches:
                awards.extend(paper_match_awards(match, system))
            n = len(awards)
            expected = [
                (value, Fraction(sum(1 for a in awards if a <= value), n))
                for value in sorted(set(awards))
            ]
            rule = scoring_rule(system)
            den = ledger.den(rule)
            steps = ecdf_counts(ledger.awards(rule))
            assert [(Fraction(value, den), Fraction(i, n)) for value, i in steps] == expected

    def test_monotone_and_ends_at_one(self):
        ledger = SeasonLedger(random_season(random.Random(15)))
        awards = ledger.awards(TIME)
        steps = ecdf_counts(awards)
        counts = [count for _, count in steps]
        assert counts == sorted(set(counts))
        assert counts[-1] == len(awards)
        assert all(0 < value < 3 * ledger.den(TIME) for value, _ in steps)

    def test_empty_season(self):
        # No awards, no steps; the ledger refuses an empty season before that.
        assert ecdf_counts([]) == []
        with pytest.raises(EmptySeasonError):
            SeasonLedger(SeasonDataset())


class TestBundle:
    def test_bundle_fields_consistent_with_parts(self):
        ledger = SeasonLedger(random_season(random.Random(16)))
        bundle = indicator_bundle(ledger, TIME)
        final = ledger.final(TIME)
        gap_3, gap_9, gap_last = gaps(final.table())
        assert (bundle.gap_1_3_pct, bundle.gap_1_9_pct, bundle.gap_1_last_pct) == (
            gap_3,
            gap_9,
            gap_last,
        )
        assert bundle.avg_points_per_team_game == final.average()
        assert 0 <= bundle.gap_1_3_pct <= 100
        assert bundle.distinct_leaders >= 1
