import itertools
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clirun import run_cli
from matchgen import (
    minute_season,
    random_season,
    random_weight_triple,
    season_text,
    weight_triples,
)
from reference import (
    average_recount,
    final_points,
    final_score,
    gaps_recount,
    indicator_files,
    minutes_to_upper_recount,
    package_awards,
    paper_match_awards,
    rendered_by_hand,
    season_awards,
    weight_fractions,
)
from timescore.display import format_ratios
from timescore.errors import (
    EmptySeasonError,
    NonPositiveLeaderError,
    TooFewTeamsError,
    WrongSystemError,
)
from timescore.indicators import (
    draws_to_wins,
    ecdf_steps,
    gaps,
    minutes_for_deficit,
    minutes_to_upper,
)
from timescore.ingest import MatchRecord, SeasonDataset
from timescore.scoring import ScoringRule, ScoringSystem, WeightTriple, scoring_rule
from timescore.standings import SeasonLedger, Standings, percent_of_leader

CLASSIC = scoring_rule(ScoringSystem.CLASSIC)
TIME = scoring_rule(ScoringSystem.TIME)

# Final classic points column of a real 20-team season (1033 points in total).
REAL_CLASSIC_POINTS = [
    81, 71, 70, 66, 66, 63, 62, 60, 51, 50, 47, 47, 45, 43, 42, 42, 39, 37, 34, 17,
]


def _standings(points, system, den=1):
    """Standings of teams T01, T02, ... holding ``points`` (non-increasing) over ``den``."""
    teams = tuple(f"T{rank:02d}" for rank in range(1, len(points) + 1))
    # One round; the tie-break order is name order, so equal points keep it.
    nums = [int(p * den) for p in points]
    return Standings(teams, scoring_rule(system), den, nums, len(teams), range(len(teams)))


def _final(ledger, rule):
    *_, final = ledger.rounds(rule)
    return final


class TestGaps:
    def test_real_season_gap_values(self):
        ratios = gaps(_standings(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC))
        gap_3, gap_9, gap_last = (Fraction(*ratio) for ratio in ratios)
        assert gap_3 == Fraction(100 * (81 - 70), 81)
        assert gap_9 == Fraction(100 * (81 - 51), 81)
        assert gap_last == Fraction(100 * (81 - 17), 81)
        cells = [format_ratios((num,), den, 1)[0] for num, den in ratios]
        assert cells == ["13.6", "37.0", "79.0"]

    def test_gap_is_complement_of_percent_of_leader(self):
        standings = _standings(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC, den=5400)
        percents, leader = percent_of_leader(standings)
        gap_3, gap_9, gap_last = (Fraction(*ratio) for ratio in gaps(standings))
        assert gap_3 == 100 - Fraction(percents[2], leader)
        assert gap_9 == 100 - Fraction(percents[8], leader)
        assert gap_last == 100 - Fraction(percents[-1], leader)

    def test_percent_display_half_up(self):
        standings = _standings(REAL_CLASSIC_POINTS, ScoringSystem.CLASSIC)
        percents, leader = percent_of_leader(standings)
        assert format_ratios(percents[1:2], leader, 0) == ["88"]  # 71/81 = 87.65...

    def test_equal_points_give_zero_gaps(self):
        standings = _standings([10, 10, 10, 10], ScoringSystem.CLASSIC)
        assert [Fraction(*ratio) for ratio in gaps(standings)] == [0, 0, 0]

    def test_too_few_teams(self):
        with pytest.raises(TooFewTeamsError):
            gaps(_standings([3, 1], ScoringSystem.CLASSIC))

    def test_short_table_ninth_falls_back_to_last(self):
        gap_3, gap_9, gap_last = gaps(_standings([10, 8, 5], ScoringSystem.CLASSIC))
        assert Fraction(*gap_3) == Fraction(*gap_9) == Fraction(*gap_last) == 50


class TestAveragePoints:
    def test_all_goalless_time_average_is_one(self):
        season = SeasonDataset(
            matches=(MatchRecord(1, "A", "B"), MatchRecord(1, "C", "D"))
        )
        assert Fraction(*_final(SeasonLedger(season), TIME).average()) == 1

    def test_denominator_is_team_appearances(self):
        # One decisive match: 3 points over 2 appearances.
        season = SeasonDataset(
            matches=(MatchRecord(1, "A", "B", (600,)),)
        )
        final = _final(SeasonLedger(season), CLASSIC)
        assert final.average() == (3 * final.den, 2 * final.den)

    def test_matches_manual_summation(self):
        season = random_season(random.Random(11))
        total = Fraction(0)
        for match in season.matches:
            total += sum(paper_match_awards(match, ScoringSystem.TIME))
        expected = total / (2 * len(season.matches))
        assert Fraction(*_final(SeasonLedger(season), TIME).average()) == expected

    def test_empty_season(self):
        # No appearances to average over: the ledger refuses the season.
        with pytest.raises(EmptySeasonError):
            SeasonLedger(SeasonDataset())

    def test_time_average_strictly_below_three_halves(self):
        for seed in range(5):
            season = random_season(random.Random(seed))
            avg = Fraction(*_final(SeasonLedger(season), TIME).average())
            assert 1 <= avg < Fraction(3, 2)


class TestMinutesToUpper:
    def test_deficit_example(self):
        num, den = minutes_for_deficit(73, 100, TIME)
        assert Fraction(num, den) == Fraction(3285, 100)
        assert format_ratios((num,), den, 0) == ["33"]

    def test_zero_deficit_is_zero_minutes(self):
        assert Fraction(*minutes_for_deficit(0, 1, TIME)) == 0

    def test_sub_minute_deficit_is_exact(self):
        standings = _standings(
            [Fraction(7502, 100), Fraction(7500, 100), Fraction(60)], ScoringSystem.TIME, den=100
        )
        nums, den = minutes_to_upper(standings)
        assert [Fraction(num, den) for num in nums] == [Fraction(9, 10), 675]
        assert format_ratios(nums, den, 0) == ["1", "675"]

    @given(st.fractions(min_value=0, max_value=5))
    def test_linear_in_deficit(self, deficit):
        num, den = deficit.numerator, deficit.denominator
        assert Fraction(*minutes_for_deficit(2 * num, den, TIME)) == 2 * Fraction(
            *minutes_for_deficit(num, den, TIME)
        )

    @given(st.data(), weight_triples())
    @settings(deadline=None)
    def test_go_ahead_goal_moved_earlier_gains_its_minutes(self, data, weights):
        # A 90' match: goals on distinct seconds up to 90:00, random sides
        # (+1 home, -1 away).
        spacing = st.lists(st.integers(1, 1080), min_size=1, max_size=5)
        times = list(itertools.accumulate(data.draw(spacing)))
        n = len(times)
        sides = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        level = [i for i in range(n) if sum(sides[:i]) == 0]
        j = data.draw(st.sampled_from(level))  # 0 is level: no goal before it
        sides[j] = 1
        previous = times[j - 1] if j else 0
        # Move the go-ahead goal m whole minutes earlier, past no other goal.
        assume(times[j] - previous > 60)
        m = data.draw(st.integers(1, (times[j] - previous - 1) // 60))
        rule = scoring_rule(ScoringSystem.TIME, weights)
        goals = [side * t for side, t in zip(sides, times)]
        before, _ = package_awards(MatchRecord(1, "H", "A", tuple(goals)), rule)
        goals[j] = times[j] - 60 * m
        after, _ = package_awards(MatchRecord(1, "H", "A", tuple(goals)), rule)
        deficit = after - before
        assert Fraction(*minutes_for_deficit(deficit.numerator, deficit.denominator, rule)) == m

    def test_table_metrics_use_the_row_above(self):
        nums, den = minutes_to_upper(_standings([10, 8, 5], ScoringSystem.TIME))
        # Deficits of 2 and 3 points, at 90/(3 - 1) = 45 minutes a point.
        assert [Fraction(num, den) for num in nums] == [2 * 45, 3 * 45]

    def test_hand_built_rule_converts_at_its_own_lead_minus_level(self):
        # Weights 5/2, 1 and 0: a point is 90 * 2/(5 - 2) = 60 minutes.
        rule = ScoringRule(ScoringSystem.TIME, 5, 2, 0, 0, 0, 2)
        standings = Standings(("T01", "T02", "T03"), rule, 1, [10, 8, 5], 3, range(3))
        nums, den = minutes_to_upper(standings)
        assert [Fraction(num, den) for num in nums] == [2 * 60, 3 * 60]

    def test_wrong_system_rejected(self):
        with pytest.raises(WrongSystemError):
            minutes_to_upper(_standings([10, 8, 5], ScoringSystem.CLASSIC))


class TestDrawsToWins:
    def test_ten_point_deficit_needs_five_swaps(self):
        standings = _standings([81, 71, 60], ScoringSystem.CLASSIC, den=5400)
        assert draws_to_wins(standings, [4, 11, 6])[0] == (5, False)

    def test_ceiling_of_half_deficit(self):
        standings = _standings([10, 7, 7], ScoringSystem.CLASSIC, den=5400)
        # ceil(3/2), then no deficit.
        assert draws_to_wins(standings, [5, 5, 5]) == [(2, False), (0, False)]

    def test_cap_binds_at_actual_draw_count(self):
        standings = _standings([20, 10, 5], ScoringSystem.CLASSIC)
        # ceil(10/2) = 5 is more than the 2 draws; ceil(5/2) = 3 is not more than 3.
        assert draws_to_wins(standings, [0, 2, 3]) == [(2, True), (3, False)]

    def test_wrong_system_rejected(self):
        with pytest.raises(WrongSystemError):
            draws_to_wins(_standings([10, 8, 5], ScoringSystem.TIME), [0, 0, 0])


def _ecdf(ledger, rule):
    """ecdf_steps on the ledger's tally under ``rule``."""
    return ecdf_steps(ledger.tally(rule))


class TestPointsEcdf:
    def test_all_goalless_is_single_step(self):
        ledger = SeasonLedger(SeasonDataset(matches=(MatchRecord(1, "A", "B"),)))
        uppers, counts, bits = _ecdf(ledger, TIME)
        # Both sides score 1: one step, on the key of 1, reached by both awards.
        assert (uppers, counts) == ([(1 << bits) + 1], [2])

    def test_classic_steps_match_result_counts(self):
        season = random_season(random.Random(13))
        uppers, counts, bits = _ecdf(SeasonLedger(season), CLASSIC)
        # Classic awards are whole points, so each step's key is its award.
        lookup = {(upper - 1) >> bits: count for upper, count in zip(uppers, counts)}
        assert set(lookup) <= {0, 1, 3}
        losses = sum(hg != ag for hg, ag in map(final_score, season.matches))
        draws = 2 * (len(season.matches) - losses)
        assert lookup[0] == losses
        assert lookup[1] == losses + draws
        assert lookup[3] == 2 * len(season.matches)

    def test_matches_counting_oracle(self):
        for seed in range(14, 20):
            rng = random.Random(seed)
            season = random_season(rng)
            weights = random_weight_triple(rng)
            ledger = SeasonLedger(season)
            for system in ScoringSystem:
                awards = []
                for match in season.matches:
                    awards.extend(paper_match_awards(match, system, weights))
                n = len(awards)
                expected = [
                    (value, Fraction(sum(1 for a in awards if a <= value), n))
                    for value in sorted(set(awards))
                ]
                uppers, counts, bits = _ecdf(ledger, scoring_rule(system, weights))
                assert [Fraction(i, n) for i in counts] == [share for _, share in expected]
                assert format_ratios(uppers, 1 << bits, 6) == [
                    rendered_by_hand(value, 6) for value, _ in expected
                ]

    def test_monotone_and_ends_at_one(self):
        ledger = SeasonLedger(random_season(random.Random(15)))
        awards = season_awards(ledger, TIME)
        assert all(0 < award < 3 for award in awards)
        uppers, counts, bits = _ecdf(ledger, TIME)
        assert counts == sorted(set(counts))
        assert counts[-1] == len(awards)
        assert uppers == sorted(set(uppers))
        assert 0 < uppers[0] and uppers[-1] <= 3 << bits

    def test_empty_season(self):
        # No awards, no steps; the ledger refuses an empty season before that.
        uppers, counts, _ = ecdf_steps(([], [], []))
        assert uppers == counts == []
        with pytest.raises(EmptySeasonError):
            SeasonLedger(SeasonDataset())


@st.composite
def _award_sets(draw):
    """[(n, m, count)]: count awards n/m, each den m a scale times a length t.

    Beside free draws, the list holds an equal award over another length, the
    nearest awards over another length, and exact six-decimal halves, odd
    multiples of 1/(128 * 5**k). Each award is drawn with its own count.
    """
    scale = draw(st.integers(1, 60))
    max_length = draw(st.integers(1, 7200))
    lengths = st.integers(1, max_length)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(lengths)
        n = draw(st.integers(-40 * scale * t, 40 * scale * t))
        pairs.append((n, t))
        other = draw(lengths)
        if other % t == 0:
            pairs.append((n * (other // t), other))
        nearest = n * other // t
        pairs += ((nearest, other), (nearest + 1, other))
        q = 128 * 5 ** draw(st.integers(0, 6))
        step = q // math.gcd(q, scale)
        if step <= max_length:
            t = step * draw(st.integers(1, max_length // step))
            odd = 2 * draw(st.integers(-3 * q, 3 * q)) + 1
            pairs.append((odd * scale * t // q, t))
    return [(n, scale * t, draw(st.integers(1, 5))) for n, t in pairs]


@given(_award_sets())
@example([(9, 5760, 2), (-9, 5760, 1), (1, 2880, 3), (5, 3200, 1), (-1, 128, 4)])
@settings(max_examples=300, deadline=None)
def test_ecdf_steps_order_tie_and_render_like_the_awards(rows):
    uppers, counts, bits = ecdf_steps(tuple(map(list, zip(*rows))))
    awards = [(Fraction(n, m), count) for n, m, count in rows]
    values = sorted({award for award, _ in awards})
    # One step per distinct award, in order, each on its own key, reached by
    # the sum of the counts of the awards at or below it.
    assert uppers == [math.floor(value * 2**bits) + 1 for value in values]
    assert counts == [sum(count for a, count in awards if a <= value) for value in values]
    assert format_ratios(uppers, 1 << bits, 6) == [rendered_by_hand(value, 6) for value in values]


@given(st.integers(0, 2**32), st.sampled_from([4, 6, 10]), weight_triples())
@settings(max_examples=40, deadline=None)
def test_gaps_average_and_minutes_equal_their_fraction_recounts(seed, teams, weights):
    season = random_season(random.Random(seed), teams)
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        final = _final(ledger, scoring_rule(system, weights))
        points = final_points(season, system, weights)
        assert Fraction(*final.average()) == average_recount(season, system, weights)
        expected = gaps_recount(points)
        if expected is None:
            with pytest.raises(NonPositiveLeaderError):
                gaps(final)
        else:
            assert [Fraction(*ratio) for ratio in gaps(final)] == expected
        if system is ScoringSystem.TIME:
            nums, den = minutes_to_upper(final)
            assert [Fraction(num, den) for num in nums] == minutes_to_upper_recount(points, weights)


@given(
    st.integers(0, 2**32),
    st.sampled_from([4, 6, 8, 10]),
    st.booleans(),
    st.lists(st.sampled_from(list(ScoringSystem)), min_size=1, max_size=5),
    weight_triples(),
    st.integers(0, 3),
    st.booleans(),
)
# Seed 14's four-team classic table has a gap of exactly 68.75 %, a half at one decimal.
@example(14, 4, True, [ScoringSystem.CLASSIC, ScoringSystem.TIME, ScoringSystem.CLASSIC],
         WeightTriple(3, 1, 0), 2, True)
@settings(max_examples=100, deadline=None)
def test_indicators_files_equal_the_fraction_reference(
    seed, teams, as_csv, systems, weights, decimals, comma
):
    # The whole indicators command, parse to bytes, against a writer that
    # ranks and recounts every round in Fraction arithmetic; --decimals must
    # not move the indicator cells.
    season = random_season(random.Random(seed), teams)
    if as_csv:
        season = minute_season(season)
    expected = indicator_files(season, list(dict.fromkeys(systems)), weights, comma)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "season", Path(tmp) / "out"
        path.write_text(season_text(season, as_csv), encoding="utf-8")
        result = run_cli([
            "indicators", "--input", str(path), "--out", str(out),
            "--systems", ",".join(system.value for system in systems),
            "--weights", ",".join(map(str, weight_fractions(weights))),
            "--decimals", str(decimals), *(["--decimal-comma"] if comma else []),
        ])
        if isinstance(expected, str):
            assert (result.exit_code, result.stderr) == (1, expected)
            assert not out.exists()
        else:
            assert result.exit_code == 0, result.stderr
            assert {name: (out / name).read_bytes().decode() for name in expected} == expected
