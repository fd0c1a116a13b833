from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import match_records, weight_triples
from reference import package_awards, paper_awards, paper_match_awards
from timescore.ingest import GoalEvent, MatchRecord, Side
from timescore.scoring import (
    DEFAULT_WEIGHTS,
    ScoringSystem,
    WeightTriple,
    final_result,
    goal_diff_value,
    scoring_rule,
)
from timescore.timeline import SegmentBreakdown, segment

GOALLESS = MatchRecord(1, "Home", "Away")
ONE_NIL_AT_THIRTY = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 1800),))
CLASSIC, TIME, MIXED, GOALDIFF = (
    scoring_rule(system)
    for system in (
        ScoringSystem.CLASSIC, ScoringSystem.TIME,
        ScoringSystem.MIXED_HALF, ScoringSystem.GOALDIFF_THIRD,
    )
)


class TestWeightTriple:
    def test_default_is_three_one_zero(self):
        assert (DEFAULT_WEIGHTS.alpha_w, DEFAULT_WEIGHTS.alpha_d, DEFAULT_WEIGHTS.alpha_l) == (3, 1, 0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            WeightTriple(1, 1, 0)
        with pytest.raises(ValueError):
            WeightTriple(0, 1, 3)

    def test_from_string_accepts_rationals(self):
        w = WeightTriple.from_string("3, 1/2, 0.25")
        assert (w.alpha_w, w.alpha_d, w.alpha_l) == (3, Fraction(1, 2), Fraction(1, 4))
        w = WeightTriple.from_string("+3.,.5,-1/2")
        assert (w.alpha_w, w.alpha_d, w.alpha_l) == (3, Fraction(1, 2), Fraction(-1, 2))

    def test_from_string_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            WeightTriple.from_string("3,1")

    @pytest.mark.parametrize(
        "part", ["1_0", "\u0663", "\uff13", "1e5", "inf", "nan", "0x3", "1.5/2", "3/-1", "", "."]
    )
    def test_from_string_rejects_parts_outside_the_grammar(self, part):
        with pytest.raises(ValueError, match="bad weight"):
            WeightTriple.from_string(f"{part},-1,-2")


class TestTimePoints:
    def test_goalless_draw_awards_one_each(self):
        assert package_awards(GOALLESS, TIME) == (1, 1)

    def test_thirty_minute_lead_and_sixty_trailing_equals_a_draw(self):
        # Leading a third of the match and trailing the rest is worth exactly
        # the same as being level throughout. No goal sequence gives this
        # breakdown, so the paper formula scores it.
        home, _ = paper_awards(SegmentBreakdown(1800, 0, 3600, 5400), (1, 2), ScoringSystem.TIME)
        assert home == 1
        assert home == package_awards(GOALLESS, TIME)[0]

    def test_single_goal_at_thirty_minutes(self):
        home, away = package_awards(ONE_NIL_AT_THIRTY, TIME)
        assert home == Fraction(7, 3)
        assert away == Fraction(1, 3)
        seg = segment(ONE_NIL_AT_THIRTY)
        assert home + away == 3 - Fraction(seg.t_draw, seg.t_match)

    def test_custom_weights(self):
        rule = scoring_rule(ScoringSystem.TIME, WeightTriple(2, 1, 0))
        home, _ = package_awards(ONE_NIL_AT_THIRTY, rule)
        assert home == Fraction(2 * 3600 + 1800, 5400)


class TestClassicPoints:
    @pytest.mark.parametrize(
        "goals,expected",
        [
            ((GoalEvent(Side.HOME, 600), GoalEvent(Side.HOME, 700)), (3, 0)),
            ((GoalEvent(Side.HOME, 600), GoalEvent(Side.AWAY, 700)), (1, 1)),
            ((GoalEvent(Side.AWAY, 600),), (0, 3)),
            ((), (1, 1)),
        ],
    )
    def test_final_score_mapping(self, goals, expected):
        assert package_awards(MatchRecord(1, "Home", "Away", goals), CLASSIC) == expected


class TestMixedPoints:
    def test_goalless(self):
        assert package_awards(GOALLESS, MIXED) == (1, 1)

    def test_single_goal_at_thirty_minutes(self):
        home, away = package_awards(ONE_NIL_AT_THIRTY, MIXED)
        assert home == Fraction(8, 3)
        assert away == Fraction(1, 6)

    def test_equals_mean_of_classic_and_time(self):
        time_award = package_awards(ONE_NIL_AT_THIRTY, TIME)
        classic_award = package_awards(ONE_NIL_AT_THIRTY, CLASSIC)
        mixed_award = package_awards(ONE_NIL_AT_THIRTY, MIXED)
        assert mixed_award[0] == (time_award[0] + classic_award[0]) / 2
        assert mixed_award[1] == (time_award[1] + classic_award[1]) / 2


class TestGoalDiffPoints:
    def test_goalless(self):
        assert package_awards(GOALLESS, GOALDIFF) == (Fraction(2, 3), Fraction(2, 3))

    def test_single_goal_at_thirty_minutes(self):
        # third of (7/3 time share + 3 result + 1 goal-diff) = 19/9
        home, away = package_awards(ONE_NIL_AT_THIRTY, GOALDIFF)
        assert home == Fraction(19, 9)
        assert away == Fraction(1, 3) * (Fraction(1, 3) + 0 + 0)

    def test_goal_difference_caps_at_three(self):
        goals = tuple(GoalEvent(Side.HOME, 600 * (i + 1)) for i in range(4))
        match = MatchRecord(1, "Home", "Away", goals)
        assert goal_diff_value(*match.final_score) == 3

    @pytest.mark.parametrize(
        "gf,ga,expected", [(0, 0, 0), (0, 2, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (5, 1, 3)]
    )
    def test_goal_diff_mapping(self, gf, ga, expected):
        assert goal_diff_value(gf, ga) == expected

    @pytest.mark.parametrize("gf,ga,expected", [(2, 1, 3), (1, 1, 1), (0, 4, 0)])
    def test_final_result_mapping(self, gf, ga, expected):
        assert final_result(gf, ga) == expected


@given(match_records(), weight_triples())
@settings(max_examples=120)
def test_sum_identity_for_general_weights(match, weights):
    seg = segment(match)
    home, away = package_awards(match, scoring_rule(ScoringSystem.TIME, weights))
    expected = (weights.alpha_w + weights.alpha_l) + (
        2 * weights.alpha_d - weights.alpha_w - weights.alpha_l
    ) * Fraction(seg.t_draw, seg.t_match)
    assert home + away == expected


@given(match_records())
def test_default_weights_total_in_two_to_three(match):
    home, away = package_awards(match, TIME)
    total = home + away
    assert 2 <= total < 3
    assert 0 < home < 3
    assert 0 < away < 3
    if not match.goals:
        assert (home, away) == (1, 1)


@given(match_records())
def test_mixed_is_mean_of_classic_and_time(match):
    mixed_award = package_awards(match, MIXED)
    time_award = package_awards(match, TIME)
    classic_award = package_awards(match, CLASSIC)
    assert mixed_award[0] == (time_award[0] + classic_award[0]) / 2
    assert mixed_award[1] == (time_award[1] + classic_award[1]) / 2


@given(
    st.integers(min_value=1, max_value=5399),
    st.integers(min_value=1, max_value=5399),
)
def test_lead_duration_decides_points_not_placement(start, duration):
    # Leading for a given duration is worth the same whether the lead happens
    # mid-match (equalized later) or holds from the same distance to the end.
    end = start + duration
    if end >= 5400:
        end = 5400
        duration = end - start
    mid_lead = MatchRecord(
        1, "Home", "Away",
        (GoalEvent(Side.HOME, start),)
        + ((GoalEvent(Side.AWAY, end),) if end < 5400 else ()),
    )
    late_lead = MatchRecord(
        1, "Home", "Away", (GoalEvent(Side.HOME, 5400 - duration),)
    )
    assert package_awards(mid_lead, TIME)[0] == package_awards(late_lead, TIME)[0]


def test_one_minute_shift_moves_exactly_two_sixtieths_of_regulation():
    early = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 5280),))
    late = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 5340),))
    delta = package_awards(early, TIME)[0] - package_awards(late, TIME)[0]
    assert delta == Fraction(2 * 60, 5400)


def test_each_system_scores_with_its_own_rule():
    for system in ScoringSystem:
        assert scoring_rule(system).system is system
    expected = {
        CLASSIC: (3, 0),
        TIME: (Fraction(7, 3), Fraction(1, 3)),
        MIXED: (Fraction(8, 3), Fraction(1, 6)),
        GOALDIFF: (Fraction(19, 9), Fraction(1, 9)),
    }
    for rule, awards in expected.items():
        assert package_awards(ONE_NIL_AT_THIRTY, rule) == awards


def test_hybrids_ignore_configured_weights():
    heavy = scoring_rule(ScoringSystem.MIXED_HALF, WeightTriple(10, 1, 0))
    assert package_awards(ONE_NIL_AT_THIRTY, MIXED)[0] == package_awards(
        ONE_NIL_AT_THIRTY, heavy
    )[0]


@given(match_records(), weight_triples())
def test_one_rule_matches_each_system_definition(match, weights):
    # The documented definitions, written out in Fractions in tests/reference.py.
    for system in ScoringSystem:
        want = paper_match_awards(match, system, weights)
        assert package_awards(match, scoring_rule(system, weights)) == want
