from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import match_records, weight_triples
from timescore.ingest import GoalEvent, MatchRecord, Side
from timescore.scoring import (
    DEFAULT_WEIGHTS,
    ScoringSystem,
    WeightTriple,
    final_result,
    goal_diff_value,
    match_points,
    time_points,
)
from timescore.timeline import SegmentBreakdown, segment

GOALLESS = MatchRecord(1, "Home", "Away")
ONE_NIL_AT_THIRTY = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 1800),))


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
        award = time_points(segment(GOALLESS))
        assert (award.home_pts, award.away_pts) == (1, 1)

    def test_thirty_minute_lead_and_sixty_trailing_equals_a_draw(self):
        # Leading a third of the match and trailing the rest is worth exactly
        # the same as being level throughout.
        award = time_points(SegmentBreakdown(1800, 0, 3600, 5400))
        assert award.home_pts == 1
        assert award.home_pts == time_points(segment(GOALLESS)).home_pts

    def test_single_goal_at_thirty_minutes(self):
        award = time_points(segment(ONE_NIL_AT_THIRTY))
        assert award.home_pts == Fraction(7, 3)
        assert award.away_pts == Fraction(1, 3)
        seg = segment(ONE_NIL_AT_THIRTY)
        assert award.home_pts + award.away_pts == 3 - Fraction(seg.t_draw, seg.t_match)

    def test_custom_weights(self):
        award = time_points(segment(ONE_NIL_AT_THIRTY), WeightTriple(2, 1, 0))
        assert award.home_pts == Fraction(2 * 3600 + 1800, 5400)


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
        award = match_points(MatchRecord(1, "Home", "Away", goals), ScoringSystem.CLASSIC)
        assert (award.home_pts, award.away_pts) == expected


class TestMixedPoints:
    def test_goalless(self):
        award = match_points(GOALLESS, ScoringSystem.MIXED_HALF)
        assert (award.home_pts, award.away_pts) == (1, 1)

    def test_single_goal_at_thirty_minutes(self):
        award = match_points(ONE_NIL_AT_THIRTY, ScoringSystem.MIXED_HALF)
        assert award.home_pts == Fraction(8, 3)
        assert award.away_pts == Fraction(1, 6)

    def test_equals_mean_of_classic_and_time(self):
        time_award = time_points(segment(ONE_NIL_AT_THIRTY))
        classic_award = match_points(ONE_NIL_AT_THIRTY, ScoringSystem.CLASSIC)
        mixed_award = match_points(ONE_NIL_AT_THIRTY, ScoringSystem.MIXED_HALF)
        assert mixed_award.home_pts == (time_award.home_pts + classic_award.home_pts) / 2
        assert mixed_award.away_pts == (time_award.away_pts + classic_award.away_pts) / 2


class TestGoalDiffPoints:
    def test_goalless(self):
        award = match_points(GOALLESS, ScoringSystem.GOALDIFF_THIRD)
        assert (award.home_pts, award.away_pts) == (Fraction(2, 3), Fraction(2, 3))

    def test_single_goal_at_thirty_minutes(self):
        # third of (7/3 time share + 3 result + 1 goal-diff) = 19/9
        award = match_points(ONE_NIL_AT_THIRTY, ScoringSystem.GOALDIFF_THIRD)
        assert award.home_pts == Fraction(19, 9)
        assert award.away_pts == Fraction(1, 3) * (Fraction(1, 3) + 0 + 0)

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
    award = time_points(seg, weights)
    expected = (weights.alpha_w + weights.alpha_l) + (
        2 * weights.alpha_d - weights.alpha_w - weights.alpha_l
    ) * Fraction(seg.t_draw, seg.t_match)
    assert award.home_pts + award.away_pts == expected


@given(match_records())
def test_default_weights_total_in_two_to_three(match):
    award = time_points(segment(match))
    total = award.home_pts + award.away_pts
    assert 2 <= total < 3
    assert 0 < award.home_pts < 3
    assert 0 < award.away_pts < 3
    if not match.goals:
        assert (award.home_pts, award.away_pts) == (1, 1)


@given(match_records())
def test_mixed_is_mean_of_classic_and_time(match):
    mixed_award = match_points(match, ScoringSystem.MIXED_HALF)
    time_award = time_points(segment(match))
    classic_award = match_points(match, ScoringSystem.CLASSIC)
    assert mixed_award.home_pts == (time_award.home_pts + classic_award.home_pts) / 2
    assert mixed_award.away_pts == (time_award.away_pts + classic_award.away_pts) / 2


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
    assert time_points(segment(mid_lead)).home_pts == time_points(segment(late_lead)).home_pts


def test_one_minute_shift_moves_exactly_two_sixtieths_of_regulation():
    early = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 5280),))
    late = MatchRecord(1, "Home", "Away", (GoalEvent(Side.HOME, 5340),))
    delta = time_points(segment(early)).home_pts - time_points(segment(late)).home_pts
    assert delta == Fraction(2 * 60, 5400)


def test_match_points_dispatch():
    for system in ScoringSystem:
        award = match_points(ONE_NIL_AT_THIRTY, system)
        assert award.system is system
    assert match_points(ONE_NIL_AT_THIRTY, ScoringSystem.TIME).home_pts == Fraction(7, 3)


def test_hybrids_ignore_configured_weights():
    heavy = WeightTriple(10, 1, 0)
    assert match_points(ONE_NIL_AT_THIRTY, ScoringSystem.MIXED_HALF).home_pts == match_points(
        ONE_NIL_AT_THIRTY, ScoringSystem.MIXED_HALF, heavy
    ).home_pts


@given(match_records(), weight_triples())
def test_one_rule_matches_each_system_definition(match, weights):
    # The documented definitions, written out in Fractions one system at a time.
    seg = segment(match)
    hg, ag = match.final_score
    t = seg.t_match
    share = {
        "home": Fraction(3 * seg.t_win_home + seg.t_draw, t),
        "away": Fraction(3 * seg.t_lose_home + seg.t_draw, t),
    }
    weighted = {
        "home": (weights.alpha_w * seg.t_win_home + weights.alpha_d * seg.t_draw
                 + weights.alpha_l * seg.t_lose_home) / t,
        "away": (weights.alpha_w * seg.t_lose_home + weights.alpha_d * seg.t_draw
                 + weights.alpha_l * seg.t_win_home) / t,
    }
    result = {"home": final_result(hg, ag), "away": final_result(ag, hg)}
    bonus = {"home": goal_diff_value(hg, ag), "away": goal_diff_value(ag, hg)}
    expected = {
        ScoringSystem.CLASSIC: {s: Fraction(result[s]) for s in result},
        ScoringSystem.TIME: weighted,
        ScoringSystem.MIXED_HALF: {s: (share[s] + result[s]) / 2 for s in result},
        ScoringSystem.GOALDIFF_THIRD: {s: (share[s] + result[s] + bonus[s]) / 3 for s in result},
    }
    for system, want in expected.items():
        award = match_points(match, system, weights)
        assert (award.home_pts, award.away_pts) == (want["home"], want["away"])
