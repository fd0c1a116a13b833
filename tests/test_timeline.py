import pytest
from hypothesis import given, settings

from matchgen import match_records
from reference import final_score, segment_oracle
from timescore.ingest import GoalEvent, MatchRecord, Side
from timescore.timeline import effective_length, timeline


def _match(*goals, declared=None):
    return MatchRecord(1, "Home", "Away", goals, declared_length_s=declared)


class TestEffectiveLength:
    def test_goals_before_ninety_minutes(self):
        match = _match(GoalEvent(Side.HOME, 3120), GoalEvent(Side.HOME, 4260))
        assert effective_length(match) == 5400

    def test_late_goal_extends_match(self):
        match = _match(GoalEvent(Side.HOME, 5700))
        assert effective_length(match) == 5700

    def test_declared_length_overrides_default(self):
        match = _match(GoalEvent(Side.HOME, 5700), declared=5760)
        assert effective_length(match) == 5760

    def test_goalless_defaults_to_regulation(self):
        assert effective_length(_match()) == 5400


class TestSegment:
    def test_goalless_is_level_throughout(self):
        assert timeline(_match()) == (0, 5400, 0, 5400, 0, 0)

    def test_single_goal_at_thirty_minutes(self):
        # Level 0-30', home leads 30'-90'. Frozen from the step oracle.
        assert timeline(_match(GoalEvent(Side.HOME, 1800))) == (3600, 1800, 0, 5400, 1, 0)

    def test_lead_then_losing(self):
        # Home leads 60 s - 1860 s, level elsewhere until 1920 s, then trails.
        walk = timeline(
            _match(
                GoalEvent(Side.HOME, 60),
                GoalEvent(Side.AWAY, 1860),
                GoalEvent(Side.AWAY, 1920),
            )
        )
        assert walk == (1800, 120, 3480, 5400, 1, 2)

    def test_goal_at_final_second_never_counts_as_lead_time(self):
        assert timeline(_match(GoalEvent(Side.HOME, 5400))) == (0, 5400, 0, 5400, 1, 0)

    def test_mirror_swaps_win_and_lose(self):
        goals = (GoalEvent(Side.HOME, 600), GoalEvent(Side.AWAY, 2400))
        flipped = tuple(
            GoalEvent(Side.AWAY if g.side is Side.HOME else Side.HOME, g.time_s)
            for g in goals
        )
        win, draw, lose, _, home, away = timeline(_match(*goals))
        m_win, m_draw, m_lose, _, m_home, m_away = timeline(_match(*flipped))
        assert m_win == lose
        assert m_lose == win
        assert m_draw == draw
        assert (m_home, m_away) == (away, home)


class TestSegmentOracle:
    def test_goalless_at_one_second(self):
        assert segment_oracle(_match(), 1) == (0, 5400, 0, 5400)

    def test_single_goal_matches_definition(self):
        assert segment_oracle(_match(GoalEvent(Side.HOME, 1800)), 1) == (3600, 1800, 0, 5400)

    def test_remainder_handled_as_short_final_step(self):
        match = _match(GoalEvent(Side.HOME, 5500))
        win, draw, lose, t_match = segment_oracle(match, 7)  # 5500 % 7 != 0
        assert t_match == 5500
        assert win + draw + lose == 5500

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ValueError):
            segment_oracle(_match(), 0)


@given(match_records())
@settings(max_examples=150)
def test_segment_equals_oracle_at_one_second(match):
    assert timeline(match)[:4] == segment_oracle(match, 1)


@given(match_records())
@settings(max_examples=150)
def test_timeline_counts_the_final_score_and_equals_the_oracle(match):
    assert timeline(match) == segment_oracle(match, 1) + final_score(match)


@given(match_records())
def test_sum_identity_exact(match):
    win, draw, lose, t_match, _, _ = timeline(match)
    assert win + draw + lose == t_match
    assert t_match == effective_length(match)


@given(match_records())
def test_mirror_property(match):
    flipped = tuple(
        GoalEvent(Side.AWAY if g.side is Side.HOME else Side.HOME, g.time_s, g.precision)
        for g in match.goals
    )
    mirrored = MatchRecord(
        match.round, match.home, match.away, flipped, match.declared_length_s
    )
    win, draw, lose, t_match, home, away = timeline(match)
    assert timeline(mirrored) == (lose, draw, win, t_match, away, home)
