"""Each match's clock split, ``MatchRecord.timeline``, against a step-by-step oracle."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import declared_lengths, goal_entries, match_records, record_from_entries
from reference import SLACK_S, final_score, segment_oracle
from timescore.ingest import MatchRecord, parse_season


def _match(*goals, declared=None):
    return MatchRecord(1, "Home", "Away", goals, declared_length_s=declared)


def _length(match):
    return match.timeline[3]


class TestEffectiveLength:
    def test_goals_before_ninety_minutes(self):
        assert _length(_match(3120, 4260)) == 5400

    def test_late_goal_extends_match(self):
        assert _length(_match(-5700)) == 5700

    def test_declared_length_overrides_default(self):
        assert _length(_match(5700, declared=5760)) == 5760

    def test_goalless_defaults_to_regulation(self):
        assert _length(_match()) == 5400


class TestSegment:
    def test_goalless_is_level_throughout(self):
        assert _match().timeline == (0, 5400, 0, 5400, 0, 0)

    def test_single_goal_at_thirty_minutes(self):
        # Level 0-30', home leads 30'-90'. Frozen from the step oracle.
        assert _match(1800).timeline == (3600, 1800, 0, 5400, 1, 0)

    def test_lead_then_losing(self):
        # Home leads 60 s - 1860 s, level elsewhere until 1920 s, then trails.
        assert _match(60, -1860, -1920).timeline == (1800, 120, 3480, 5400, 1, 2)

    def test_goal_at_final_second_never_counts_as_lead_time(self):
        assert _match(5400).timeline == (0, 5400, 0, 5400, 1, 0)

    def test_mirror_swaps_win_and_lose(self):
        win, draw, lose, _, home, away = _match(600, -2400).timeline
        m_win, m_draw, m_lose, _, m_home, m_away = _match(-600, 2400).timeline
        assert m_win == lose
        assert m_lose == win
        assert m_draw == draw
        assert (m_home, m_away) == (away, home)


class TestSegmentOracle:
    def test_goalless_at_one_second(self):
        assert segment_oracle(_match(), 1) == (0, 5400, 0, 5400)

    def test_single_goal_matches_definition(self):
        assert segment_oracle(_match(1800), 1) == (3600, 1800, 0, 5400)

    def test_remainder_handled_as_short_final_step(self):
        match = _match(-5500)
        win, draw, lose, t_match = segment_oracle(match, 7)  # 5500 % 7 != 0
        assert t_match == 5500
        assert win + draw + lose == 5500

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ValueError):
            segment_oracle(_match(), 0)


@given(match_records())
@settings(max_examples=150)
def test_segment_equals_oracle_at_one_second(match):
    assert match.timeline[:4] == segment_oracle(match, 1)


@given(goal_entries(), st.data())
@settings(max_examples=150)
def test_timeline_counts_the_final_score_and_equals_the_oracle(entries, data):
    # Parsed from JSON goal objects that run into stoppage time, each with its
    # own precision, and sometimes a declared length.
    declared = data.draw(declared_lengths(entries))
    doc = {"round": 1, "home": "Home", "away": "Away", "goals": entries}
    if declared is not None:
        doc["length_s"] = declared
    (match,) = parse_season(json.dumps({"matches": [doc]})).matches
    assert match == record_from_entries(entries, declared)
    assert match.slack_s == sum(SLACK_S[g["precision"]] for g in entries)
    assert match.timeline == segment_oracle(match, 1) + final_score(match)


@given(match_records())
def test_sum_identity_exact(match):
    win, draw, lose, t_match, _, _ = match.timeline
    assert win + draw + lose == t_match
    if match.declared_length_s is None:
        assert t_match == max([5400] + [abs(goal) for goal in match.goals])
    else:
        assert t_match == match.declared_length_s


@given(match_records())
def test_mirror_property(match):
    mirrored = MatchRecord(
        match.round, match.home, match.away, [-goal for goal in match.goals],
        match.declared_length_s, match.slack_s,
    )
    win, draw, lose, t_match, home, away = match.timeline
    assert mirrored.timeline == (lose, draw, win, t_match, away, home)
