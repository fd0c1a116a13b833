from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import paper_match_awards
from timescore.errors import (
    DuplicateFixtureError,
    EmptySeasonError,
    MalformedRowError,
    NonContiguousRoundsError,
    NonMonotonicGoalsError,
    UnknownFormatError,
)
from timescore.ingest import (
    SECONDS_PER_MINUTE,
    GoalEvent,
    MatchRecord,
    SeasonDataset,
    SeasonFormat,
    Side,
    TimePrecision,
    minute_error_bound,
    parse_goal_token,
    parse_season,
    serialize_season,
)
from timescore.scoring import ScoringSystem, WeightTriple

HEADER = "round,home,away,goals,length_min\n"


def test_parse_basic_row():
    csv_text = HEADER + '1,Leicester,Sunderland,"H:52,H:71",\n'
    season = parse_season(csv_text, "csv")
    assert len(season.matches) == 1
    match = season.matches[0]
    assert match.round == 1
    assert match.home == "Leicester"
    assert match.away == "Sunderland"
    assert [g.time_s for g in match.goals] == [3120, 4260]
    assert all(g.side is Side.HOME for g in match.goals)
    assert all(g.precision is TimePrecision.MINUTE_TRUNCATED for g in match.goals)
    assert match.declared_length_s is None


def test_stoppage_token_is_absolute_minute():
    goal = parse_goal_token("A:90+5", TimePrecision.MINUTE_TRUNCATED)
    assert goal.side is Side.AWAY
    assert goal.time_s == 95 * 60


def test_stoppage_token_equals_plain_absolute_token():
    a = parse_goal_token("H:45+2", TimePrecision.MINUTE_ROUNDED)
    b = parse_goal_token("H:47", TimePrecision.MINUTE_ROUNDED)
    assert a == b


def test_goalless_match_is_valid():
    season = parse_season(HEADER + "1,Alpha,Beta,,\n", "csv")
    assert season.matches[0].goals == ()


def test_minute_precision_flag_applies_to_all_tokens():
    season = parse_season(
        HEADER + '1,Alpha,Beta,"H:10",\n',
        "csv",
        minute_precision=TimePrecision.MINUTE_ROUNDED,
    )
    assert season.matches[0].goals[0].precision is TimePrecision.MINUTE_ROUNDED


def test_declared_length_minutes_scaled_to_seconds():
    season = parse_season(HEADER + '1,Alpha,Beta,"H:90+5",96\n', "csv")
    assert season.matches[0].declared_length_s == 96 * 60


@pytest.mark.parametrize(
    "row",
    [
        "x,Alpha,Beta,,",          # bad round
        "1,Alpha,Beta,H:xx,",      # bad goal token
        "1,Alpha,Beta,H:10",       # too few fields
        "1,Alpha,Alpha,,",         # team plays itself
        "1, ,Beta,,",              # blank team name
        "1,Alpha,Beta,,80",        # declared length below regulation
        '1,Alpha,Beta,"H:95",92',  # declared length before last goal
        "1,Alpha,Beta,H:0,",       # goal at second zero
        '1,Alpha,Beta,"H:\u0665\u0662",95',  # Arabic-Indic digits in a goal minute
        '1,Alpha,Beta,"H:\uff15\uff12",95',  # fullwidth digits in a goal minute
        '1,Alpha,Beta,"H:52",9_5',  # digit separator in length_min
        "0_2,Alpha,Beta,,",        # digit separator in the round
    ],
)
def test_malformed_rows_report_line_number(row):
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(HEADER + row + "\n", "csv")
    assert "MALFORMED_ROW" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_bad_token_after_valid_rows_reports_its_line():
    # The parser reuses the GoalEvent of a token it has seen; a new bad token
    # on a later row must still fail with that row's line.
    text = HEADER + (
        '1,Alpha,Beta,"H:10,A:20",\n'
        '1,Gamma,Delta,"H:10,A:20",\n'
        '2,Beta,Alpha,"H:10",\n'
        '2,Delta,Gamma,"H:10,A:20,H:3O",\n'
    )
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(text, "csv")
    assert "H:3O" in str(excinfo.value)
    assert "line 5" in str(excinfo.value)


def test_signed_and_padded_integers_still_parse():
    season = parse_season(HEADER + " +1 ,Alpha,Beta,H:52, 95 \n", "csv")
    assert season.matches[0].round == 1
    assert season.matches[0].declared_length_s == 95 * SECONDS_PER_MINUTE


@st.composite
def _goal_fields(draw):
    """Goal tokens with strictly increasing minutes, in every notation the CSV accepts."""
    minutes = sorted(draw(st.sets(st.integers(1, 300), max_size=6)))
    tokens = []
    for minute in minutes:
        side = draw(st.sampled_from("HA"))
        text = f"{side}:{minute}"
        if minute > 90 and draw(st.booleans()):
            text = f"{side}:90+{minute - 90}"
        pad = st.sampled_from(["", " ", "  "])
        tokens.append(draw(pad) + text + draw(pad))
    return tokens


@given(
    st.lists(_goal_fields(), min_size=1, max_size=12),
    st.sampled_from([TimePrecision.MINUTE_TRUNCATED, TimePrecision.MINUTE_ROUNDED]),
)
@settings(max_examples=60, deadline=None)
def test_parsed_goals_equal_each_token_parsed_alone(fields, precision):
    # Minutes repeat across rows (and so do whole tokens), so parsed goals are shared.
    rows = [f'1,Home{i},Away{i},"{",".join(tokens)}",' for i, tokens in enumerate(fields)]
    season = parse_season(HEADER + "\n".join(rows) + "\n", "csv", minute_precision=precision)
    assert [match.goals for match in season.matches] == [
        tuple(parse_goal_token(token, precision) for token in tokens) for tokens in fields
    ]


def test_wrong_header_rejected():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season("a,b,c\n1,Alpha,Beta,,\n", "csv")
    assert "line 1" in str(excinfo.value)


def test_duplicate_fixture_rejected():
    text = HEADER + "1,Alpha,Beta,,\n2,Alpha,Beta,,\n"
    with pytest.raises(DuplicateFixtureError):
        parse_season(text, "csv")


def test_reversed_fixture_is_not_a_duplicate():
    text = HEADER + "1,Alpha,Beta,,\n2,Beta,Alpha,,\n"
    assert len(parse_season(text, "csv").matches) == 2


def test_nonmonotonic_goals_rejected():
    with pytest.raises(NonMonotonicGoalsError):
        parse_season(HEADER + '1,Alpha,Beta,"H:20,A:10",\n', "csv")


def test_same_second_goals_rejected():
    with pytest.raises(NonMonotonicGoalsError):
        MatchRecord(1, "Alpha", "Beta", (GoalEvent(Side.HOME, 100), GoalEvent(Side.AWAY, 100)))


def test_noncontiguous_rounds_rejected():
    with pytest.raises(NonContiguousRoundsError):
        parse_season(HEADER + "1,Alpha,Beta,,\n3,Beta,Alpha,,\n", "csv")


def test_unknown_format_rejected():
    with pytest.raises(UnknownFormatError):
        parse_season(HEADER, "xml")


def test_empty_file_rejected():
    with pytest.raises(EmptySeasonError):
        parse_season("", "csv")
    with pytest.raises(EmptySeasonError):
        parse_season(b"  \n \n", "json")


def test_header_only_file_is_an_empty_season():
    season = parse_season(HEADER, "csv")
    assert season.matches == ()


def test_no_rows_silently_dropped():
    text = HEADER + "1,Alpha,Beta,,\n\n2,Beta,Alpha,,\n\n"
    data_rows = [
        line for line in text.splitlines()[1:] if line.strip()
    ]
    season = parse_season(text, "csv")
    assert len(season.matches) == len(data_rows)


def test_crlf_and_bom_tolerated():
    text = "﻿" + HEADER.rstrip("\n") + "\r\n" + '1,Alpha,Beta,"H:10",\r\n'
    season = parse_season(text.encode("utf-8"), "csv")
    assert season.matches[0].goals[0].time_s == 600


def test_csv_round_trip_identical():
    text = (
        HEADER
        + '1,Alpha,Beta,"H:12,A:45+1,H:90+4",\n'
        + "1,Gamma,Delta,,\n"
        + '2,Beta,Alpha,"A:77",95\n'
        + '2,Delta,Gamma,"H:3",\n'
    )
    for precision in (TimePrecision.MINUTE_TRUNCATED, TimePrecision.MINUTE_ROUNDED):
        season = parse_season(text, "csv", minute_precision=precision)
        rendered = serialize_season(season, "csv")
        again = parse_season(rendered, SeasonFormat.CSV, minute_precision=precision)
        assert again == season


def test_json_round_trip_identical_with_exact_times():
    season = SeasonDataset(
        league_name="Exact League",
        matches=(
            MatchRecord(
                1,
                "Alpha",
                "Beta",
                (
                    GoalEvent(Side.HOME, 725, TimePrecision.EXACT),
                    GoalEvent(Side.AWAY, 5403, TimePrecision.EXACT),
                ),
                declared_length_s=5403,
            ),
            MatchRecord(1, "Gamma", "Delta", ()),
        ),
    )
    rendered = serialize_season(season, "json")
    assert parse_season(rendered, "json") == season


def test_json_accepts_token_strings_and_objects():
    doc = """
    {
      "league": "Mixed",
      "matches": [
        {"round": 1, "home": "Alpha", "away": "Beta",
         "goals": ["H:52", {"side": "A", "time_s": 5403, "precision": "exact"}],
         "length_min": null}
      ]
    }
    """
    season = parse_season(doc, "json")
    goals = season.matches[0].goals
    assert goals[0] == GoalEvent(Side.HOME, 3120, TimePrecision.MINUTE_TRUNCATED)
    assert goals[1] == GoalEvent(Side.AWAY, 5403, TimePrecision.EXACT)


@pytest.mark.parametrize(
    "field,value",
    [("round", 1.5), ("round", True), ("length_min", 95.5), ("goals", ["H:\u0665\u0662"])],
)
def test_json_rejects_non_integer_numbers(field, value):
    obj = {"round": 1, "home": "A", "away": "B", "goals": []}
    obj[field] = value
    import json

    with pytest.raises(MalformedRowError):
        parse_season(json.dumps({"matches": [obj]}), "json")


def test_json_rejects_fractional_goal_time():
    doc = (
        '{"matches": [{"round": 1, "home": "A", "away": "B",'
        ' "goals": [{"side": "H", "time_s": 10.5}]}]}'
    )
    with pytest.raises(MalformedRowError):
        parse_season(doc, "json")


def _json_match(fields: str) -> str:
    return '{"matches": [{"round": 1, "home": "A", "away": "B", ' + fields + "}]}"


@pytest.mark.parametrize(
    "longest,too_long",
    [
        ('"length_s": 18000', '"length_s": 18001'),
        ('"length_min": 300', '"length_min": 301'),
        ('"goals": [{"side": "A", "time_s": 18000}]', '"goals": [{"side": "A", "time_s": 18001}]'),
    ],
    ids=["length_s", "length_min", "goal_time_s"],
)
def test_json_match_length_is_capped(longest, too_long):
    assert parse_season(_json_match(longest), "json").matches
    with pytest.raises(MalformedRowError):
        parse_season(_json_match(too_long), "json")


@pytest.mark.parametrize(
    "goal,message",
    [
        (
            '{"side": "X", "time_s": 60}',
            "bad goal object {'side': 'X', 'time_s': 60}: 'X' is not a valid Side",
        ),
        (
            '{"side": ["H"], "time_s": 60}',
            "bad goal object {'side': ['H'], 'time_s': 60}: ['H'] is not a valid Side",
        ),
        (
            '{"side": "H", "time_s": 60, "precision": "Exact"}',
            "bad goal object {'side': 'H', 'time_s': 60, 'precision': 'Exact'}: "
            "'Exact' is not a valid TimePrecision",
        ),
        ('{"side": "H", "time_s": true}', "goal time_s must be an integer, got True"),
        ('{"time_s": 60}', "bad goal object {'time_s': 60}: 'side'"),
    ],
    ids=["unknown_side", "unhashable_side", "unknown_precision", "bool_time", "missing_side"],
)
def test_json_goal_object_errors_name_the_bad_field(goal, message):
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(_json_match(f'"goals": [{{"side": "H", "time_s": 30}}, {goal}]'), "json")
    assert str(excinfo.value) == f"MALFORMED_ROW: match 1: {message}"


@pytest.mark.parametrize(
    "goals,shown",
    [
        ('""', "''"),
        ("{}", "{}"),
        ('"H:10"', "'H:10'"),
        ("null", "None"),
        ('{"side": "H", "time_s": 10}', "{'side': 'H', 'time_s': 10}"),
    ],
    ids=["empty_string", "empty_object", "token_string", "null", "goal_object"],
)
def test_json_goals_must_be_a_list(goals, shown):
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(_json_match(f'"goals": {goals}'), "json")
    assert str(excinfo.value) == f"MALFORMED_ROW: match 1: goals must be a list, got {shown}"


def test_json_match_without_goals_is_goalless():
    assert parse_season(_json_match('"length_s": 5400'), "json").matches[0].goals == ()


def test_json_integer_too_long_to_convert_is_malformed():
    with pytest.raises(MalformedRowError):
        parse_season(_json_match('"length_s": 1' + "0" * 5000), "json")


def test_json_rejects_both_length_keys():
    doc = (
        '{"matches": [{"round": 1, "home": "A", "away": "B", "goals": [],'
        ' "length_min": 95, "length_s": 5700}]}'
    )
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(doc, "json")
    assert str(excinfo.value) == "MALFORMED_ROW: match 1: give length_min or length_s, not both"


def test_json_non_integer_length_names_the_field():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(_json_match('"length_min": 95.5'), "json")
    assert str(excinfo.value) == "MALFORMED_ROW: match 1: length_min must be an integer, got 95.5"


def test_json_syntax_error_reports_line():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season('{"matches": [\n  {bad}\n]}', "json")
    assert excinfo.value.line == 2


def _one_match(goals=(), length_s=None, league=""):
    return SeasonDataset(league, (MatchRecord(1, "A", "B", goals, length_s),))


TRUNCATED, ROUNDED = TimePrecision.MINUTE_TRUNCATED, TimePrecision.MINUTE_ROUNDED


@pytest.mark.parametrize(
    "season,message",
    [
        (
            _one_match((GoalEvent(Side.HOME, 725, TimePrecision.EXACT),)),
            "CSV carries minute-resolution goals with one uniform precision",
        ),
        (
            _one_match((GoalEvent(Side.HOME, 60, TRUNCATED), GoalEvent(Side.AWAY, 120, ROUNDED))),
            "CSV carries minute-resolution goals with one uniform precision",
        ),
        (_one_match(league="Premier"), "CSV has no league field"),
        (
            _one_match((GoalEvent(Side.HOME, 61, TRUNCATED),)),
            "goal at 61 s is not on a whole minute",
        ),
        (_one_match(length_s=5430), "declared length 5430 s is not a whole minute"),
    ],
    ids=["exact", "mixed_precisions", "league", "off_minute_goal", "off_minute_length"],
)
def test_csv_serializer_refuses_what_csv_cannot_carry(season, message):
    with pytest.raises(ValueError, match=message):
        serialize_season(season, "csv")


def test_team_names_trimmed():
    season = parse_season(HEADER + "1,  Alpha ,Beta,,\n", "csv")
    assert season.matches[0].home == "Alpha"
    assert season.teams == ("Alpha", "Beta")


def test_minute_error_bound_truncated():
    season = SeasonDataset(
        matches=(
            MatchRecord(1, "A", "B", (GoalEvent(Side.HOME, 60, TimePrecision.MINUTE_TRUNCATED),)),
        )
    )
    bound = minute_error_bound(season)
    assert bound == Fraction(118, 5400)
    assert abs(float(bound) - 0.0219) < 5e-4


def test_minute_error_bound_rounded():
    season = SeasonDataset(
        matches=(
            MatchRecord(1, "A", "B", (GoalEvent(Side.HOME, 60, TimePrecision.MINUTE_ROUNDED),)),
        )
    )
    bound = minute_error_bound(season)
    assert bound == Fraction(60, 5400)
    assert abs(float(bound) - 0.0111) < 5e-4


def test_minute_error_bound_exact_is_zero():
    season = SeasonDataset(
        matches=(MatchRecord(1, "A", "B", (GoalEvent(Side.HOME, 61, TimePrecision.EXACT),)),)
    )
    assert minute_error_bound(season) == 0


def test_minute_error_bound_is_worst_match_sum():
    one = MatchRecord(
        1, "A", "B",
        (
            GoalEvent(Side.HOME, 60, TimePrecision.MINUTE_TRUNCATED),
            GoalEvent(Side.AWAY, 120, TimePrecision.MINUTE_TRUNCATED),
        ),
    )
    two = MatchRecord(1, "C", "D", (GoalEvent(Side.HOME, 60, TimePrecision.MINUTE_ROUNDED),))
    season = SeasonDataset(matches=(one, two))
    assert minute_error_bound(season) == 2 * Fraction(118, 5400)


# Where a goal recorded at a whole minute may truly have fallen, in seconds
# from the recorded time.
_TRUE_OFFSET_S = {
    TimePrecision.MINUTE_TRUNCATED: (0, 59),
    TimePrecision.MINUTE_ROUNDED: (-30, 29),
}


@st.composite
def recorded_and_true_matches(draw):
    """A match of one to three minute-precision goals, and the same goals at true times.

    Minutes run past 90' and no length is declared, so a late last goal moves
    the match length along with its true time.
    """
    minutes = draw(st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True))
    # One source times every goal of a match, so true times keep their order.
    precision = draw(st.sampled_from(list(_TRUE_OFFSET_S)))
    recorded, true = [], []
    for minute in sorted(minutes):
        side = draw(st.sampled_from(Side))
        lo, hi = _TRUE_OFFSET_S[precision]
        # The ends of the slack are where a lone goal meets the bound exactly.
        offset = draw(st.sampled_from((lo, hi)) | st.integers(lo, hi))
        recorded.append(GoalEvent(side, minute * SECONDS_PER_MINUTE, precision))
        true.append(GoalEvent(side, minute * SECONDS_PER_MINUTE + offset))
    return MatchRecord(1, "A", "B", tuple(recorded)), MatchRecord(1, "A", "B", tuple(true))


@given(recorded_and_true_matches())
@settings(max_examples=300)
def test_minute_error_bound_covers_every_true_goal_time(matches):
    recorded, true = matches
    bound = minute_error_bound(SeasonDataset(matches=(recorded,)))
    for system in (ScoringSystem.TIME, ScoringSystem.MIXED_HALF, ScoringSystem.GOALDIFF_THIRD):
        shown, actual = paper_match_awards(recorded, system), paper_match_awards(true, system)
        assert abs(shown[0] - actual[0]) <= bound
        assert abs(shown[1] - actual[1]) <= bound


_GOAL = GoalEvent(Side.HOME, 600, TimePrecision.EXACT)
_MATCH = MatchRecord(1, "Alpha", "Beta", (_GOAL,), 5700)


@pytest.mark.parametrize(
    "cls,fields,values,other",
    [
        (GoalEvent, ("side", "time_s", "precision"), (Side.HOME, 600, TimePrecision.EXACT),
         (Side.AWAY, 600, TimePrecision.EXACT)),
        (MatchRecord, ("round", "home", "away", "goals", "declared_length_s"),
         (1, "Alpha", "Beta", (_GOAL,), 5700), (1, "Alpha", "Beta", (_GOAL,), None)),
        (SeasonDataset, ("league_name", "matches"), ("L", (_MATCH,)), ("M", (_MATCH,))),
        (WeightTriple, ("alpha_w", "alpha_d", "alpha_l"),
         (Fraction(3), Fraction(1), Fraction(0)), (Fraction(2), Fraction(1), Fraction(0))),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_records_are_immutable_values(cls, fields, values, other):
    record = cls(*values)
    for name, value in zip(fields, values):
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(*other)
    assert record != values and values != record
