import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clirun import run_cli
from matchgen import declared_lengths, goal_entries, record_from_entries, team_names
from reference import paper_match_awards
from timescore.display import csv_text
from timescore.errors import (
    DuplicateFixtureError,
    EmptySeasonError,
    MalformedRowError,
    NonContiguousRoundsError,
    NonMonotonicGoalsError,
)
from timescore.ingest import (
    CSV_HEADER,
    SECONDS_PER_MINUTE,
    MatchRecord,
    SeasonDataset,
    minute_error_bound,
    parse_goal_token,
    parse_season,
)
from timescore.scoring import ScoringSystem, WeightTriple

HEADER = "round,home,away,goals,length_min\n"


def test_parse_basic_row():
    csv_text = HEADER + '1,Leicester,Sunderland,"H:52,H:71",\n'
    season = parse_season(csv_text)
    assert len(season.matches) == 1
    match = season.matches[0]
    assert match.round == 1
    assert match.home == "Leicester"
    assert match.away == "Sunderland"
    # Home goals are positive times; two truncated minutes hide up to 59 s each.
    assert match.goals == (3120, 4260)
    assert match.slack_s == 2 * 59
    assert match.declared_length_s is None


def test_stoppage_token_is_absolute_minute():
    # An away goal is its time negated.
    assert parse_goal_token("A:90+5") == -95 * 60


def test_stoppage_token_equals_plain_absolute_token():
    assert parse_goal_token("H:45+2") == parse_goal_token("H:47") == 47 * 60


def test_goalless_match_is_valid():
    season = parse_season(HEADER + "1,Alpha,Beta,,\n")
    assert season.matches[0].goals == ()
    assert season.matches[0].slack_s == 0


def _goal_objects(goals, precision: str) -> list[dict]:
    """Signed goal times as JSON goal objects of one precision."""
    return [
        {"side": "H" if goal > 0 else "A", "time_s": abs(goal), "precision": precision}
        for goal in goals
    ]


def test_minute_tokens_are_truncated_and_goal_objects_state_rounding():
    # A minute token is always a truncated minute; a source that rounds says
    # so on each goal object.
    tokens = parse_season(HEADER + '1,Alpha,Beta,"H:10,A:20",\n').matches[0]
    assert tokens.slack_s == 2 * 59
    goals = _goal_objects(tokens.goals, "minute_rounded")
    doc = {"matches": [{"round": 1, "home": "Alpha", "away": "Beta", "goals": goals}]}
    rounded = parse_season(json.dumps(doc)).matches[0]
    assert rounded.goals == tokens.goals == (600, -1200)
    assert rounded.slack_s == 2 * 30


def test_declared_length_minutes_scaled_to_seconds():
    season = parse_season(HEADER + '1,Alpha,Beta,"H:90+5",96\n')
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
        parse_season(HEADER + row + "\n")
    assert "MALFORMED_ROW" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_bad_token_after_valid_rows_reports_its_line():
    # The parser reuses the goal of a token it has seen; a new bad token
    # on a later row must still fail with that row's line.
    text = HEADER + (
        '1,Alpha,Beta,"H:10,A:20",\n'
        '1,Gamma,Delta,"H:10,A:20",\n'
        '2,Beta,Alpha,"H:10",\n'
        '2,Delta,Gamma,"H:10,A:20,H:3O",\n'
    )
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(text)
    assert "H:3O" in str(excinfo.value)
    assert "line 5" in str(excinfo.value)


def test_signed_and_padded_integers_still_parse():
    season = parse_season(HEADER + " +1 ,Alpha,Beta,H:52, 95 \n")
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
    st.sampled_from([("minute_truncated", 59), ("minute_rounded", 30)]),
)
@settings(max_examples=60, deadline=None)
def test_parsed_goals_equal_each_token_parsed_alone(fields, precision):
    # Minutes repeat across rows (and so do whole tokens), so parsed goals are shared.
    rows = [f'1,Home{i},Away{i},"{",".join(tokens)}",' for i, tokens in enumerate(fields)]
    season = parse_season(HEADER + "\n".join(rows) + "\n")
    goals = [tuple(parse_goal_token(token) for token in tokens) for tokens in fields]
    assert [match.goals for match in season.matches] == goals
    assert [match.slack_s for match in season.matches] == [59 * len(tokens) for tokens in fields]
    # The same goals as goal objects of either minute precision.
    name, slack = precision
    doc = {"matches": [
        {"round": 1, "home": f"Home{i}", "away": f"Away{i}", "goals": _goal_objects(g, name)}
        for i, g in enumerate(goals)
    ]}
    objects = parse_season(json.dumps(doc))
    assert [match.goals for match in objects.matches] == goals
    assert [match.slack_s for match in objects.matches] == [slack * len(g) for g in goals]


@st.composite
def _padded_fixtures(draw):
    """A double round robin of 3 to 6 teams, one fixture per round, with goals and a length.

    Each team has one to three raw texts, its name padded by drawn spaces and
    tabs at either end, and each fixture writes one of them: raw texts repeat,
    and several map to one team.
    """
    teams = draw(st.integers(3, 6).flatmap(team_names))
    pad = st.sampled_from(["", " ", "\t", " \t"])
    texts = st.lists(st.tuples(pad, pad), min_size=1, max_size=3)
    raw = {team: [left + team + right for left, right in draw(texts)] for team in teams}
    pairs = [(home, away) for home in teams for away in teams if home != away]
    fixtures = []
    for round_no, pair in enumerate(draw(st.permutations(pairs)), start=1):
        home, away = (draw(st.sampled_from(raw[team])) for team in pair)
        entries = draw(goal_entries(max_goals=4))
        fixtures.append((round_no, home, away, entries, draw(declared_lengths(entries))))
    return fixtures


@given(_padded_fixtures())
@settings(max_examples=60, deadline=None)
def test_parsed_records_equal_records_built_from_each_row(fixtures):
    # The CSV holds the goals rounded up to whole minutes, one goal per minute,
    # and the length rounded up to a whole minute.
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    built = []
    for round_no, home, away, entries, declared in fixtures:
        minutes = {}
        for g in entries:
            minutes.setdefault(-(-g["time_s"] // 60), g["side"])
        tokens = [f"{side}:{minute}" for minute, side in minutes.items()]
        length = "" if declared is None else str(-(-declared // 60))
        writer.writerow([round_no, home, away, ",".join(tokens), length])
        built.append(MatchRecord(
            round_no, home, away, tuple(map(parse_goal_token, tokens)),
            int(length) * 60 if length else None, 59 * len(tokens),
        ))
    assert parse_season(out.getvalue()).matches == tuple(built)
    doc = {"matches": []}
    built = []
    for round_no, home, away, entries, declared in fixtures:
        match = {"round": round_no, "home": home, "away": away, "goals": entries}
        if declared is not None:
            match["length_s"] = declared
        doc["matches"].append(match)
        record = record_from_entries(entries)
        built.append(MatchRecord(round_no, home, away, record.goals, declared, record.slack_s))
    assert parse_season(json.dumps(doc)).matches == tuple(built)


def test_wrong_header_rejected():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season("a,b,c\n1,Alpha,Beta,,\n")
    assert "line 1" in str(excinfo.value)


def test_duplicate_fixture_rejected():
    text = HEADER + "1,Alpha,Beta,,\n2,Alpha,Beta,,\n"
    with pytest.raises(DuplicateFixtureError):
        parse_season(text)


def test_reversed_fixture_is_not_a_duplicate():
    text = HEADER + "1,Alpha,Beta,,\n2,Beta,Alpha,,\n"
    assert len(parse_season(text).matches) == 2


def test_nonmonotonic_goals_rejected():
    with pytest.raises(NonMonotonicGoalsError):
        parse_season(HEADER + '1,Alpha,Beta,"H:20,A:10",\n')


def test_same_second_goals_rejected():
    with pytest.raises(NonMonotonicGoalsError):
        MatchRecord(1, "Alpha", "Beta", (100, -100))


@pytest.mark.parametrize(
    "goals,error",
    [
        ((0,), "MALFORMED_ROW: goal time must be at least 1 second, got 0"),
        ((60, -18001), "MALFORMED_ROW: goal time is past the longest allowed match (18000 s)"),
        ((600, -300, 0), "NONMONOTONIC_GOALS: goal times must strictly increase, got 600 s"
         " followed by 300 s"),
        ((600, 18001, -300), "MALFORMED_ROW: goal time is past the longest allowed match"
         " (18000 s)"),
    ],
    ids=["zero", "past_300", "disorder_first", "range_first"],
)
def test_match_record_reports_its_first_bad_goal(goals, error):
    # Signed goals: the sign is the side, so a time is out of range at 0 or past 300'.
    with pytest.raises((MalformedRowError, NonMonotonicGoalsError)) as excinfo:
        MatchRecord(1, "Alpha", "Beta", goals)
    assert str(excinfo.value) == error


@pytest.mark.parametrize(
    "names", [("\ud800x", "Beta"), ("Alpha", "B\udfff")], ids=["home", "away"]
)
def test_match_record_rejects_a_lone_surrogate_in_a_name(names):
    # UTF-8 cannot encode a lone surrogate, so no report file could hold the name.
    with pytest.raises(MalformedRowError) as excinfo:
        MatchRecord(1, *names)
    bad = next(name for name in names if not name.isascii())
    assert str(excinfo.value) == (
        f"MALFORMED_ROW: team names must not contain a lone surrogate, got {bad!r}"
    )


def test_match_record_keeps_names_outside_ascii():
    # A surrogate pair in JSON is one character, so only a lone surrogate fails.
    assert MatchRecord(1, "Z\u00fcrich", "\U0001F600").away == "\U0001F600"
    doc = '{"matches": [{"round": 1, "home": "Z\\u00fcrich", "away": "\\ud83d\\ude00"}]}'
    assert parse_season(doc).matches[0].away == "\U0001F600"


def test_noncontiguous_rounds_rejected():
    with pytest.raises(NonContiguousRoundsError):
        parse_season(HEADER + "1,Alpha,Beta,,\n3,Beta,Alpha,,\n")


def test_json_behind_a_bom_and_blank_lines_parses_as_json():
    doc = '\ufeff\n  \n\t{"league": "L", "matches": [{"round": 1, "home": "A", "away": "B"}]}'
    for data in (doc, doc.encode("utf-8")):
        season = parse_season(data)
        assert season.league_name == "L"
        assert [(m.home, m.away) for m in season.matches] == [("A", "B")]


def test_top_level_json_array_is_not_a_season():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(" []")
    assert str(excinfo.value) == (
        'MALFORMED_ROW: top level must be an object with a "matches" list'
    )


def test_json_scalar_is_read_as_csv_and_fails_at_its_header():
    # Only text that opens with "{" or "[" goes to the JSON parser.
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season("null\n")
    assert excinfo.value.line == 1
    assert str(excinfo.value).startswith(
        "MALFORMED_ROW: expected header 'round,home,away,goals,length_min', got 'null'"
    )


def test_empty_file_rejected():
    with pytest.raises(EmptySeasonError):
        parse_season("")
    with pytest.raises(EmptySeasonError):
        parse_season(b"  \n \n")


def test_header_only_file_is_an_empty_season():
    season = parse_season(HEADER)
    assert season.matches == ()


def test_no_rows_silently_dropped():
    text = HEADER + "1,Alpha,Beta,,\n\n2,Beta,Alpha,,\n\n"
    data_rows = [
        line for line in text.splitlines()[1:] if line.strip()
    ]
    season = parse_season(text)
    assert len(season.matches) == len(data_rows)


def test_crlf_and_bom_tolerated():
    text = "﻿" + HEADER.rstrip("\n") + "\r\n" + '1,Alpha,Beta,"H:10",\r\n'
    season = parse_season(text.encode("utf-8"))
    assert season.matches[0].goals == (600,)


def test_text_and_bytes_drop_one_bom_alike():
    text = HEADER + "1,Alpha,Beta,H:10,\n"
    for data in ("\ufeff" + text, ("\ufeff" + text).encode("utf-8")):
        assert parse_season(data).matches[0].goals == (600,)
    # A second BOM is part of the header, whichever type the content has.
    errors = []
    for data in ("\ufeff\ufeff" + text, ("\ufeff\ufeff" + text).encode("utf-8")):
        with pytest.raises(MalformedRowError) as excinfo:
            parse_season(data)
        errors.append(str(excinfo.value))
    assert errors == 2 * [
        "MALFORMED_ROW: expected header 'round,home,away,goals,length_min', got"
        " '\\ufeffround,home,away,goals,length_min' (line 1)"
    ]


def test_csv_round_trip_identical():
    text = (
        HEADER
        + '1,Alpha,Beta,"H:12,A:45+1,H:90+4",\n'
        + "1,Gamma,Delta,,\n"
        + '2,Beta,Alpha,"A:77",95\n'
        + '2,Delta,Gamma,"H:3",\n'
    )
    # The same season spelled as JSON token strings.
    matches = [
        {"round": 1, "home": "Alpha", "away": "Beta", "goals": ["H:12", "A:45+1", "H:90+4"]},
        {"round": 1, "home": "Gamma", "away": "Delta"},
        {"round": 2, "home": "Beta", "away": "Alpha", "goals": ["A:77"], "length_min": 95},
        {"round": 2, "home": "Delta", "away": "Gamma", "goals": ["H:3"]},
    ]
    season = parse_season(text)
    assert parse_season(json.dumps({"matches": matches})) == season
    assert [m.slack_s for m in season.matches] == [3 * 59, 0, 59, 59]
    # Rounded minutes are goal objects; they differ from the tokens only in slack.
    for match, parsed in zip(matches, season.matches):
        match["goals"] = _goal_objects(parsed.goals, "minute_rounded")
    rounded = parse_season(json.dumps({"matches": matches}))
    assert [m.goals for m in rounded.matches] == [m.goals for m in season.matches]
    assert [m.slack_s for m in rounded.matches] == [3 * 30, 0, 30, 30]


def test_csv_round_trip_keeps_team_names_that_need_quoting():
    names = ("Alpha, FC", 'Beta "B"', "Gam\nma", "Delta\r2")
    fixtures = [
        (round_no, home, away)
        for round_no, (home, away) in enumerate(zip(names, names[1:] + names[:1]), start=1)
    ]
    rows = [CSV_HEADER, *((str(r), home, away, "H:10", "") for r, home, away in fixtures)]
    season = SeasonDataset(
        matches=tuple(MatchRecord(r, home, away, (600,), None, 59) for r, home, away in fixtures)
    )
    assert parse_season(csv_text(list(zip(*rows)))) == season


def test_json_round_trip_identical_with_exact_times():
    season = SeasonDataset(
        league_name="Exact League",
        matches=(
            MatchRecord(1, "Alpha", "Beta", (725, -5403), declared_length_s=5403),
            MatchRecord(1, "Gamma", "Delta", ()),
        ),
    )
    doc = {
        "league": "Exact League",
        "matches": [
            {
                "round": 1,
                "home": "Alpha",
                "away": "Beta",
                "goals": [
                    {"side": "H", "time_s": 725, "precision": "exact"},
                    {"side": "A", "time_s": 5403, "precision": "exact"},
                ],
                "length_s": 5403,
            },
            {"round": 1, "home": "Gamma", "away": "Delta", "goals": []},
        ],
    }
    assert parse_season(json.dumps(doc)) == season


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
    season = parse_season(doc)
    assert season.matches[0].goals == (3120, -5403)
    assert season.matches[0].slack_s == 59 + 0


@pytest.mark.parametrize(
    "field,value",
    [("round", 1.5), ("round", True), ("length_min", 95.5), ("goals", ["H:\u0665\u0662"])],
)
def test_json_rejects_non_integer_numbers(field, value):
    obj = {"round": 1, "home": "A", "away": "B", "goals": []}
    obj[field] = value
    with pytest.raises(MalformedRowError):
        parse_season(json.dumps({"matches": [obj]}))


def test_json_rejects_fractional_goal_time():
    doc = (
        '{"matches": [{"round": 1, "home": "A", "away": "B",'
        ' "goals": [{"side": "H", "time_s": 10.5}]}]}'
    )
    with pytest.raises(MalformedRowError):
        parse_season(doc)


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
    assert parse_season(_json_match(longest)).matches
    with pytest.raises(MalformedRowError):
        parse_season(_json_match(too_long))


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
        parse_season(_json_match(f'"goals": [{{"side": "H", "time_s": 30}}, {goal}]'))
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
        parse_season(_json_match(f'"goals": {goals}'))
    assert str(excinfo.value) == f"MALFORMED_ROW: match 1: goals must be a list, got {shown}"


def test_json_match_without_goals_is_goalless():
    assert parse_season(_json_match('"length_s": 5400')).matches[0].goals == ()


def test_json_integer_too_long_to_convert_is_malformed():
    with pytest.raises(MalformedRowError):
        parse_season(_json_match('"length_s": 1' + "0" * 5000))


def test_json_rejects_both_length_keys():
    doc = (
        '{"matches": [{"round": 1, "home": "A", "away": "B", "goals": [],'
        ' "length_min": 95, "length_s": 5700}]}'
    )
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(doc)
    assert str(excinfo.value) == "MALFORMED_ROW: match 1: give length_min or length_s, not both"


def test_json_non_integer_length_names_the_field():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season(_json_match('"length_min": 95.5'))
    assert str(excinfo.value) == "MALFORMED_ROW: match 1: length_min must be an integer, got 95.5"


def test_json_syntax_error_reports_line():
    with pytest.raises(MalformedRowError) as excinfo:
        parse_season('{"matches": [\n  {bad}\n]}')
    assert excinfo.value.line == 2


def test_team_names_trimmed():
    season = parse_season(HEADER + "1,  Alpha ,Beta,,\n")
    assert season.matches[0].home == "Alpha"
    assert season.teams == ("Alpha", "Beta")


def test_minute_error_bound_truncated():
    season = SeasonDataset(
        matches=(
            MatchRecord(1, "A", "B", (60,), slack_s=59),
        )
    )
    bound = minute_error_bound(season)
    assert bound == (118, 5400)
    assert abs(bound[0] / bound[1] - 0.0219) < 5e-4


def test_minute_error_bound_rounded():
    season = SeasonDataset(
        matches=(
            MatchRecord(1, "A", "B", (60,), slack_s=30),
        )
    )
    bound = minute_error_bound(season)
    assert bound == (60, 5400)
    assert abs(bound[0] / bound[1] - 0.0111) < 5e-4


def test_minute_error_bound_exact_is_zero():
    season = SeasonDataset(
        matches=(MatchRecord(1, "A", "B", (61,), slack_s=0),)
    )
    assert Fraction(*minute_error_bound(season)) == 0


def test_minute_error_bound_is_worst_match_sum():
    one = MatchRecord(1, "A", "B", (60, -120), slack_s=2 * 59)
    two = MatchRecord(1, "C", "D", (60,), slack_s=30)
    season = SeasonDataset(matches=(one, two))
    assert Fraction(*minute_error_bound(season)) == 2 * Fraction(118, 5400)


# Where a goal recorded at a whole minute may truly have fallen, in seconds
# from the recorded time.
_TRUE_OFFSET_S = {
    "minute_truncated": (0, 59),
    "minute_rounded": (-30, 29),
}


@st.composite
def recorded_and_true_matches(draw):
    """A parsed match of one to three minute-precision goals, the same goals at true
    times, and the most seconds each goal's true time is off its recorded one.

    Minutes run past 90' and no length is declared, so a late last goal moves
    the match length along with its true time.
    """
    minutes = draw(st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True))
    # One source times every goal of a match, so true times keep their order.
    precision = draw(st.sampled_from(list(_TRUE_OFFSET_S)))
    lo, hi = _TRUE_OFFSET_S[precision]
    recorded, true = [], []
    for minute in sorted(minutes):
        side = draw(st.sampled_from("HA"))
        # The ends of the slack are where a lone goal meets the bound exactly.
        offset = draw(st.sampled_from((lo, hi)) | st.integers(lo, hi))
        time_s = minute * SECONDS_PER_MINUTE
        recorded.append({"side": side, "time_s": time_s, "precision": precision})
        true.append((time_s + offset) * (1 if side == "H" else -1))
    doc = {"matches": [{"round": 1, "home": "A", "away": "B", "goals": recorded}]}
    (parsed,) = parse_season(json.dumps(doc)).matches
    shifts = [max(-lo, hi)] * len(minutes)
    return parsed, MatchRecord(1, "A", "B", tuple(true)), shifts


@given(recorded_and_true_matches())
@settings(max_examples=300)
def test_minute_error_bound_covers_every_true_goal_time(matches):
    recorded, true, shifts = matches
    # The bound is linear in each goal's shift, so its per-match input is the sum.
    assert recorded.slack_s == sum(shifts)
    bound = Fraction(*minute_error_bound(SeasonDataset(matches=(recorded,))))
    for system in (ScoringSystem.TIME, ScoringSystem.MIXED_HALF, ScoringSystem.GOALDIFF_THIRD):
        shown, actual = paper_match_awards(recorded, system), paper_match_awards(true, system)
        assert abs(shown[0] - actual[0]) <= bound
        assert abs(shown[1] - actual[1]) <= bound


_MATCH = MatchRecord(1, "Alpha", "Beta", (600,), 5700)
_MATCH_FIELDS = ("round", "home", "away", "goals", "declared_length_s", "slack_s")


@pytest.mark.parametrize(
    "cls,fields,values,other",
    [
        (MatchRecord, _MATCH_FIELDS,
         (1, "Alpha", "Beta", (600, -700), 5700, 59), (1, "Alpha", "Beta", (600, -700), 5700, 30)),
        (MatchRecord, _MATCH_FIELDS,
         (1, "Alpha", "Beta", (600,), 5700, 0), (1, "Alpha", "Beta", (600,), None, 0)),
        (SeasonDataset, ("league_name", "matches"), ("L", (_MATCH,)), ("M", (_MATCH,))),
        (WeightTriple, ("alpha_w", "alpha_d", "alpha_l", "scale"), (6, 2, 1, 4), (2, 1, 0, 1)),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_records_are_immutable_values(cls, fields, values, other):
    record = cls(*values)
    for name, value in zip(fields, values):
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(*other)
    assert record != values and values != record
    with pytest.raises(TypeError):
        record < twin


def _csv_season(row: str) -> str:
    return HEADER + "1,Gamma,Delta,,\n" + row + "\n"


def _json_season(match: str) -> str:
    return '{"matches": [\n{"round": 1, "home": "Gamma", "away": "Delta"},\n' + match + "\n]}"


def _json_goals(goals: str, extra: str = "") -> str:
    return _json_season(
        '{"round": 1, "home": "A", "away": "B", "goals": [' + goals + "]" + extra + "}"
    )


# One season file per fault, and the exact line the CLI prints for it. A CSV
# row fault sits on line 3 and a CSV header fault on line 1; a JSON fault is
# match 2, and the text carries no line. The last cases hold two faults each:
# which one is reported pins the order of the checks.
_FAULTS = [
    # A header the csv module rejects: one field past its 131,072-character limit.
    ("csv_huge_header_field", "round,home,away,goals," + "x" * 131073 + "\n1,A,B,,\n",
     "MALFORMED_ROW: bad CSV line: field larger than field limit (131072) (line 1)"),
    ("csv_bad_token", _csv_season("1,A,B,H:xx,"),
     "MALFORMED_ROW: bad goal token 'H:xx' (line 3)"),
    ("json_bad_token", _json_goals('"H:1x"'),
     "MALFORMED_ROW: match 2: bad goal token 'H:1x'"),
    ("json_number_goal", _json_goals("5"),
     "MALFORMED_ROW: match 2: goal entry must be a token string or object, got 5"),
    ("csv_round_zero", _csv_season("0,A,B,,"),
     "MALFORMED_ROW: round must be a positive integer, got 0 (line 3)"),
    ("json_match_not_object", _json_season("5"),
     "MALFORMED_ROW: match 2: match entry must be an object"),
    ("json_league_not_string",
     '{"league": 5, "matches": [{"round": 1, "home": "A", "away": "B"}]}',
     'MALFORMED_ROW: "league" must be a string'),
    ("csv_goal_at_zero", _csv_season("1,A,B,A:0,"),
     "MALFORMED_ROW: goal time must be at least 1 second, got 0 (line 3)"),
    ("json_goal_at_zero", _json_goals('{"side": "A", "time_s": 0}'),
     "MALFORMED_ROW: match 2: goal time must be at least 1 second, got 0"),
    ("json_negative_goal", _json_goals('{"side": "H", "time_s": -5}'),
     "MALFORMED_ROW: match 2: goal time must be at least 1 second, got -5"),
    ("csv_goal_past_300", _csv_season('1,A,B,"H:10,A:300+1",'),
     "MALFORMED_ROW: goal time is past the longest allowed match (18000 s) (line 3)"),
    ("json_goal_past_300", _json_goals('{"side": "H", "time_s": 18001}'),
     "MALFORMED_ROW: match 2: goal time is past the longest allowed match (18000 s)"),
    ("csv_nonmonotonic", _csv_season('1,A,B,"H:20,A:10",'),
     "NONMONOTONIC_GOALS: goal times must strictly increase, got 1200 s followed by 600 s"
     " (line 3)"),
    ("json_same_second", _json_goals('"H:10", {"side": "A", "time_s": 600}'),
     "NONMONOTONIC_GOALS: match 2: goal times must strictly increase, got 600 s followed"
     " by 600 s"),
    ("json_bad_side", _json_goals('{"side": "h", "time_s": 60}'),
     "MALFORMED_ROW: match 2: bad goal object {'side': 'h', 'time_s': 60}:"
     " 'h' is not a valid Side"),
    ("json_unhashable_side", _json_goals('{"side": {}, "time_s": 60}'),
     "MALFORMED_ROW: match 2: bad goal object {'side': {}, 'time_s': 60}:"
     " {} is not a valid Side"),
    ("json_bad_precision", _json_goals('{"side": "H", "time_s": 60, "precision": "minute"}'),
     "MALFORMED_ROW: match 2: bad goal object {'side': 'H', 'time_s': 60, 'precision':"
     " 'minute'}: 'minute' is not a valid TimePrecision"),
    ("json_unhashable_precision",
     _json_goals('{"side": "H", "time_s": 60, "precision": ["exact"]}'),
     "MALFORMED_ROW: match 2: bad goal object {'side': 'H', 'time_s': 60, 'precision':"
     " ['exact']}: ['exact'] is not a valid TimePrecision"),
    ("json_float_time", _json_goals('{"side": "H", "time_s": 60.0}'),
     "MALFORMED_ROW: match 2: goal time_s must be an integer, got 60.0"),
    ("json_string_time", _json_goals('{"side": "H", "time_s": "60"}'),
     "MALFORMED_ROW: match 2: goal time_s must be an integer, got '60'"),
    ("json_both_lengths", _json_goals("", ', "length_min": 95, "length_s": 5700'),
     "MALFORMED_ROW: match 2: give length_min or length_s, not both"),
    ("csv_short_length", _csv_season("1,A,B,,89"),
     "MALFORMED_ROW: declared length 5340 s is shorter than regulation (5400 s) (line 3)"),
    ("json_short_length", _json_goals("", ', "length_s": 5399'),
     "MALFORMED_ROW: match 2: declared length 5399 s is shorter than regulation (5400 s)"),
    ("csv_long_length", _csv_season("1,A,B,,301"),
     "MALFORMED_ROW: declared length is longer than the longest allowed match (18000 s)"
     " (line 3)"),
    ("json_long_length", _json_goals("", ', "length_s": 18001'),
     "MALFORMED_ROW: match 2: declared length is longer than the longest allowed match"
     " (18000 s)"),
    ("csv_early_length", _csv_season('1,A,B,"H:10,A:95",94'),
     "MALFORMED_ROW: declared length 5640 s precedes the last goal at 5700 s (line 3)"),
    ("json_early_length", _json_goals('{"side": "A", "time_s": 5701}', ', "length_s": 5700'),
     "MALFORMED_ROW: match 2: declared length 5700 s precedes the last goal at 5701 s"),
    ("json_nul_name", _json_season('{"round": 1, "home": "A", "away": "B\\u0000"}'),
     "MALFORMED_ROW: match 2: team names must not contain a NUL character"),
    ("json_lone_surrogate_name", _json_season('{"round": 1, "home": "\\ud800x", "away": "B"}'),
     "MALFORMED_ROW: match 2: team names must not contain a lone surrogate, got '\\ud800x'"),
    ("json_lone_surrogate_league",
     '{"league": "\\ud800L", "matches": [{"round": 1, "home": "A", "away": "B"}]}',
     "MALFORMED_ROW: \"league\" must not contain a lone surrogate, got '\\ud800L'"),
    ("csv_empty_name", _csv_season("1,A, ,,"),
     "MALFORMED_ROW: team names must be non-empty (line 3)"),
    ("json_empty_name", _json_season('{"round": 1, "home": "", "away": "B"}'),
     "MALFORMED_ROW: match 2: team names must be non-empty"),
    ("csv_plays_itself", _csv_season("1,A, A,,"),
     "MALFORMED_ROW: a team cannot play itself: 'A' (line 3)"),
    ("json_plays_itself", _json_season('{"round": 1, "home": "A ", "away": "A"}'),
     "MALFORMED_ROW: match 2: a team cannot play itself: 'A'"),
    # Names whose raw text an earlier valid row already holds: the parser knows
    # them, and still reports each of these faults.
    ("csv_self_play_between_seen_names", _csv_season("1,Gamma ,Eta,,\n2,Gamma,Gamma ,,"),
     "MALFORMED_ROW: a team cannot play itself: 'Gamma' (line 4)"),
    ("csv_empty_name_beside_seen_name", _csv_season("2,Delta, ,,"),
     "MALFORMED_ROW: team names must be non-empty (line 3)"),
    ("json_self_play_between_seen_names", _json_season(
        '{"round": 1, "home": "Gamma ", "away": "Eta"},\n'
        '{"round": 2, "home": "Gamma", "away": "Gamma "}'),
     "MALFORMED_ROW: match 3: a team cannot play itself: 'Gamma'"),
    ("json_nul_name_beside_seen_name",
     _json_season('{"round": 2, "home": "Delta", "away": "Eta\\u0000"}'),
     "MALFORMED_ROW: match 2: team names must not contain a NUL character"),
    ("csv_duplicate_fixture", _csv_season("2,Gamma,Delta,H:1,"),
     "DUPLICATE_FIXTURE: fixture Gamma vs Delta appears more than once"),
    ("json_duplicate_fixture", _json_season('{"round": 2, "home": "Gamma", "away": "Delta"}'),
     "DUPLICATE_FIXTURE: fixture Gamma vs Delta appears more than once"),
    ("csv_round_gap", _csv_season("3,A,B,,"),
     "NONCONTIGUOUS_ROUNDS: round numbers must form a contiguous range starting at 1"),
    ("json_round_gap", _json_season('{"round": 3, "home": "A", "away": "B"}'),
     "NONCONTIGUOUS_ROUNDS: round numbers must form a contiguous range starting at 1"),
    ("json_missing_round", _json_season('{"home": "A", "away": "B"}'),
     "MALFORMED_ROW: match 2: missing field 'round'"),
    ("json_missing_home", _json_season('{"round": 1, "away": "B"}'),
     "MALFORMED_ROW: match 2: missing field 'home'"),
    ("json_missing_away", _json_season('{"round": 1, "home": "A", "goals": ["H:1"]}'),
     "MALFORMED_ROW: match 2: missing field 'away'"),
    ("json_string_round", _json_season('{"round": "x", "home": "A", "away": "B"}'),
     "MALFORMED_ROW: match 2: round must be an integer, got 'x'"),
    ("json_bool_round", _json_season('{"round": true, "home": "A", "away": "B"}'),
     "MALFORMED_ROW: match 2: round must be an integer, got True"),
    ("json_float_round", _json_season('{"round": 1.0, "home": "A", "away": "B"}'),
     "MALFORMED_ROW: match 2: round must be an integer, got 1.0"),
    ("json_number_home", _json_season('{"round": 1, "home": 5, "away": "B"}'),
     "MALFORMED_ROW: match 2: home must be a string, got 5"),
    ("json_null_away", _json_season('{"round": 1, "home": "A", "away": null}'),
     "MALFORMED_ROW: match 2: away must be a string, got None"),
    # Two faults: a goal time out of range wins over the order of the goals,
    # the round, the names, the length and a later bad goal object; a bad goal
    # object wins over the order of earlier goals; the names win over the order
    # of the goals, and the order wins over the declared length.
    ("csv_zero_after_later_goal", _csv_season('0,A,A,"H:10,H:0",80'),
     "MALFORMED_ROW: goal time must be at least 1 second, got 0 (line 3)"),
    ("csv_past_300_after_disorder", _csv_season('1,A,B,"H:20,H:10,A:301",'),
     "MALFORMED_ROW: goal time is past the longest allowed match (18000 s) (line 3)"),
    ("json_zero_before_bad_side",
     _json_goals('{"side": "H", "time_s": 10}, {"side": "H", "time_s": 0}, {"side": "X"}'),
     "MALFORMED_ROW: match 2: goal time must be at least 1 second, got 0"),
    ("json_zero_before_bad_round",
     _json_season('{"round": "x", "home": "A", "away": "B", "goals": ["H:0"]}'),
     "MALFORMED_ROW: match 2: goal time must be at least 1 second, got 0"),
    ("json_disorder_before_bad_side",
     _json_goals('{"side": "H", "time_s": 20}, {"side": "H", "time_s": 10}, {"side": "X"}'),
     "MALFORMED_ROW: match 2: bad goal object {'side': 'X'}: 'X' is not a valid Side"),
    ("csv_disorder_before_early_length", _csv_season('1,A,B,"H:95,A:94",92'),
     "NONMONOTONIC_GOALS: goal times must strictly increase, got 5700 s followed by 5640 s"
     " (line 3)"),
    ("json_disorder_before_nul_name",
     _json_season('{"round": 1, "home": "A", "away": "B\\u0000", "goals": ["H:2", "A:1"]}'),
     "MALFORMED_ROW: match 2: team names must not contain a NUL character"),
    ("csv_self_play_before_disorder", _csv_season('1,A,A,"H:20,H:10",'),
     "MALFORMED_ROW: a team cannot play itself: 'A' (line 3)"),
    # The fields of a JSON match are read and checked in the order round, home,
    # away: a bad round wins over a missing home, and a bad home over a missing away.
    ("json_bad_round_before_missing_home", _json_season('{"round": "x", "away": "B"}'),
     "MALFORMED_ROW: match 2: round must be an integer, got 'x'"),
    ("json_bad_home_before_missing_away", _json_season('{"round": 1, "home": 5}'),
     "MALFORMED_ROW: match 2: home must be a string, got 5"),
    # Two duplicated pairs: the one repeated first in file order is named, not
    # the one seen first (Gamma vs Delta, on line 2).
    ("csv_two_duplicates", _csv_season("1,Zeta,Eta,,\n2,Zeta,Eta,,\n2,Gamma,Delta,,"),
     "DUPLICATE_FIXTURE: fixture Zeta vs Eta appears more than once"),
    ("json_two_duplicates", _json_season(
        '{"round": 1, "home": "Zeta", "away": "Eta"},\n{"round": 2, "home": "Zeta", "away":'
        ' "Eta"},\n{"round": 2, "home": "Gamma", "away": "Delta"}'),
     "DUPLICATE_FIXTURE: fixture Zeta vs Eta appears more than once"),
]


@pytest.mark.parametrize(
    "season,line", [case[1:] for case in _FAULTS], ids=[case[0] for case in _FAULTS]
)
def test_each_fault_exits_one_with_its_error_line(tmp_path, season, line):
    path = tmp_path / "season"
    path.write_text(season, encoding="utf-8")
    result = run_cli(["table", "--input", str(path), "--out", str(tmp_path / "out")])
    assert (result.exit_code, result.stderr) == (1, f"error: {line}\n")
    assert not (tmp_path / "out").exists()
