import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clirun import run_cli
from timescore.cli import _csv_text
from timescore.display import format_decimal
from timescore.indicators import indicator_bundle
from timescore.ingest import MAX_MATCH_LENGTH_S, parse_season
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger
from timescore.synthetic import double_round_robin

ROOT = Path(__file__).resolve().parent.parent
SEASON_CSV = ROOT / "data" / "synthetic_season.csv"
SEASON_JSON = ROOT / "data" / "synthetic_season.json"
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "table": ["table.csv"],
    "evolution": ["evolution_classic.csv", "evolution_time.csv"],
    "indicators": ["indicators.csv", "indicators.json"],
    "ecdf": ["ecdf_classic.csv", "ecdf_time.csv"],
}
COMMANDS["report"] = [name for names in COMMANDS.values() for name in names]


def _invoke(command, out_dir, *extra, season=SEASON_CSV):
    return run_cli([command, "--input", str(season), "--out", str(out_dir), *extra])


@pytest.mark.parametrize("command,filenames", COMMANDS.items())
def test_commands_match_goldens_and_rerun_identically(
    tmp_path, command, filenames
):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        result = _invoke(command, out_dir)
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [str(out_dir / name) for name in filenames]
    assert sorted(p.name for p in first.iterdir()) == sorted(filenames)
    for name in filenames:
        once = (first / name).read_bytes()
        again = (second / name).read_bytes()
        assert once == again
        assert once == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["league60_minute", "league60_exact"])
def test_sixty_team_reports_match_the_benchmark_digests(tmp_path, monkeypatch, name):
    # The benchmark's 60-team seasons at the seed whose input and output
    # digests bench/expected.json records; this reads bench/ and writes nothing there.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import FULL_TEAMS, WORKLOADS, season_bytes

    expected = json.loads((ROOT / "bench" / "expected.json").read_text())[name]
    workload = WORKLOADS[name]
    data = season_bytes(workload.kind, 1, FULL_TEAMS)
    assert hashlib.sha256(data).hexdigest() == expected["input_sha256"]
    season = tmp_path / ("season.csv" if workload.kind == "minute" else "season.json")
    season.write_bytes(data)
    out_dir = tmp_path / "out"
    result = _invoke("report", out_dir, *workload.flags, season=season)
    assert result.exit_code == 0, result.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == expected["outputs"]


# The bundled season's report bytes under flags the goldens do not cover: every
# system, fractional weights, three decimals with a comma (quoted cells), and
# zero decimals.
PINNED_FLAG_DIGESTS = {
    "--systems classic,time,mixed,goaldiff --weights 3,1/2,0 --decimals 3 --decimal-comma": {
        "ecdf_classic.csv": "0496f5cf17633a1eb0008763fcbd75539828b239d656bd39362cf15b0a8b27d9",
        "ecdf_goaldiff.csv": "d0a81e3e0adc2135775f62f7dd74a680f120ee22245a95f56572db2d185cbaa0",
        "ecdf_mixed.csv": "2d0ecc1b73b36f77db7cae031c3f356cdf226cb94211e271813cff8237f89008",
        "ecdf_time.csv": "059f65dc33ed4cd73cf33178cdca9c38b7cfd9b114081223d3b22066273fa65f",
        "evolution_classic.csv": "33959c5ca2f403384522f167836605ba457b0c245447fe9f9f18b68531a58455",
        "evolution_goaldiff.csv": "001b2616b14c1e52108f692e21947af4da536342bd4183658814465cb9367c68",
        "evolution_mixed.csv": "59ff2ce105701d7ff0179c46dbb6308b84f74c7f479af08adfef265e6e00b84f",
        "evolution_time.csv": "cfac6589673712adaf30ef66c120331484d807ec8538760540e22568fe8e52f9",
        "indicators.csv": "43d286ec5c8096169034e2f5d61e79577bfdce29a7e946ad80630c7474303a2e",
        "indicators.json": "6404e622d59b1d49773db622a9c0b7b97a5c7daf28d495e69bef015daf9d15d0",
        "table.csv": "6645f10729846e6fa1027a799d0a35f9e4c18500e3a0f24fca40663b858d7908",
    },
    "--decimals 0": {
        "ecdf_classic.csv": "d3a6f03e34583075adf3f0106f8ddc9d98a0c44efa36db5511ec2200a63713f3",
        "ecdf_time.csv": "a721f39b08151bddf785162073c4bda9c47b06946ab92e57ebc96990cba79e96",
        "evolution_classic.csv": "309e3e895d6129b2624de1939c9979ba33a727e40e427bb3d10fed7d33973e84",
        "evolution_time.csv": "c387d45f488a49f4e719c821f44ac8210ec4ad2214dff0eb4a9901e39caa1056",
        "indicators.csv": "4d9c959580db49b10db8bdb939c0f15c3f05778a1bd9b1e7d396b5405cf7c600",
        "indicators.json": "c3f92bf758c00abcf47f53695107ddbd4466296af2153c50047ae0d387dda516",
        "table.csv": "95a35f8d5adcad368c8b35e3b7f4163d56f43fdf8dc1d7a42fdb588fce9bd50f",
    },
}


@pytest.mark.parametrize("flags", PINNED_FLAG_DIGESTS)
def test_report_bytes_under_non_default_flags_are_pinned(tmp_path, flags):
    result = _invoke("report", tmp_path, *flags.split())
    assert result.exit_code == 0, result.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == PINNED_FLAG_DIGESTS[flags]


# Team names that force CSV quoting: a comma, a double quote, a line feed and a
# carriage return, plus one non-ASCII name that needs none.
AWKWARD_TEAMS = ("Alpha, FC", 'Beta "B"', "Gam\nma", "Delta\r2", "Zéta")
# A single round robin of the five, two matches a round, with goals (side,
# time_s) that give every system distinct, non-round points.
AWKWARD_FIXTURES = (
    (1, 0, 1, [("H", 600), ("A", 4000)]),
    (1, 2, 3, [("A", 1500)]),
    (2, 4, 0, [("H", 300), ("H", 5000)]),
    (2, 1, 2, []),
    (3, 3, 4, [("A", 2700), ("H", 5300)]),
    (3, 0, 2, [("H", 100)]),
    (4, 1, 3, [("A", 3333)]),
    (4, 2, 4, [("H", 45), ("A", 46), ("H", 5399)]),
    (5, 0, 3, []),
    (5, 1, 4, [("H", 2000)]),
)
AWKWARD_DIGESTS = {
    "": {
        "ecdf_classic.csv": "a829dd1e7b56a2805ab53522044eff3de6e21d91971051a3fd701b9bf19d9153",
        "ecdf_time.csv": "f19ff135a0136dff9ea060d5bd81b02a13741c5f94e5d56467da072736a0f618",
        "evolution_classic.csv": "854d4180053ed7abd96c22079aca632169f1c207786bab295d94080e6e60784a",
        "evolution_time.csv": "6d7f2eab8b380079cbb67f3a29281aef1d237ea84704919078fa20b48cf3e802",
        "indicators.csv": "7593f86b9b0a25e8bcfd5d51d7b6406f0a4e910ca6832f6f4995b4f3f57f7645",
        "indicators.json": "7a2a092e0ca64f54a266f5c8d6cf9fb2a72b5d2c21213462dcda4492fd630be3",
        "table.csv": "791cfc68c8de2d1aeba7f7a6548b5ea1c8a3fc9d33920294b0dd42d4131e3b8e",
    },
    "--decimal-comma --decimals 1": {
        "ecdf_classic.csv": "a67bd43e503380d28699d765c74a6335a94d90c9293e874525068bc939b8d762",
        "ecdf_time.csv": "ebed6a3fcba94ca89be42f935f943f2259292c478ea7619015a9185f0573ff95",
        "evolution_classic.csv": "eb500ed0f05338685905722e058da46a9bd9f424f17118f12315e3c84c6eaa45",
        "evolution_time.csv": "ec782d349a3308561d5c73cc18da4b43d9065af342388a2b93aa302c5ee7c90c",
        "indicators.csv": "a18df74c4763e2853a4063997f0b49f16209aa07a6588034e4f7b197b03a04ed",
        "indicators.json": "7a2a092e0ca64f54a266f5c8d6cf9fb2a72b5d2c21213462dcda4492fd630be3",
        "table.csv": "868749178db4a4c3f2e6596a4db0bc264bd67731589a808c4e71c9b158a4b30f",
    },
}


def _awkward_season(path):
    matches = [
        {
            "round": round_no,
            "home": AWKWARD_TEAMS[home],
            "away": AWKWARD_TEAMS[away],
            "goals": [{"side": side, "time_s": time_s} for side, time_s in goals],
        }
        for round_no, home, away, goals in AWKWARD_FIXTURES
    ]
    path.write_text(json.dumps({"matches": matches}), encoding="utf-8")
    return path


@pytest.mark.parametrize("flags", AWKWARD_DIGESTS)
def test_report_bytes_for_team_names_that_need_quoting_are_pinned(tmp_path, flags):
    season = _awkward_season(tmp_path / "awkward.json")
    out_dir = tmp_path / "out"
    result = _invoke("report", out_dir, *flags.split(), season=season)
    assert result.exit_code == 0, result.stderr
    # The digests are of the bytes that Python 3.10 and 3.11 write, whose csv
    # module leaves a lone "\r" unquoted when the line terminator is "\n"; a
    # csv module that quotes it changes only that cell.
    digests = {
        p.name: hashlib.sha256(p.read_bytes().replace(b'"Delta\r2"', b"Delta\r2")).hexdigest()
        for p in out_dir.iterdir()
    }
    assert digests == AWKWARD_DIGESTS[flags]


# Cell text: often only the characters a CSV cell may need quoting for, plus a
# space, a letter and non-ASCII; otherwise any text but NUL, which ingest rejects.
_CELLS = st.one_of(
    st.text(alphabet=',"\r\n aé€', max_size=4),
    st.text(alphabet=st.characters(exclude_characters="\0"), max_size=6),
)


@st.composite
def _text_columns(draw):
    """Two to five equal-length columns of cell text, a header and up to six rows each."""
    rows, width = draw(st.integers(1, 7)), draw(st.integers(2, 5))
    return [draw(st.lists(_CELLS, min_size=rows, max_size=rows)) for _ in range(width)]


@given(_text_columns())
@example([["a", "b,c"], ["d", "e"]])
@example([["a", 'b"c'], ["d", "e"]])
@example([["a", "b\rc"], ["d", "e"]])
@example([["a", "b\nc"], ["d", "e"]])
@example([["h", ""], ["", "é"]])
def test_csv_text_equals_csv_writer(columns):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(zip(*columns))
    assert _csv_text(columns) == out.getvalue()


def test_golden_table_cells_match_recomputation():
    # Spot-check the frozen file against values recomputed from the library.
    ledger = SeasonLedger(parse_season(SEASON_CSV.read_bytes(), "csv"))
    *_, classic = ledger.rounds(scoring_rule(ScoringSystem.CLASSIC))
    *_, timed = ledger.rounds(scoring_rule(ScoringSystem.TIME))
    lines = (GOLDEN / "table.csv").read_text().splitlines()
    top = lines[1].split(",")
    for final, (team, points) in ((classic, top[1:3]), (timed, top[4:6])):
        leader = final.order[0]
        assert team == final.teams[leader]
        assert points == format_decimal(Fraction(final.points[leader], final.den), 2)


def test_draws_to_wins_capped_at_the_teams_draws_is_marked(tmp_path):
    # Alpha wins all three; the rest draw with each other. Beta is 7 points
    # behind, ceil(7/2) = 4 conversions, but has only 2 draws to convert.
    season = tmp_path / "capped.csv"
    season.write_text(
        "round,home,away,goals,length_min\n"
        "1,Alpha,Beta,H:10,\n1,Gamma,Delta,,\n"
        "2,Alpha,Gamma,H:10,\n2,Beta,Delta,,\n"
        "3,Alpha,Delta,H:10,\n3,Beta,Gamma,,\n"
    )
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 0, result.stderr
    assert (tmp_path / "out" / "table.csv").read_text() == (
        "rank,classic_team,classic_points,classic_pct_of_1st,time_team,time_points,"
        "time_pct_of_1st,time_min_to_upper,classic_draws_to_wins\n"
        "1,Alpha,9.00,100,Alpha,8.33,100,,\n"
        "2,Beta,2.00,22,Beta,2.11,25,280,2*\n"
        "3,Delta,2.00,22,Delta,2.11,25,0,0\n"
        "4,Gamma,2.00,22,Gamma,2.11,25,0,0\n"
    )


def test_evolution_row_counts(tmp_path):
    result = _invoke("evolution", tmp_path, "--systems", "classic,time,mixed")
    assert result.exit_code == 0
    season = parse_season(SEASON_CSV.read_bytes(), "csv")
    expected_rows = season.num_rounds * len(season.teams)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["evolution_classic.csv", "evolution_mixed.csv", "evolution_time.csv"]
    for path in tmp_path.iterdir():
        lines = path.read_text().splitlines()
        assert lines[0] == "round,team,rank,points"
        assert len(lines) == 1 + expected_rows


def test_csv_and_json_inputs_agree(tmp_path):
    csv_out = tmp_path / "csv"
    json_out = tmp_path / "json"
    assert _invoke("table", csv_out).exit_code == 0
    assert _invoke("table", json_out, season=SEASON_JSON).exit_code == 0
    assert (csv_out / "table.csv").read_bytes() == (json_out / "table.csv").read_bytes()


def test_format_flag_overrides_suffix(tmp_path):
    # The JSON file parsed as CSV must fail as data, not crash.
    result = _invoke("table", tmp_path, "--format", "csv", season=SEASON_JSON)
    assert result.exit_code == 1
    assert "MALFORMED_ROW" in result.stderr


def test_default_weights_flag_equivalence(tmp_path):
    explicit = tmp_path / "explicit"
    implicit = tmp_path / "implicit"
    assert _invoke("table", explicit, "--weights", "3,1,0").exit_code == 0
    assert _invoke("table", implicit).exit_code == 0
    assert (explicit / "table.csv").read_bytes() == (implicit / "table.csv").read_bytes()


def test_decimal_comma_rendering(tmp_path):
    result = _invoke("indicators", tmp_path, "--decimal-comma")
    assert result.exit_code == 0
    text = (tmp_path / "indicators.csv").read_text()
    first_gap_row = text.splitlines()[1]
    assert '"' in first_gap_row or "," in first_gap_row
    # Values like 31.6 render as "31,6" (quoted because the field now holds a comma).
    assert '"31,6"' in text or "31,6" in text.replace('"', "")
    assert "31.6" not in text


def test_empty_season_file_exits_one(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("round,home,away,goals,length_min\n")
    result = _invoke("table", tmp_path / "out", season=empty)
    assert result.exit_code == 1
    assert "EMPTY_SEASON" in result.stderr


def test_missing_input_exits_two(tmp_path):
    result = _invoke("table", tmp_path, season=tmp_path / "nope.csv")
    assert result.exit_code == 2


def test_malformed_input_exits_one_with_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("round,home,away,goals,length_min\n1,Alpha,Beta,H:zz,\n")
    result = _invoke("table", tmp_path / "out", season=bad)
    assert result.exit_code == 1
    assert "MALFORMED_ROW" in result.stderr
    assert "line 2" in result.stderr


def test_unknown_system_exits_one(tmp_path):
    result = _invoke("table", tmp_path, "--systems", "classic,elo")
    assert result.exit_code == 1
    assert "unknown scoring system" in result.stderr


def test_bad_weights_exit_one(tmp_path):
    result = _invoke("table", tmp_path, "--weights", "1,2,3")
    assert result.exit_code == 1


def test_all_draws_fixture_gives_zero_gaps(tmp_path):
    all_draws = tmp_path / "draws.csv"
    all_draws.write_text(
        "round,home,away,goals,length_min\n"
        "1,Alpha,Beta,,\n1,Gamma,Delta,,\n"
        "2,Beta,Alpha,,\n2,Delta,Gamma,,\n"
    )
    result = _invoke("indicators", tmp_path / "out", season=all_draws)
    assert result.exit_code == 0
    lines = (tmp_path / "out" / "indicators.csv").read_text().splitlines()
    for row in lines[1:4]:  # the three gap rows
        assert row.endswith(",0.0,0.0")


def test_bundled_fixture_time_gaps_at_most_classic():
    ledger = SeasonLedger(parse_season(SEASON_CSV.read_bytes(), "csv"))
    time_bundle = indicator_bundle(ledger, scoring_rule(ScoringSystem.TIME))
    classic_bundle = indicator_bundle(ledger, scoring_rule(ScoringSystem.CLASSIC))
    assert time_bundle.gap_1_3_pct <= classic_bundle.gap_1_3_pct
    assert time_bundle.gap_1_9_pct <= classic_bundle.gap_1_9_pct
    assert time_bundle.gap_1_last_pct <= classic_bundle.gap_1_last_pct


def test_bundled_csv_and_json_parse_identically():
    csv_season = parse_season(SEASON_CSV.read_bytes(), "csv")
    json_season = parse_season(SEASON_JSON.read_bytes(), "json")
    assert csv_season == json_season


def test_stdout_lists_written_files(tmp_path):
    result = _invoke("ecdf", tmp_path)
    assert result.exit_code == 0
    assert "ecdf_classic.csv" in result.output
    assert "ecdf_time.csv" in result.output


@pytest.mark.parametrize("command", ["table", "indicators"])
def test_zero_leader_exits_one_with_code(tmp_path, command):
    # Every match 0-0 with weights 2,0,-1: all time points are 0.
    all_goalless = tmp_path / "goalless.csv"
    all_goalless.write_text(
        "round,home,away,goals,length_min\n"
        "1,Alpha,Beta,,\n1,Gamma,Delta,,\n"
        "2,Beta,Alpha,,\n2,Delta,Gamma,,\n"
    )
    result = _invoke(command, tmp_path / "out", "--weights", "2,0,-1", season=all_goalless)
    assert result.exit_code == 1
    assert "NON_POSITIVE_LEADER" in result.stderr


@pytest.mark.parametrize("command", ["table", "indicators"])
def test_negative_leader_exits_one_with_code(tmp_path, command):
    # With alpha_w = 0 no award is positive, so a gap to the leader would be negative.
    result = _invoke(command, tmp_path, "--weights", "0,-1,-2")
    assert result.exit_code == 1
    assert "NON_POSITIVE_LEADER" in result.stderr


def test_zero_denominator_weight_exits_one(tmp_path):
    result = _invoke("table", tmp_path, "--weights", "3,1/0,0")
    assert result.exit_code == 1
    assert "divide by zero" in result.stderr


@pytest.mark.parametrize(
    "home,away",
    [('["Alpha"]', '"Beta"'), ('"Alpha"', "7"), ('"Alpha"', "null")],
)
def test_json_team_names_must_be_strings(tmp_path, home, away):
    season = tmp_path / "season.json"
    season.write_text(
        '{"matches": [{"round": 1, "home": "Gamma", "away": "Delta", "goals": []},'
        f' {{"round": 1, "home": {home}, "away": {away}, "goals": []}}]}}'
    )
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert "MALFORMED_ROW: match 2:" in result.stderr
    assert "must be a string" in result.stderr


def test_json_team_name_with_nul_exits_one_with_code(tmp_path):
    # Python 3.10's csv writer cannot write a NUL, so ingest rejects it on every version.
    season = tmp_path / "season.json"
    season.write_text(
        '{"matches": [{"round": 1, "home": "Gamma", "away": "Delta", "goals": []},'
        ' {"round": 1, "home": "Al\\u0000pha", "away": "Beta", "goals": []}]}'
    )
    result = _invoke("report", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr == (
        "error: MALFORMED_ROW: match 2: team names must not contain a NUL character\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_non_utf8_input_exits_one_with_encoding_code(tmp_path, suffix):
    season = tmp_path / f"season{suffix}"
    text = SEASON_CSV if suffix == ".csv" else SEASON_JSON
    # Latin-1 bytes for a team name on the third line.
    lines = text.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"a", b"\xe9", 1)
    season.write_bytes(b"\n".join(lines))
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ENCODING: season file is not UTF-8")
    assert "(line 3)" in result.stderr


@pytest.mark.parametrize(
    "row",
    [
        '"H:10,H:99999999999",',  # about 190,000 years
        '"H:10,A:300+1",',        # one minute past the cap, stoppage notation
        ",301",                   # declared length past the cap
        '"H:' + "9" * 5000 + '",',  # more digits than int() converts
    ],
    ids=["goal_in_years", "stoppage_goal", "declared_length", "goal_digits"],
)
def test_match_past_longest_allowed_exits_one_with_line(tmp_path, row):
    season = tmp_path / "long.csv"
    season.write_text(
        "round,home,away,goals,length_min\n1,Alpha,Beta,H:300,300\n"
        f"1,Gamma,Delta,{row}\n"
    )
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert "MALFORMED_ROW" in result.stderr
    assert "(line 3)" in result.stderr


def test_huge_round_number_exits_one_with_code(tmp_path):
    # The contiguity check must not build every round number up to the largest.
    season = tmp_path / "rounds.csv"
    season.write_text(
        f"round,home,away,goals,length_min\n1,Alpha,Beta,,\n{10**12},Gamma,Delta,,\n"
    )
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr == (
        "error: NONCONTIGUOUS_ROUNDS: round numbers must form a contiguous range starting at 1\n"
    )


@pytest.mark.parametrize(
    "row",
    ["1,Alpha,Be\rta,,", '1,Alpha,Beta,"' + "H:1," * 40000 + '",'],
    ids=["bare_carriage_return", "field_past_csv_limit"],
)
def test_unreadable_csv_line_exits_one_with_line(tmp_path, row):
    season = tmp_path / "season.csv"
    season.write_bytes(f"round,home,away,goals,length_min\n1,Gamma,Delta,,\n{row}\n".encode())
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: MALFORMED_ROW: bad CSV line: ")
    assert "(line 3)" in result.stderr


def test_deeply_nested_json_exits_one_with_code(tmp_path):
    season = tmp_path / "season.json"
    season.write_text('{"matches": ' + "[" * 100_000 + "]" * 100_000 + "}")
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr == "error: MALFORMED_ROW: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "digits,message",
    [
        (4300, "match 1: declared length is longer than the longest allowed match (18000 s)"),
        (5000, "invalid JSON: an integer has more than 4300 digits (line 3)"),
    ],
    ids=["at_conversion_limit", "past_conversion_limit"],
)
def test_json_integer_digits_exit_one_with_a_coded_message(tmp_path, digits, message):
    # json.loads cannot convert an integer past CPython's digit limit; one at
    # the limit still reaches its field check. A team name made of digits
    # comes first, so the error must name the number's line, not the first
    # long run of digits in the file.
    number = "9" + "0" * (digits - 1)
    season = tmp_path / "season.json"
    season.write_text(
        '{"matches": [\n{"round": 1, "home": "' + "1" * 5000 + '", "away": "B",\n'
        ' "length_s": ' + number + "}]}"
    )
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr == f"error: MALFORMED_ROW: {message}\n"


def _largest_primes_up_to(limit, count):
    primes = []
    for n in range(limit, 1, -1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
            if len(primes) == count:
                return primes
    raise ValueError(f"fewer than {count} primes up to {limit}")


@pytest.mark.parametrize("command", ["indicators", "report"])
def test_season_with_too_many_match_lengths_exits_one_and_writes_nothing(tmp_path, command):
    # A 30-team double round robin where each match lasts a distinct prime
    # number of seconds, every one within the longest allowed match: the lcm
    # of the lengths has about 3,600 digits, past the ledger's 3,000.
    rounds = double_round_robin([f"T{i:02d}" for i in range(30)])
    lengths = iter(_largest_primes_up_to(MAX_MATCH_LENGTH_S, 870))
    matches = [
        {"round": round_no, "home": home, "away": away, "length_s": next(lengths)}
        for round_no, pairs in enumerate(rounds, start=1)
        for home, away in pairs
    ]
    season = tmp_path / "lengths.json"
    season.write_text(json.dumps({"matches": matches}))
    result = _invoke(command, tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: TOO_MANY_LENGTHS: ")
    assert result.output == ""
    assert not (tmp_path / "out").exists()


def test_run_report_drops_repeated_systems_like_the_cli(tmp_path):
    result = _invoke("report", tmp_path / "report", "--systems", "classic,classic")
    assert result.exit_code == 0, result.output
    assert _invoke("table", tmp_path / "cli", "--systems", "classic").exit_code == 0
    table = (tmp_path / "report" / "table.csv").read_bytes()
    assert table == (tmp_path / "cli" / "table.csv").read_bytes()


@pytest.mark.parametrize(
    "args,missing,code,message",
    [
        (["--systems", "foo"], False, 1, "error: unknown scoring system 'foo'"),
        ([], True, 2, "error: [Errno 2] No such file or directory"),
    ],
    ids=["unknown_system", "missing_season"],
)
def test_run_report_errors_exit_like_the_cli(tmp_path, args, missing, code, message):
    season = tmp_path / "missing.csv" if missing else SEASON_CSV
    result = _invoke("report", tmp_path / "out", *args, season=season)
    assert result.exit_code == code
    assert result.stderr.startswith(message)
    assert "Traceback" not in result.stderr


def test_report_data_error_writes_no_file(tmp_path):
    # Gaps need three teams: table, evolution and ecdf succeed, indicators fail.
    two_teams = tmp_path / "two.csv"
    two_teams.write_text("round,home,away,goals,length_min\n1,Alpha,Beta,H:10,\n")
    out = tmp_path / "out"
    result = _invoke("report", out, season=two_teams)
    assert result.exit_code == 1
    assert "TOO_FEW_TEAMS" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "weights,bad",
    [("1_0,1,0", "1_0"), ("\u0663,1,0", "\u0663"), ("1e5000,1,0", "1e5000")],
    ids=["digit_separator", "arabic_indic_digit", "exponent"],
)
def test_weights_outside_the_grammar_exit_one_before_reading(tmp_path, weights, bad):
    # The season path does not exist: the weights must fail first, with exit 1.
    result = _invoke("report", tmp_path / "out", "--weights", weights,
                     season=tmp_path / "missing.csv")
    assert result.exit_code == 1
    assert result.stderr == (
        f"error: bad weight {bad!r}: expected an integer, a decimal or a fraction a/b\n"
    )


def test_cli_import_leaves_out_click_dataclasses_and_inspect():
    code = (
        "import sys, timescore.cli; "
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--out", "{out}"],
        ["table", "--input", str(SEASON_CSV)],
        ["table", "--input", str(SEASON_CSV), "--out", "{out}", "--decimals", "4"],
        ["table", "--input", str(SEASON_CSV), "--out", "{out}", "--format", "xml"],
        ["tabel", "--input", str(SEASON_CSV), "--out", "{out}"],
        ["--input", str(SEASON_CSV), "--out", "{out}"],
    ],
    ids=["missing_input", "missing_out", "decimals_4", "format_xml", "unknown_command",
         "no_command"],
)
def test_usage_errors_exit_two_and_write_nothing(tmp_path, argv):
    out = tmp_path / "out"
    result = run_cli([arg.format(out=out) for arg in argv])
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: ")
    assert "Traceback" not in result.stderr
    assert result.output == ""
    assert not out.exists()


def test_help_exits_zero_and_names_every_command():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    assert result.output.startswith("usage: ")
    for command in COMMANDS:
        assert f"\n  {command} " in result.output


def test_value_options_take_values_that_start_with_a_dash(tmp_path):
    # A negative first weight must reach the weight check, not the option parser.
    spaced = _invoke("table", tmp_path / "spaced", "--weights", "-1,-2,-3")
    glued = _invoke("table", tmp_path / "glued", "--weights=-1,-2,-3")
    assert spaced == glued
    assert spaced.exit_code == 1
    assert spaced.stderr.startswith("error: NON_POSITIVE_LEADER: ")


def test_weight_past_the_digit_cap_exits_one_before_reading(tmp_path):
    weights = "1" + "0" * 5000 + ",1,0"
    result = _invoke("table", tmp_path / "out", "--weights", weights,
                     season=tmp_path / "missing.csv")
    assert result.exit_code == 1
    assert result.stderr == "error: bad weight: 5001 digits, at most 100 digits allowed\n"


@pytest.mark.parametrize(
    "row,field",
    [
        ("9" * 5000 + ",Gamma,Delta,,", "round number"),
        ("1,Gamma,Delta,,9" + "0" * 4999, "length_min value"),
        ("1,Gamma,Delta,H:" + "9" * 5000 + ",", "goal minute"),
        ("1,Gamma,Delta,H:90+" + "9" * 5000 + ",", "goal minute"),
    ],
    ids=["round", "length_min", "goal_minute", "stoppage_minute"],
)
def test_csv_number_past_the_digit_cap_is_malformed_with_line(tmp_path, row, field):
    season = tmp_path / "season.csv"
    season.write_text(f"round,home,away,goals,length_min\n1,Alpha,Beta,,\n{row}\n")
    result = _invoke("table", tmp_path / "out", season=season)
    assert result.exit_code == 1
    assert result.stderr == (
        f"error: MALFORMED_ROW: bad {field}: 5000 digits, at most 100 digits allowed (line 3)\n"
    )
