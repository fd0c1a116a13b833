import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clirun import run_cli
from gen_synthetic_season import double_round_robin
from matchgen import minute_season, random_season, season_text, team_names, weight_triples
from reference import (
    build_parser,
    ecdf_columns,
    glue_values,
    paper_match_awards,
    rendered_by_hand,
    report_files,
    weight_fractions,
)
from timescore.cli import _read_args
from timescore.display import WIDE_BITS, csv_text
from timescore.indicators import gaps
from timescore.ingest import MAX_MATCH_LENGTH_S, parse_season
from timescore.scoring import ScoringSystem, WeightTriple, scoring_rule
from timescore.standings import SeasonLedger

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
    # The same report from `python -m timescore` under two hash seeds: no
    # byte may depend on the order of a set or a dict of strings.
    for seed in ("0", "1"):
        seed_dir = tmp_path / f"hashseed{seed}"
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "timescore", "report", "--input", str(season),
             "--out", str(seed_dir), *workload.flags],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in seed_dir.iterdir()}
        assert digests == expected["outputs"]


def _assert_ecdf_equals_a_fraction_recount(tmp_path, monkeypatch, name, seed):
    # The benchmark's 60-team season at another seed. Each file's columns are
    # recounted from the paper's formulas in Fraction arithmetic.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import FULL_TEAMS, WORKLOADS, season_bytes

    workload = WORKLOADS[name]
    data = season_bytes(workload.kind, seed, FULL_TEAMS)
    path = tmp_path / ("season.csv" if workload.kind == "minute" else "season.json")
    path.write_bytes(data)
    out_dir = tmp_path / "out"
    result = _invoke("ecdf", out_dir, *workload.flags, season=path)
    assert result.exit_code == 0, result.stderr
    flags = dict(zip(workload.flags[::2], workload.flags[1::2]))
    weights = WeightTriple.from_string(flags.get("--weights", "3,1,0"))
    season = parse_season(data)
    for system in ScoringSystem:
        awards = [
            a for match in season.matches for a in paper_match_awards(match, system, weights)
        ]
        header, *rows = (out_dir / f"ecdf_{system.value}.csv").read_text().splitlines()
        assert header == "points,cumulative_fraction"
        assert [row.split(",") for row in rows] == list(map(list, zip(*ecdf_columns(awards))))
    return season, weights


def test_sixty_team_exact_ecdf_matches_a_fraction_recount(tmp_path, monkeypatch):
    # Thousands of distinct awards and a season-wide lcm of thousands of bits.
    _assert_ecdf_equals_a_fraction_recount(tmp_path, monkeypatch, "league60_exact", 7)


def test_sixty_team_minute_ecdf_matches_a_fraction_recount(tmp_path, monkeypatch):
    # Minute data: most sides share their row with other sides, and rows of
    # different match lengths share an award, so the ledger's tally of distinct
    # rows is much shorter than the awards and one ECDF step spans several rows.
    season, weights = _assert_ecdf_equals_a_fraction_recount(
        tmp_path, monkeypatch, "league60_minute", 7
    )
    nums, dens, counts = SeasonLedger(season).tally(scoring_rule(ScoringSystem.TIME, weights))
    assert sum(counts) == 2 * len(season.matches) > 3 * len(nums)
    dens_by_award = {}
    for n, m in zip(nums, dens):
        dens_by_award.setdefault(Fraction(n, m), set()).add(m)
    assert any(len(award_dens) > 1 for award_dens in dens_by_award.values())


# The bundled season's report bytes under flags the goldens do not cover: every
# system, fractional weights, three decimals with a comma (quoted cells), and
# zero decimals. 3,1/2,0 and 3,0.5,0 and 6/2,2/4,0 spell one weight triple, so
# they give one set of bytes.
_ALL_SYSTEMS_FLAGS = "--systems classic,time,mixed,goaldiff --weights {} --decimals 3 --decimal-comma"
_ALL_SYSTEMS_DIGESTS = {
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
}
PINNED_FLAG_DIGESTS = {
    **{
        _ALL_SYSTEMS_FLAGS.format(weights): _ALL_SYSTEMS_DIGESTS
        for weights in ("3,1/2,0", "3,0.5,0", "6/2,2/4,0")
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
        "evolution_classic.csv": "4ba198ada3f543956042e0a20e87477eef2952aab2637b98a2f8e048be48dcde",
        "evolution_time.csv": "ead0122e197b2e0d02758b0e3acb543557cb99abcf80a32d0b842ad096e01a52",
        "indicators.csv": "7593f86b9b0a25e8bcfd5d51d7b6406f0a4e910ca6832f6f4995b4f3f57f7645",
        "indicators.json": "7a2a092e0ca64f54a266f5c8d6cf9fb2a72b5d2c21213462dcda4492fd630be3",
        "table.csv": "87f6c26421fd73a6de485d20537b92c10e20bb3d2c8e053a8181cc091515b82b",
    },
    "--decimal-comma --decimals 1": {
        "ecdf_classic.csv": "a67bd43e503380d28699d765c74a6335a94d90c9293e874525068bc939b8d762",
        "ecdf_time.csv": "ebed6a3fcba94ca89be42f935f943f2259292c478ea7619015a9185f0573ff95",
        "evolution_classic.csv": "887bb627225ae4ebade489b058dc2114022c083c09f7916508c451ecb10e7dab",
        "evolution_time.csv": "16c381e8c7aff6b1f3dd7b36acb4a9bb11a5e3cd6cf5508d06ec0e5a32cc2d79",
        "indicators.csv": "a18df74c4763e2853a4063997f0b49f16209aa07a6588034e4f7b197b03a04ed",
        "indicators.json": "7a2a092e0ca64f54a266f5c8d6cf9fb2a72b5d2c21213462dcda4492fd630be3",
        "table.csv": "ddc114b4f6a2de5156774c394fe8a87b309d91c3570fc99df41cdea1362855df",
    },
}


def _json_season(path, fixtures):
    """Write ``(round, home, away, [(side, time_s)], length_s or None)`` fixtures as JSON."""
    matches = []
    for round_no, home, away, goals, length_s in fixtures:
        match = {
            "round": round_no,
            "home": home,
            "away": away,
            "goals": [{"side": side, "time_s": time_s} for side, time_s in goals],
        }
        if length_s is not None:
            match["length_s"] = length_s
        matches.append(match)
    path.write_text(json.dumps({"matches": matches}), encoding="utf-8")
    return path


@pytest.mark.parametrize("flags", AWKWARD_DIGESTS)
def test_report_bytes_for_team_names_that_need_quoting_are_pinned(tmp_path, flags):
    fixtures = [
        (round_no, AWKWARD_TEAMS[home], AWKWARD_TEAMS[away], goals, None)
        for round_no, home, away, goals in AWKWARD_FIXTURES
    ]
    season = _json_season(tmp_path / "awkward.json", fixtures)
    out_dir = tmp_path / "out"
    result = _invoke("report", out_dir, *flags.split(), season=season)
    assert result.exit_code == 0, result.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == AWKWARD_DIGESTS[flags]
    # Every file reads back as rows of one width, with every team name whole.
    for path in out_dir.glob("*.csv"):
        header, *rows = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        assert {len(row) for row in rows} == {len(header)}, path.name
        team_columns = [i for i, name in enumerate(header) if name.endswith("team")]
        assert bool(team_columns) == path.name.startswith(("table", "evolution")), path.name
        for i in team_columns:
            assert {row[i] for row in rows} == set(AWKWARD_TEAMS), path.name


# A four-team exact-second season whose match lengths differ, so the season-wide
# lcm is large. Round 1's away goal at 9 s of 5,760 gives the home side a time
# award of 9/5760 = 0.0015625 at the default weights: an exact half at six decimals.
EXACT_FIXTURES = (
    (1, "North", "South", [("A", 9)], 5760),
    (1, "East", "West", [("H", 1234), ("A", 4321), ("H", 5555)], 5587),
    (2, "North", "East", [("A", 2718), ("A", 3141)], None),
    (2, "South", "West", [], 5701),
    (3, "North", "West", [("H", 1), ("A", 5399)], 5431),
    (3, "South", "East", [("H", 4444)], 5820),
)
EXACT_ECDF_DIGESTS = {
    "--systems classic,time,mixed,goaldiff": {
        "ecdf_classic.csv": "d3a6f03e34583075adf3f0106f8ddc9d98a0c44efa36db5511ec2200a63713f3",
        "ecdf_goaldiff.csv": "4e17b091c6d3fd76664d4d965ae9d8c3933469698da7e6c0882777b632f6b537",
        "ecdf_mixed.csv": "4f1e86fb55691b599f8e42eceb9e93b6d5d8accc6192a617654c340b753b1785",
        "ecdf_time.csv": "5ee18a401e4f2c10f4b9036a83460a1409aab3ed492823e66ddb9d5fa76304c3",
    },
    # Negative awards: trailing time is worth -7/11 a second.
    "--systems time --weights 10,1/3,-7/11": {
        "ecdf_time.csv": "bbe36d200030f3ced6040182a2aa2735bc36636426a252e6455b0bb70ca72cd7",
    },
}


@pytest.mark.parametrize("flags", EXACT_ECDF_DIGESTS)
def test_ecdf_bytes_for_an_exact_second_season_are_pinned(tmp_path, flags):
    season = _json_season(tmp_path / "exact.json", EXACT_FIXTURES)
    out_dir = tmp_path / "out"
    result = _invoke("ecdf", out_dir, *flags.split(), season=season)
    assert result.exit_code == 0, result.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == EXACT_ECDF_DIGESTS[flags]
    if "--weights" not in flags:
        # The exact half 0.0015625 is the lowest award and rounds up.
        lines = (out_dir / "ecdf_time.csv").read_text().splitlines()
        assert lines[1] == "0.001563,0.083333"


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
    text = csv_text(columns)
    assert list(csv.reader(io.StringIO(text, newline=""))) == list(map(list, zip(*columns)))
    # csv.writer leaves a lone carriage return unquoted, so a reader splits its row.
    if not any("\r" in cell for column in columns for cell in column):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(zip(*columns))
        assert text == out.getvalue()


def test_golden_table_cells_match_recomputation():
    # Spot-check the frozen file against values recomputed from the library.
    ledger = SeasonLedger(parse_season(SEASON_CSV.read_bytes()))
    classic = ledger.final(scoring_rule(ScoringSystem.CLASSIC))
    timed = ledger.final(scoring_rule(ScoringSystem.TIME))
    lines = (GOLDEN / "table.csv").read_text().splitlines()
    top = lines[1].split(",")
    for final, (team, points) in ((classic, top[1:3]), (timed, top[4:6])):
        leader = final.order[0]
        assert team == final.teams[leader]
        assert points == rendered_by_hand(Fraction(final.points[leader], final.den), 2)


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
    season = parse_season(SEASON_CSV.read_bytes())
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


@pytest.mark.parametrize(
    "source,name", [(SEASON_JSON, "season.csv"), (SEASON_CSV, "season.json")],
    ids=["json_named_csv", "csv_named_json"],
)
def test_season_content_not_its_name_picks_the_parser(tmp_path, source, name):
    season = tmp_path / name
    season.write_bytes(source.read_bytes())
    result = _invoke("report", tmp_path / "out", season=season)
    assert result.exit_code == 0, result.stderr
    for golden in COMMANDS["report"]:
        assert (tmp_path / "out" / golden).read_bytes() == (GOLDEN / golden).read_bytes()


def test_default_weights_flag_equivalence(tmp_path):
    explicit = tmp_path / "explicit"
    implicit = tmp_path / "implicit"
    assert _invoke("table", explicit, "--weights", "3,1,0").exit_code == 0
    assert _invoke("table", implicit).exit_code == 0
    assert (explicit / "table.csv").read_bytes() == (implicit / "table.csv").read_bytes()


def test_decimal_comma_rendering(tmp_path):
    result = _invoke("indicators", tmp_path, "--decimal-comma")
    assert result.exit_code == 0
    # Each rounded ratio renders as 31,6 and is quoted, because its cell now
    # holds a comma; the counts stay bare.
    assert (tmp_path / "indicators.csv").read_text(encoding="utf-8") == (
        "indicator,classic,time\n"
        'Gap 1st-3rd place (%),"31,6","6,3"\n'
        'Gap 1st-9th place (%),"47,4","33,6"\n'
        'Gap 1st-last (%),"47,4","33,6"\n'
        "# Overall Changes,24,34\n"
        "# Changes on Leadership,4,7\n"
        "# Different Leaders,2,4\n"
        'Aver. points per game,"1,33","1,19"\n'
    )


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
    assert result.stderr.startswith("error: BAD_SYSTEMS: unknown scoring system 'elo'")


def test_bad_weights_exit_one(tmp_path):
    result = _invoke("table", tmp_path, "--weights", "1,2,3")
    assert result.exit_code == 1
    assert result.stderr == (
        "error: BAD_WEIGHTS: weights must satisfy alpha_w > alpha_d > alpha_l, got (1, 2, 3)\n"
    )


def test_bad_systems_are_reported_before_bad_weights(tmp_path):
    result = _invoke("table", tmp_path / "out", "--systems", "foo", "--weights", "1,2,3")
    assert result.exit_code == 1
    assert result.stderr == (
        "error: BAD_SYSTEMS: unknown scoring system 'foo'; "
        "choose from classic,time,mixed,goaldiff\n"
    )


@pytest.mark.parametrize(
    "weights,message",
    [
        # Each weight prints reduced, as p/q or p, whatever its spelling.
        ("1/2,0.5,0", "weights must satisfy alpha_w > alpha_d > alpha_l, got (1/2, 1/2, 0)"),
        ("-1/3,-2/6,-.5",
         "weights must satisfy alpha_w > alpha_d > alpha_l, got (-1/3, -1/3, -1/2)"),
        ("3,1/0,0", "weights must not divide by zero, got '3,1/0,0'"),
    ],
    ids=["equal_half", "negative_thirds", "zero_denominator"],
)
def test_weight_errors_exit_one_before_reading(tmp_path, weights, message):
    result = _invoke("table", tmp_path / "out", f"--weights={weights}",
                     season=tmp_path / "missing.csv")
    assert result.exit_code == 1
    assert result.stderr == f"error: BAD_WEIGHTS: {message}\n"


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
    ledger = SeasonLedger(parse_season(SEASON_CSV.read_bytes()))
    time_final = ledger.final(scoring_rule(ScoringSystem.TIME))
    classic_final = ledger.final(scoring_rule(ScoringSystem.CLASSIC))
    for time_gap, classic_gap in zip(gaps(time_final), gaps(classic_final), strict=True):
        assert Fraction(*time_gap) <= Fraction(*classic_gap)


def test_bundled_csv_and_json_parse_identically():
    csv_season = parse_season(SEASON_CSV.read_bytes())
    json_season = parse_season(SEASON_JSON.read_bytes())
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


def test_negative_leader_points_print_exactly(tmp_path):
    # Every match 0-0: each side's time award is the draw weight, -1/1000, so
    # leader A holds -1/500, which two decimals would print as 0.00.
    all_goalless = tmp_path / "goalless.csv"
    all_goalless.write_text(
        "round,home,away,goals,length_min\n"
        "1,A,B,,\n1,C,D,,\n"
        "2,B,A,,\n2,D,C,,\n"
    )
    flags = ("--systems", "time", "--weights", "1/1000,-1/1000,-2/1000")
    result = _invoke("table", tmp_path / "out", *flags, season=all_goalless)
    assert result.exit_code == 1
    assert result.stderr == (
        "error: NON_POSITIVE_LEADER: time leader A has -1/500 points; "
        "percentages of the leader need a positive leader\n"
    )


def test_zero_denominator_weight_exits_one(tmp_path):
    result = _invoke("table", tmp_path, "--weights", "3,1/0,0")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: BAD_WEIGHTS: weights must not divide by zero")


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


# Exact-second goals that put points cells on a rounding half. Beta's goal at
# 27 s of a 90' match leaves Alpha 27/5400 = 0.005 time points after round 1
# and 1.005 after its goalless draw in round 3: an evolution cell and a table
# cell that half-up rounding renders 0.01 and 1.01. Beta has 16146/5400 = 2.99.
HALF_SEASON = {"league": "halves", "matches": [
    {"round": 1, "home": "Alpha", "away": "Beta", "goals": [{"side": "A", "time_s": 27}]},
    {"round": 2, "home": "Beta", "away": "Gamma"},
    {"round": 3, "home": "Gamma", "away": "Alpha"},
]}


@pytest.mark.parametrize(
    "systems", [[ScoringSystem.CLASSIC, ScoringSystem.TIME], list(ScoringSystem)],
    ids=["default", "all"],
)
def test_exact_second_halves_round_up_like_the_fraction_reference(tmp_path, systems):
    season, out = tmp_path / "halves.json", tmp_path / "out"
    season.write_text(json.dumps(HALF_SEASON))
    result = _invoke("report", out, "--systems", ",".join(s.value for s in systems),
                     season=season)
    assert result.exit_code == 0, result.stderr
    expected = report_files(
        parse_season(season.read_bytes()), systems, WeightTriple(3, 1, 0), 2, False
    )
    assert sorted(os.listdir(out)) == sorted(expected)
    assert {name: (out / name).read_bytes().decode() for name in expected} == expected
    assert "1,Alpha,2,0.01\n" in expected["evolution_time.csv"]
    assert "3,Alpha,3,1.01\n" in expected["evolution_time.csv"]
    header, *rows = csv.reader(io.StringIO(expected["table.csv"]))
    assert [row[header.index("time_points")] for row in rows] == ["3.99", "2.00", "1.01"]


def test_a_report_on_wide_denominators_equals_the_fraction_reference(tmp_path):
    # A 10-team double round robin whose 90 matches each last a distinct prime
    # number of seconds past 90:00: the time rules' denominators are wider than
    # WIDE_BITS, so their points, percent and indicator cells round from their
    # denominators' top 64 bits.
    rng = random.Random(1)
    lengths = iter(_largest_primes_up_to(MAX_MATCH_LENGTH_S, 90))
    fixtures = []
    rounds = double_round_robin([f"Club{i:02d}" for i in range(1, 11)])
    for round_no, pairs in enumerate(rounds, start=1):
        for home, away in pairs:
            length_s = next(lengths)
            times = sorted(rng.sample(range(1, length_s), rng.randint(0, 5)))
            goals = [(rng.choice("HA"), time_s) for time_s in times]
            fixtures.append((round_no, home, away, goals, length_s))
    season = _json_season(tmp_path / "wide.json", fixtures)
    weights, systems = WeightTriple.from_string("3,1/2,0"), list(ScoringSystem)
    parsed = parse_season(season.read_bytes())
    time_rule = scoring_rule(ScoringSystem.TIME, weights)
    assert SeasonLedger(parsed).den(time_rule).bit_length() > WIDE_BITS
    out = tmp_path / "out"
    result = _invoke("report", out, "--systems", ",".join(s.value for s in systems),
                     "--weights", "3,1/2,0", season=season)
    assert result.exit_code == 0, result.stderr
    expected = report_files(parsed, systems, weights, 2, False)
    assert sorted(os.listdir(out)) == sorted(expected)
    assert {name: (out / name).read_bytes().decode() for name in expected} == expected


def test_report_drops_repeated_systems_like_table(tmp_path):
    result = _invoke("report", tmp_path / "report", "--systems", "classic,classic")
    assert result.exit_code == 0, result.output
    assert _invoke("table", tmp_path / "cli", "--systems", "classic").exit_code == 0
    table = (tmp_path / "report" / "table.csv").read_bytes()
    assert table == (tmp_path / "cli" / "table.csv").read_bytes()


@given(
    st.integers(0, 2**32),
    st.sampled_from([4, 6, 8, 10]).flatmap(team_names),
    st.booleans(),
    st.lists(st.sampled_from(list(ScoringSystem)), min_size=1, max_size=5),
    weight_triples(),
    st.integers(0, 3),
    st.booleans(),
)
# Seed 31916's JSON season has a time award, in its longest match, 1/(2T) below a
# rounding half at six decimals: an ECDF key one bit short renders it up.
@example(31916, ["A,0", 'B"1', "C\r\n2", "A 3"], False, [ScoringSystem.TIME],
         WeightTriple(3, 1, 0), 2, False)
@settings(max_examples=60, deadline=None)
def test_report_files_equal_the_fraction_reference(
    seed, teams, as_csv, systems, weights, decimals, comma
):
    # The whole report command, parse to bytes, against writers that rank and
    # recount every round in Fraction arithmetic and quote cells by hand. A JSON
    # season mixes token strings and goal objects of every precision.
    rng = random.Random(seed)
    season = random_season(rng, teams=teams)
    if as_csv:
        season = minute_season(season)
    expected = report_files(season, list(dict.fromkeys(systems)), weights, decimals, comma)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "season", Path(tmp) / "out"
        path.write_text(season_text(season, as_csv, rng), encoding="utf-8")
        result = run_cli([
            "report", "--input", str(path), "--out", str(out),
            "--systems", ",".join(system.value for system in systems),
            "--weights", ",".join(map(str, weight_fractions(weights))),
            "--decimals", str(decimals), *(["--decimal-comma"] if comma else []),
        ])
        if isinstance(expected, str):
            assert (result.exit_code, result.stderr) == (1, expected)
            assert not out.exists()
        else:
            assert result.exit_code == 0, result.stderr
            assert sorted(os.listdir(out)) == sorted(expected)
            assert {name: (out / name).read_bytes().decode() for name in expected} == expected


@pytest.mark.parametrize(
    "args,missing,code,message",
    [
        (["--systems", "foo"], False, 1, "error: BAD_SYSTEMS: unknown scoring system 'foo'"),
        (["--systems", ","], False, 1,
         "error: BAD_SYSTEMS: at least one scoring system is required\n"),
        ([], True, 2, "error: [Errno 2] No such file or directory"),
    ],
    ids=["unknown_system", "no_system", "missing_season"],
)
def test_report_errors_exit_one_or_two(tmp_path, args, missing, code, message):
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


@pytest.mark.parametrize("option", ["--input", "--out"])
@pytest.mark.parametrize(
    "char,message",
    [("\0", "a path cannot hold a NUL byte"), ("\ud800", "surrogates not allowed")],
    ids=["nul", "lone_surrogate"],
)
def test_a_path_the_os_cannot_take_exits_two_naming_it(tmp_path, option, char, message):
    # open() and mkdir() refuse a NUL, or a character the file system encoding
    # lacks, with a plain ValueError.
    paths = {"--input": str(SEASON_CSV), "--out": str(tmp_path / "out")}
    paths[option] += char + "x"
    result = run_cli(["table", "--input", paths["--input"], "--out", paths["--out"]])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: [Errno 22] ")
    assert result.stderr.endswith(f"{message}: {paths[option]!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_error_without_a_file_name_names_the_file(tmp_path):
    # Writing to /dev/full fails with ENOSPC, an OSError that carries no file name.
    target = tmp_path / "ecdf_time.csv"
    target.symlink_to("/dev/full")
    result = _invoke("ecdf", tmp_path)
    assert result.exit_code == 2
    assert result.stderr == f"error: [Errno 28] No space left on device: {str(target)!r}\n"


def test_reports_render_past_the_callers_digit_limit(tmp_path, monkeypatch):
    # 640 digits is the lowest int-to-str limit CPython takes. The season is
    # parsed under the caller's limit, which its over-long integer error names,
    # and the limit is set back after the run.
    season = tmp_path / "long.json"
    season.write_text(
        '{"matches": [{"round": 1, "home": "A", "away": "B", "length_s": ' + "9" * 700 + "}]}"
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = _invoke("table", tmp_path / "out", season=season)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert result.stderr == (
        "error: MALFORMED_ROW: invalid JSON: an integer has more than 640 digits (line 1)\n"
    )
    # The exact-second benchmark season's indicators.json holds denominators
    # of more than 640 digits; every report still has the bytes that
    # bench/expected.json records. This reads bench/ and writes nothing there.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import FULL_TEAMS, WORKLOADS, season_bytes

    workload = WORKLOADS["league60_exact"]
    season = tmp_path / "season.json"
    season.write_bytes(season_bytes(workload.kind, 1, FULL_TEAMS))
    out_dir = tmp_path / "report"
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "timescore", "report", "--input", str(season),
         "--out", str(out_dir), *workload.flags],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())["league60_exact"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == expected["outputs"]


def test_written_paths_print_escaped_where_stdout_cannot_encode_them(tmp_path):
    out_dir = tmp_path / "out\u00f6"
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "timescore", "table", "--input", str(SEASON_CSV),
         "--out", str(out_dir)],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(out_dir / "table.csv").encode("ascii", "backslashreplace") + b"\n"
    assert (out_dir / "table.csv").read_bytes() == (GOLDEN / "table.csv").read_bytes()


@contextlib.contextmanager
def _collector(enabled):
    """The cyclic garbage collector switched on or off, then set back."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller_on", "caller_off"])
@pytest.mark.parametrize(
    "args,code",
    [
        ([], 0),
        (["--systems", "foo"], 1),
        (["--input", "missing.csv"], 2),
        (["--decimals", "9"], 2),
    ],
    ids=["success", "data_error", "io_error", "usage_error"],
)
def test_a_run_pauses_the_collector_and_restores_the_callers_setting(
    tmp_path, monkeypatch, enabled, args, code
):
    seen = []

    def parse(data):
        seen.append(gc.isenabled())
        return parse_season(data)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("timescore.cli.parse_season", parse)
    with _collector(enabled):
        result = _invoke("table", tmp_path / "out", *args)
        assert result.exit_code == code
        assert gc.isenabled() is enabled
    # Only a run that gets as far as reading the season parses it.
    assert seen == ([False] if code == 0 else [])


def test_a_paused_run_leaves_the_same_few_cycles_whatever_the_season(tmp_path):
    # json.dumps's encoder closures are the only cycles a run makes, so the
    # garbage a paused collector leaves does not grow with the season.
    season = tmp_path / "twenty.json"
    season.write_text(season_text(random_season(random.Random(5), num_teams=20), as_csv=False))
    found = []
    with _collector(False):
        for path in (SEASON_CSV, season):
            gc.collect()
            assert _invoke("report", tmp_path / "out", season=path).exit_code == 0
            found.append(gc.collect())
    assert found[0] == found[1] < 50


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
        f"error: BAD_WEIGHTS: bad weight {bad!r}: "
        "expected an integer, a decimal or a fraction a/b\n"
    )


# fractions pulls in decimal and numbers, argparse pulls in gettext and locale; csv
# and json load only where a run uses them.
_WATCHED = (
    "argparse", "click", "csv", "dataclasses", "decimal", "fractions", "gettext", "inspect",
    "json", "locale", "numbers",
)


def _loaded_after(code: str, *argv: str) -> list[str]:
    """The modules of ``_WATCHED`` loaded once ``code`` has run in a fresh interpreter."""
    code += f"; print(*sorted(set({_WATCHED!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_out_click_dataclasses_and_inspect():
    assert _loaded_after("import sys, timescore.cli") == []


@pytest.mark.parametrize(
    "command,season,loaded",
    [
        ("table", SEASON_CSV, ["csv"]),
        ("evolution", SEASON_CSV, ["csv"]),
        ("ecdf", SEASON_CSV, ["csv"]),
        ("table", SEASON_JSON, ["json"]),
        ("indicators", SEASON_CSV, ["csv", "json"]),
    ],
    ids=["table_csv", "evolution_csv", "ecdf_csv", "table_json", "indicators_csv"],
)
def test_a_run_loads_csv_and_json_only_where_it_reads_or_writes_them(
    tmp_path, command, season, loaded
):
    code = "import sys; from timescore.cli import main; main(sys.argv[1:])"
    argv = (command, "--input", str(season), "--out", str(tmp_path))
    assert _loaded_after(code, *argv) == loaded


# argparse wraps its usage and help to the terminal width; these are its
# texts at 80 columns.
_USAGE = (
    "usage: timescore [--help] --input FILE [--systems SYSTEMS] [--weights WEIGHTS]\n"
    "                 --out DIR [--decimals {0,1,2,3}] [--decimal-comma]\n"
    "                 COMMAND\n"
)
_HELP = _USAGE + """
Recompute league standings and competitiveness reports from goal timelines.

positional arguments:
  COMMAND               one of the commands below

options:
  --help                Show this message and exit.
  --input FILE          Season file, CSV or JSON (told apart by its content).
  --systems SYSTEMS     Comma-separated scoring systems:
                        classic,time,mixed,goaldiff (default: classic,time).
  --weights WEIGHTS     Weights W,D,L for the time system (integers, decimals
                        or fractions; default: 3,1,0).
  --out DIR             Output directory (created if missing).
  --decimals {0,1,2,3}  Decimal places for points columns (default: 2).
  --decimal-comma       Render decimal values with a comma separator.

commands:
  table       the final tables side by side: table.csv
  evolution   each round's ranks and points: evolution_<system>.csv
  indicators  season competitiveness indicators: indicators.csv, indicators.json
  ecdf        distribution of per-team match awards: ecdf_<system>.csv
  report      every file above from one parse, written only once all succeed
"""
_BAD_COMMAND = (
    "argument COMMAND: invalid choice: 'tabel'"
    " (choose from 'table', 'evolution', 'indicators', 'ecdf', 'report')"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["table", "--out", "{out}"], "the following arguments are required: --input"),
        (["table", "--input", str(SEASON_CSV)], "the following arguments are required: --out"),
        (["table", "--input", str(SEASON_CSV), "--out", "{out}", "--decimals", "4"],
         "argument --decimals: invalid choice: 4 (choose from 0, 1, 2, 3)"),
        (["table", "--input", str(SEASON_CSV), "--out", "{out}", "--format", "json"],
         "unrecognized arguments: --format json"),
        (["tabel", "--input", str(SEASON_CSV), "--out", "{out}"], _BAD_COMMAND),
        (["--input", str(SEASON_CSV), "--out", "{out}"],
         "the following arguments are required: COMMAND"),
        ([], "the following arguments are required: COMMAND, --input, --out"),
        (["table", "--input"], "argument --input: expected one argument"),
        (["table", "--input", str(SEASON_CSV), "--out", "{out}", "--decimals", "x"],
         "argument --decimals: invalid int value: 'x'"),
        (["table", "--input", str(SEASON_CSV), "--out", "{out}", "--decimal-comma=1"],
         "argument --decimal-comma: ignored explicit argument '1'"),
        # Tokens are read left to right: the bad command fails before --help.
        (["tabel", "--help"], _BAD_COMMAND),
    ],
    ids=["missing_input", "missing_out", "decimals_4", "no_format_option", "unknown_command",
         "no_command", "no_arguments", "input_without_value", "decimals_not_int",
         "flag_with_value", "unknown_command_before_help"],
)
def test_usage_errors_exit_two_and_write_nothing(tmp_path, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "out"
    result = run_cli([arg.format(out=out) for arg in argv])
    assert result.exit_code == 2
    assert result.stderr == f"{_USAGE}timescore: error: {message}\n"
    assert result.output == ""
    assert not out.exists()


# --help wins over a bad command after it, as it is read first.
@pytest.mark.parametrize("argv", [["--help"], ["--help", "tabel"]], ids=["alone", "before_command"])
def test_help_text_is_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == (0, _HELP, "")


def test_double_dash_ends_the_options(tmp_path):
    out = tmp_path / "out"
    result = run_cli(["--input", str(SEASON_CSV), "--out", str(out), "--", "table"])
    assert result == (0, f"{out / 'table.csv'}\n", "")
    assert (out / "table.csv").read_bytes() == (GOLDEN / "table.csv").read_bytes()


# Commands and near-misses, each option with and without "=", and tokens that
# argparse reads as arguments ("-1", "-", "") or as unknown options.
_ARGV_TOKENS = (
    "table", "report", "tabel", "Table", "x", "3", "", "-", "-1", "-.5", "-x", "--inp",
    "--inp=x", "--", "--help", "--help=", "--input", "--input=a", "--input=", "--out",
    "--out=b", "--systems", "--systems=time", "--weights", "--weights=-1,-2,-3", "-1,-2,-3",
    "--decimals", "--decimals=1", "--decimals=4", "--decimals=x", "--decimal-comma",
    "--decimal-comma=1",
)
_ORACLE = build_parser()


def _outcome(parse, argv):
    """("run", values) or ("exit", code) for one parse, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "run", parse(argv)
        except SystemExit as exc:
            return "exit", exc.code


@given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
@example(["--help", "tabel"])
@example(["tabel", "--help"])
@example(["-1", "--help"])
@example(["--input", "a", "--out", "b", "--", "table"])
@example(["table", "--input", "a", "--out", "b", "--"])
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_argparse(argv):
    # Before 3.13, argparse drops "--" as an option's value, leaving [] for the value.
    if sys.version_info < (3, 13):
        assume(not any(token.endswith("=--") for token in glue_values(argv)))
    oracle = _outcome(lambda tokens: vars(_ORACLE.parse_args(glue_values(tokens))), argv)
    assert _outcome(_read_args, argv) == oracle


def test_value_options_take_values_that_start_with_a_dash(tmp_path):
    # A negative first weight must reach the weight check, not the option parser.
    spaced = _invoke("table", tmp_path / "spaced", "--weights", "-1,-2,-3")
    glued = _invoke("table", tmp_path / "glued", "--weights=-1,-2,-3")
    assert spaced == glued
    assert spaced.exit_code == 1
    assert spaced.stderr.startswith("error: NON_POSITIVE_LEADER: ")


def test_a_double_dash_after_a_value_option_is_its_value(tmp_path):
    # Before Python 3.13, argparse turned this value into [] and the run crashed.
    result = _invoke("table", tmp_path / "out", "--systems", "--")
    assert result.exit_code == 1
    assert result.stderr == (
        "error: BAD_SYSTEMS: unknown scoring system '--'; choose from classic,time,mixed,goaldiff\n"
    )


def test_weight_past_the_digit_cap_exits_one_before_reading(tmp_path):
    weights = "1" + "0" * 5000 + ",1,0"
    result = _invoke("table", tmp_path / "out", "--weights", weights,
                     season=tmp_path / "missing.csv")
    assert result.exit_code == 1
    assert result.stderr == (
        "error: BAD_WEIGHTS: bad weight: 5001 digits, at most 100 digits allowed\n"
    )


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
