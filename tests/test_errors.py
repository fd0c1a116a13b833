"""Every raise names a listed error code, and every listed code is printed by some input."""

import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clirun import run_cli
from timescore.errors import CODES, SeasonDataError
from timescore.indicators import minutes_to_upper
from timescore.ingest import MAX_MATCH_LENGTH_S, MatchRecord, SeasonDataset
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timescore"
HEADER = "round,home,away,goals,length_min\n"


def _calls_and_classes():
    """Each ``SeasonDataError(...)`` call in the package and each class deriving from it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("SeasonDataError"):
                yield path.name, node
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).endswith("SeasonDataError") for base in node.bases
            ):
                yield path.name, node


def test_every_raise_names_a_listed_code():
    # A code is the call's first argument: a literal from CODES, or the code
    # of the error being rebuilt with a location or a match number.
    calls, files = 0, set()
    for name, node in _calls_and_classes():
        assert isinstance(node, ast.Call), f"{name}: class {node.name} derives from SeasonDataError"
        first = node.args[0] if node.args else ast.Constant(None)
        literal = isinstance(first, ast.Constant) and first.value in CODES
        code = ast.unparse(first)
        assert literal or code == "err.code", f"{name}:{node.lineno}: code {code}"
        calls, files = calls + 1, files | {name}
    assert files == {"cli.py", "indicators.py", "ingest.py", "standings.py"}
    assert calls >= 40


def test_an_unlisted_code_is_a_type_error_not_a_data_error():
    with pytest.raises(TypeError, match="unknown error code 'MALFORMED'"):
        SeasonDataError("MALFORMED", "no such code")
    err = SeasonDataError("EMPTY_SEASON", "season file is empty", line=3)
    assert (err.code, err.message, err.line) == ("EMPTY_SEASON", "season file is empty", 3)
    assert str(err) == "EMPTY_SEASON: season file is empty (line 3)"


def _primes_from(start, count):
    primes = []
    for n in itertools.count(start):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            primes.append(n)
            if len(primes) == count:
                return primes


def _many_lengths_season() -> bytes:
    # 800 matches in one round, each a distinct prime number of seconds long:
    # their lcm has more than the ledger's 3,000 digits.
    lengths = _primes_from(MAX_MATCH_LENGTH_S - 8000, 800)
    pairs = itertools.permutations([f"T{i:02d}" for i in range(30)], 2)
    matches = [{"round": 1, "home": home, "away": away, "length_s": length}
               for (home, away), length in zip(pairs, lengths)]
    return json.dumps({"matches": matches}).encode()


def _wrong_system_line() -> str:
    season = SeasonDataset(matches=(MatchRecord(1, "A", "B", (60,)),))
    with pytest.raises(SeasonDataError) as excinfo:
        minutes_to_upper(SeasonLedger(season).final(scoring_rule(ScoringSystem.CLASSIC)))
    return f"error: {excinfo.value}\n"


# Each code: the command, flags and season file that print it, and the line printed.
# WRONG_SYSTEM has no command that reaches it, so its line is the library error's.
_CASES = {
    "MALFORMED_ROW": (
        "table", [], (HEADER + "1,A,B,X:1,\n").encode(),
        "MALFORMED_ROW: bad goal token 'X:1' (line 2)"),
    "ENCODING": (
        "table", [], (HEADER + "1,A,").encode() + b"\xffB,,\n",
        "ENCODING: season file is not UTF-8: invalid start byte at byte 37 (line 2)"),
    "DUPLICATE_FIXTURE": (
        "table", [], (HEADER + "1,A,B,,\n2,A,B,,\n").encode(),
        "DUPLICATE_FIXTURE: fixture A vs B appears more than once"),
    "NONMONOTONIC_GOALS": (
        "table", [], (HEADER + '1,A,B,"H:50,A:40",\n').encode(),
        "NONMONOTONIC_GOALS: goal times must strictly increase, got 3000 s followed by 2400 s"
        " (line 2)"),
    "NONCONTIGUOUS_ROUNDS": (
        "table", [], (HEADER + "2,A,B,,\n").encode(),
        "NONCONTIGUOUS_ROUNDS: round numbers must form a contiguous range starting at 1"),
    "EMPTY_SEASON": ("table", [], b"", "EMPTY_SEASON: season file is empty"),
    "TOO_MANY_LENGTHS": (
        "table", [], None,
        "TOO_MANY_LENGTHS: the 800 distinct match lengths have an lcm of more than 3000 digits,"
        " too large for exact points"),
    "NON_POSITIVE_LEADER": (
        "table", ["--systems", "time", "--weights", "2,0,-1"], (HEADER + "1,A,B,,\n").encode(),
        "NON_POSITIVE_LEADER: time leader A has 0 points; "
        "percentages of the leader need a positive leader"),
    "TOO_FEW_TEAMS": (
        "indicators", [], (HEADER + "1,A,B,H:10,\n").encode(),
        "TOO_FEW_TEAMS: need at least 3 teams, got 2"),
    "WRONG_SYSTEM": (
        None, [], None,
        "WRONG_SYSTEM: minutes-to-upper applies to time tables, got 'classic'"),
    "BAD_SYSTEMS": (
        "table", ["--systems", "classic,,elo"], (HEADER + "1,A,B,,\n").encode(),
        "BAD_SYSTEMS: unknown scoring system 'elo'; choose from classic,time,mixed,goaldiff"),
    "BAD_WEIGHTS": (
        "table", ["--weights", "3,x,0"], (HEADER + "1,A,B,,\n").encode(),
        "BAD_WEIGHTS: bad weight 'x': expected an integer, a decimal or a fraction a/b"),
}


def test_every_listed_code_has_a_printed_case():
    assert sorted(_CASES) == sorted(CODES)


@pytest.mark.parametrize("code", CODES)
def test_each_code_is_printed_first_on_its_error_line(tmp_path, code):
    command, flags, season, line = _CASES[code]
    if command is None:
        assert _wrong_system_line() == f"error: {line}\n"
        return
    path, out = tmp_path / "season", tmp_path / "out"
    path.write_bytes(_many_lengths_season() if season is None else season)
    result = run_cli([command, "--input", str(path), "--out", str(out), *flags])
    assert (result.exit_code, result.output, result.stderr) == (1, "", f"error: {line}\n")
    assert line.startswith(f"{code}: ")
    assert not out.exists()


_ONE_GIB = 1 << 30
_LIMITED_TABLE = f"""
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = {_ONE_GIB} if hard == resource.RLIM_INFINITY else min({_ONE_GIB}, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from timescore.cli import main
main(sys.argv[1:])
"""


@pytest.mark.skipif(
    resource is None or not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS"
)
def test_a_round_gap_fails_before_any_per_round_allocation(tmp_path):
    # One row in round 10**30: a ledger that booked a list per round before the
    # gap was refused would run out of the child's 1 GiB address space.
    season = tmp_path / "season.csv"
    season.write_text(HEADER + f"{10**30},A,B,,\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_TABLE, "table", "--input", str(season),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, (
        "error: NONCONTIGUOUS_ROUNDS: round numbers must form a contiguous range starting at 1\n"
    ))
