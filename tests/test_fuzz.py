"""Bundled season files with mutated bytes, run through the CLI, and JSON seasons with
mutated fields, run through the parser.

Whatever the bytes, a command exits 0, exits 1 with an ``error: CODE:`` line,
or exits 2; it never ends in an uncaught exception. Whatever the fields, the
JSON parser returns well-typed records or names the fault with its own check.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from clirun import run_cli
from timescore.errors import SeasonDataError
from timescore.ingest import parse_season

DATA = Path(__file__).resolve().parent.parent / "data"
SEASONS = (DATA / "synthetic_season.csv", DATA / "synthetic_season.json")
# Fragments that break quoting, nesting, number sizes, JSON types and string escapes.
FRAGMENTS = (
    b'"', b"[", b"]", b"{", b"}", b",", b":", b"+", b"H:", b"\r\n", b"\n",
    b"9" * 30, b"-" + b"9" * 30, b"null", b"true", b"\\ud800",
)
MUTATIONS = ("flip", "delete", "insert", "bom", "crlf")
CODED_ERROR = re.compile(r"error: [A-Z_]+: ")


@st.composite
def mutated_seasons(draw):
    """(suffix, bytes) of a bundled season after one to four mutations."""
    path = draw(st.sampled_from(SEASONS))
    data = bytearray(path.read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(MUTATIONS))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[at : at + draw(st.integers(0, 3))] = draw(st.sampled_from(FRAGMENTS))
        elif kind == "bom":
            data[:0] = b"\xef\xbb\xbf"
        elif kind == "crlf":
            data = bytearray(data.replace(b"\n", b"\r\n"))
    return path.suffix, bytes(data)


@given(mutated_seasons(), st.sampled_from(("table", "evolution", "indicators", "ecdf", "report")))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_mutated_season_files_exit_cleanly(season, command):
    suffix, data = season
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"season{suffix}"
        path.write_bytes(data)
        # run_cli lets any exception other than SystemExit propagate and fail the test.
        result = run_cli(
            [command, "--input", str(path), "--out", str(Path(tmp) / "out"),
             "--systems", "classic,time,mixed,goaldiff"]
        )
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert CODED_ERROR.match(result.stderr), result.stderr


# A valid two-match JSON season that uses every field.
_JSON_SEASON = {"league": "L", "matches": [
    {"round": 1, "home": "A", "away": "B", "length_min": 95,
     "goals": ["H:10", {"side": "A", "time_s": 1300, "precision": "minute_rounded"}]},
    {"round": 2, "home": "B", "away": "A", "length_s": 5600,
     "goals": [{"side": "H", "time_s": 70}]},
]}
# Every field an edit may delete or set, as a path of keys from the top.
_JSON_PATHS = (
    ("league",),
    *(("matches", i, key) for i in (0, 1)
      for key in ("round", "home", "away", "goals", "length_min", "length_s")),
    ("matches", 0, "goals", 0), ("matches", 0, "goals", 1), ("matches", 1, "goals", 0),
    *(("matches", i, "goals", j, key) for i, j in ((0, 1), (1, 0))
      for key in ("side", "time_s", "precision")),
)
_DELETE = object()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.sampled_from(["\ud800", "\x00", "H", "5", "exact"]) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["side", "time_s", "precision"]) | st.text(max_size=3),
                      children, max_size=3),
    max_leaves=6,
)


def _edit(doc, path, value):
    """Delete ``path`` in ``doc``, or set it to ``value``; skip a path an earlier edit broke."""
    *parents, last = path
    try:
        for key in parents:
            doc = doc[key]
        if value is _DELETE:
            del doc[last]
        else:
            doc[last] = value
    except (KeyError, IndexError, TypeError):
        pass


@given(st.lists(st.tuples(st.sampled_from(_JSON_PATHS), st.just(_DELETE) | _JSON_VALUES),
                min_size=1, max_size=2))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_each_json_match_fault_is_found_by_a_named_check(edits):
    # A fault in a match must be named by a check or a missing field, never by
    # the parser's catch-all for a TypeError or ValueError from an unchecked value.
    doc = copy.deepcopy(_JSON_SEASON)
    for path, value in edits:
        _edit(doc, path, value)
    try:
        season = parse_season(json.dumps(doc))
    except SeasonDataError as err:
        if err.message.startswith("match "):
            assert isinstance(err.__context__, (SeasonDataError, KeyError)), err
        return
    assert type(season.league_name) is str
    for match in season.matches:
        assert type(match.round) is int
        assert type(match.home) is str and type(match.away) is str
        assert all(type(goal) is int for goal in match.goals)
        assert match.declared_length_s is None or type(match.declared_length_s) is int
