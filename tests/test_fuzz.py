"""Bundled season files with mutated bytes, run through the CLI.

Whatever the bytes, a command exits 0, exits 1 with an ``error: CODE:`` line,
or exits 2; it never ends in an uncaught exception.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from clirun import run_cli

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
