"""The one error type for faults in user-supplied data, and the list of its codes.

A bad season file or flag value raises :class:`SeasonDataError` with a stable
``code`` from :data:`CODES`, so batch callers can match on it without parsing
prose. The code is always the first token of ``str(error)``; the CLI prints
that text after ``error: `` and exits 1. The codes, and when each is raised:

- ``MALFORMED_ROW``: a row, field, goal token or JSON value breaks the format.
- ``ENCODING``: the season file's bytes are not UTF-8.
- ``DUPLICATE_FIXTURE``: an ordered (home, away) pairing appears twice.
- ``NONMONOTONIC_GOALS``: a match's goal times do not strictly increase.
- ``NONCONTIGUOUS_ROUNDS``: the round numbers do not run from 1 without a gap.
- ``EMPTY_SEASON``: the file is empty, or the season has no matches.
- ``TOO_MANY_LENGTHS``: the distinct match lengths have an lcm of more than 3,000 digits.
- ``NON_POSITIVE_LEADER``: a share of the leader is asked of a leader on zero or fewer points.
- ``TOO_FEW_TEAMS``: gaps are asked of fewer than three teams.
- ``WRONG_SYSTEM``: an indicator of one system is asked of another system's standings.
- ``BAD_SYSTEMS``: ``--systems`` names no system, or one that is unknown.
- ``BAD_WEIGHTS``: ``--weights`` is not three readable weights that strictly decrease.

A code outside :data:`CODES` is a programming error: the constructor raises
TypeError, which the CLI never prints as a data error.
"""

CODES = ("MALFORMED_ROW", "ENCODING", "DUPLICATE_FIXTURE", "NONMONOTONIC_GOALS",
         "NONCONTIGUOUS_ROUNDS", "EMPTY_SEASON", "TOO_MANY_LENGTHS", "NON_POSITIVE_LEADER",
         "TOO_FEW_TEAMS", "WRONG_SYSTEM", "BAD_SYSTEMS", "BAD_WEIGHTS")


class SeasonDataError(ValueError):
    """User-supplied data violates the data contract; ``code`` names how."""

    def __init__(self, code: str, message: str, *, line: int | None = None):
        if code not in CODES:
            raise TypeError(f"unknown error code {code!r}")
        self.code, self.message, self.line = code, message, line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{suffix}")
