"""Error types shared across the package.

Every failure caused by user-supplied data carries a stable ``code`` string
so batch callers can match on it without parsing prose. The code is always
the first token of ``str(error)``.
"""

from __future__ import annotations


class SeasonDataError(ValueError):
    """A season file or derived structure violates the data contract."""

    code = "DATA_ERROR"

    def __init__(self, message: str, *, line: int | None = None):
        self.message = message
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"{self.code}: {message}{suffix}")


class MalformedRowError(SeasonDataError):
    code = "MALFORMED_ROW"


class EncodingError(SeasonDataError):
    code = "ENCODING"


class DuplicateFixtureError(SeasonDataError):
    code = "DUPLICATE_FIXTURE"


class NonMonotonicGoalsError(SeasonDataError):
    code = "NONMONOTONIC_GOALS"


class NonContiguousRoundsError(SeasonDataError):
    code = "NONCONTIGUOUS_ROUNDS"


class UnknownFormatError(SeasonDataError):
    code = "UNKNOWN_FORMAT"


class EmptySeasonError(SeasonDataError):
    code = "EMPTY_SEASON"


class TooFewTeamsError(SeasonDataError):
    code = "TOO_FEW_TEAMS"


class WrongSystemError(SeasonDataError):
    code = "WRONG_SYSTEM"


class NonPositiveLeaderError(SeasonDataError):
    code = "NON_POSITIVE_LEADER"


class TooManyLengthsError(SeasonDataError):
    code = "TOO_MANY_LENGTHS"
