"""Season-file ingestion: domain records, validation, and the on-disk formats.

Two interchangeable formats are supported.

CSV (canonical)
    Header ``round,home,away,goals,length_min``, one fixture per row. The
    ``goals`` field is a comma-separated list of goal tokens (quoted when it
    contains commas). A token is ``SIDE:MINUTE`` or ``SIDE:MINUTE+STOPPAGE``
    with SIDE one of ``H``/``A``; stoppage notation denotes the absolute
    minute, so ``90+3`` and ``93`` parse identically. ``length_min`` is an
    optional integer match length in minutes (>= 90). Numbers are written in
    ASCII digits, at most :data:`MAX_NUMBER_DIGITS` of them. No goal time or
    length may exceed :data:`MAX_MATCH_LENGTH_S`.
    Example row::

        1,Leicester,Sunderland,"H:52,H:71",

JSON (mirror)
    An object ``{"league": str, "matches": [...]}``. Each match mirrors the
    CSV fields; its ``goals``, when present, is a list whose entries are
    either token strings as above or objects
    ``{"side": "H"|"A", "time_s": int, "precision": str}`` for data with
    better-than-minute resolution. Match length is ``length_min`` or,
    when not a whole number of minutes, ``length_s``. Team names must be
    JSON strings.

Both formats are UTF-8 (other bytes fail with code ENCODING); LF and CRLF
line endings are accepted. Goal times are stored internally as integer
seconds from kickoff, so minute-resolution input is scaled by 60 at parse time
and no floating point is involved anywhere.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import re
import sys
from fractions import Fraction
from typing import Any, Iterator

from .errors import (
    DuplicateFixtureError,
    EmptySeasonError,
    EncodingError,
    MalformedRowError,
    NonContiguousRoundsError,
    NonMonotonicGoalsError,
    SeasonDataError,
    UnknownFormatError,
)

SECONDS_PER_MINUTE = 60
REGULATION_LENGTH_S = 90 * SECONDS_PER_MINUTE
# The longest match accepted, stoppage and extra time included. It rejects
# absurd clocks such as ``H:99999999999``. It does not bound the lcm of a
# season's match lengths, which the season ledger checks (TOO_MANY_LENGTHS).
MAX_MATCH_LENGTH_S = 300 * SECONDS_PER_MINUTE
# The most digits a number in a season file, or a weight, may have. Numbers stay
# far below CPython's 4,300-digit int conversion limit, so an over-long one fails
# with a message that names its field.
MAX_NUMBER_DIGITS = 100

CSV_HEADER = ("round", "home", "away", "goals", "length_min")

# ASCII digits only: ``\d`` and ``int()`` would also take other scripts' digits,
# and ``int()`` takes ``_`` separators.
_GOAL_TOKEN_RE = re.compile(
    r"^(?P<side>[HA]):(?P<minute>\d+)(?:\+(?P<stoppage>\d+))?$", re.ASCII
)
_INT_RE = re.compile(r"[+-]?([0-9]+)")


class Side(enum.Enum):
    HOME = "H"
    AWAY = "A"


class TimePrecision(enum.Enum):
    """How a recorded goal time relates to the true time of the goal."""

    MINUTE_TRUNCATED = "minute_truncated"
    MINUTE_ROUNDED = "minute_rounded"
    EXACT = "exact"


# Each member by its value, for the JSON goal fields (see _member).
_SIDES = {side.value: side for side in Side}
_PRECISIONS = {precision.value: precision for precision in TimePrecision}


class SeasonFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


# Worst-case timing slack (seconds) a single recorded goal can hide.
_PRECISION_SLACK_S = {
    TimePrecision.MINUTE_TRUNCATED: 59,
    TimePrecision.MINUTE_ROUNDED: 30,
    TimePrecision.EXACT: 0,
}


class FrozenRecord:
    """Base of the validated records: immutable, compared and hashed by value.

    A subclass names its fields in ``__slots__``, validates in ``__init__`` and
    stores each field with ``object.__setattr__``; any later assignment raises
    AttributeError. Records of different classes, tuples included, never
    compare equal.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GoalEvent(FrozenRecord):
    """One scored goal, timed in whole seconds from kickoff (1 to MAX_MATCH_LENGTH_S)."""

    __slots__ = ("side", "time_s", "precision")
    side: Side
    time_s: int
    precision: TimePrecision

    def __init__(
        self, side: Side, time_s: int, precision: TimePrecision = TimePrecision.EXACT
    ) -> None:
        if time_s < 1:
            raise MalformedRowError(f"goal time must be at least 1 second, got {time_s}")
        if time_s > MAX_MATCH_LENGTH_S:
            raise MalformedRowError(
                f"goal time is past the longest allowed match ({MAX_MATCH_LENGTH_S} s)"
            )
        _set = object.__setattr__
        _set(self, "side", side)
        _set(self, "time_s", time_s)
        _set(self, "precision", precision)


class MatchRecord(FrozenRecord):
    """One fixture: round number, sides, ordered goals, optional length override.

    Team names are trimmed on construction and may not hold a NUL, which
    Python 3.10's csv writer cannot write. Goal times must strictly increase
    (two goals can never share the same second). A declared length, when
    present, must cover both the 90-minute regulation span and every goal,
    and may not exceed MAX_MATCH_LENGTH_S.
    """

    __slots__ = ("round", "home", "away", "goals", "declared_length_s")
    round: int
    home: str
    away: str
    goals: tuple[GoalEvent, ...]
    declared_length_s: int | None

    def __init__(
        self,
        round: int,
        home: str,
        away: str,
        goals: tuple[GoalEvent, ...] = (),
        declared_length_s: int | None = None,
    ) -> None:
        home = home.strip()
        away = away.strip()
        goals = tuple(goals)
        if round < 1:
            raise MalformedRowError(f"round must be a positive integer, got {round}")
        if not home or not away:
            raise MalformedRowError("team names must be non-empty")
        if "\0" in home or "\0" in away:
            raise MalformedRowError("team names must not contain a NUL character")
        if home == away:
            raise MalformedRowError(f"a team cannot play itself: {home!r}")
        for prev, cur in zip(goals, goals[1:]):
            if cur.time_s <= prev.time_s:
                raise NonMonotonicGoalsError(
                    f"goal times must strictly increase, got {prev.time_s} s "
                    f"followed by {cur.time_s} s"
                )
        if declared_length_s is not None:
            if declared_length_s < REGULATION_LENGTH_S:
                raise MalformedRowError(
                    f"declared length {declared_length_s} s is shorter than "
                    f"regulation ({REGULATION_LENGTH_S} s)"
                )
            if declared_length_s > MAX_MATCH_LENGTH_S:
                raise MalformedRowError(
                    f"declared length is longer than the longest allowed match "
                    f"({MAX_MATCH_LENGTH_S} s)"
                )
            if goals and declared_length_s < goals[-1].time_s:
                raise MalformedRowError(
                    f"declared length {declared_length_s} s precedes the "
                    f"last goal at {goals[-1].time_s} s"
                )
        _set = object.__setattr__
        _set(self, "round", round)
        _set(self, "home", home)
        _set(self, "away", away)
        _set(self, "goals", goals)
        _set(self, "declared_length_s", declared_length_s)


class SeasonDataset(FrozenRecord):
    """A validated collection of fixtures for one league season.

    Each ordered (home, away) pairing may appear at most once, and round
    numbers must form a contiguous range starting at 1.
    """

    __slots__ = ("league_name", "matches")
    league_name: str
    matches: tuple[MatchRecord, ...]

    def __init__(self, league_name: str = "", matches: tuple[MatchRecord, ...] = ()) -> None:
        matches = tuple(matches)
        seen: set[tuple[str, str]] = set()
        for m in matches:
            pair = (m.home, m.away)
            if pair in seen:
                raise DuplicateFixtureError(
                    f"fixture {m.home} vs {m.away} appears more than once"
                )
            seen.add(pair)
        # Rounds are at least 1, so they run 1..max exactly when there are max of them.
        rounds = {m.round for m in matches}
        if rounds and len(rounds) != max(rounds):
            raise NonContiguousRoundsError(
                "round numbers must form a contiguous range starting at 1"
            )
        _set = object.__setattr__
        _set(self, "league_name", league_name)
        _set(self, "matches", matches)

    @property
    def teams(self) -> tuple[str, ...]:
        names = {m.home for m in self.matches} | {m.away for m in self.matches}
        return tuple(sorted(names))

    @property
    def num_rounds(self) -> int:
        return max((m.round for m in self.matches), default=0)


def parse_goal_token(token: str, precision: TimePrecision) -> GoalEvent:
    """Parse one ``SIDE:MINUTE[+STOPPAGE]`` token into a GoalEvent."""
    m = _GOAL_TOKEN_RE.match(token.strip())
    if m is None:
        raise MalformedRowError(f"bad goal token {token!r}")
    minute, stoppage = m.group("minute"), m.group("stoppage") or "0"
    _check_digits(minute, "goal minute")
    _check_digits(stoppage, "goal minute")
    return GoalEvent(
        side=Side(m.group("side")),
        time_s=(int(minute) + int(stoppage)) * SECONDS_PER_MINUTE,
        precision=precision,
    )


def _check_digits(digits: str, what: str) -> None:
    if len(digits) > MAX_NUMBER_DIGITS:
        raise MalformedRowError(
            f"bad {what}: {len(digits)} digits, at most {MAX_NUMBER_DIGITS} digits allowed"
        )


class _TokenMemo(dict):
    """Goal token -> GoalEvent, each distinct token parsed once per season file.

    Seasons repeat a few hundred distinct tokens across thousands of goals, and
    GoalEvent is frozen, so the CSV goals field and JSON token strings share one
    parsed event per token.
    """

    def __init__(self, precision: TimePrecision) -> None:
        self.precision = precision

    def __missing__(self, token: str) -> GoalEvent:
        goal = self[token] = parse_goal_token(token, self.precision)
        return goal


def _coerce_format(fmt: SeasonFormat | str) -> SeasonFormat:
    if isinstance(fmt, SeasonFormat):
        return fmt
    try:
        return SeasonFormat(str(fmt).lower())
    except ValueError:
        raise UnknownFormatError(f"unknown season format {fmt!r}") from None


def _located(err: SeasonDataError, line: int) -> SeasonDataError:
    return type(err)(err.message, line=line)


def parse_season(
    data: bytes | str,
    fmt: SeasonFormat | str,
    *,
    minute_precision: TimePrecision = TimePrecision.MINUTE_TRUNCATED,
) -> SeasonDataset:
    """Parse season file content into a validated :class:`SeasonDataset`.

    Args:
        data: Raw file content (UTF-8 bytes or already-decoded text).
        fmt: ``SeasonFormat`` or the strings ``"csv"`` / ``"json"``.
        minute_precision: Precision flag given to goals supplied as minute
            tokens (sources differ in whether they truncate or round).

    Raises:
        SeasonDataError: with code MALFORMED_ROW (row/line reported),
            DUPLICATE_FIXTURE, NONMONOTONIC_GOALS, NONCONTIGUOUS_ROUNDS,
            UNKNOWN_FORMAT, ENCODING for bytes that are not UTF-8, or
            EMPTY_SEASON for an entirely empty file.
    """
    fmt = _coerce_format(fmt)
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise EncodingError(
                f"season file is not UTF-8: {exc.reason} at byte {exc.start}",
                line=data.count(b"\n", 0, exc.start) + 1,
            ) from None
    else:
        text = data.lstrip("\ufeff")
    if not text.strip():
        raise EmptySeasonError("season file is empty")
    if fmt is SeasonFormat.CSV:
        return _parse_csv(text, minute_precision)
    return _parse_json(text, minute_precision)


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each CSV row; a line the csv module rejects fails as MALFORMED_ROW."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # e.g. a bare carriage return, or an oversized field
        raise MalformedRowError(f"bad CSV line: {exc}", line=reader.line_num) from None


def _csv_int(field: str, what: str) -> int:
    """An integer CSV field: an optional sign and ASCII digits, spaces around allowed.

    More than MAX_NUMBER_DIGITS digits fail as MALFORMED_ROW.
    """
    m = _INT_RE.fullmatch(field.strip())
    if m is None:
        raise MalformedRowError(f"bad {what} {field!r}")
    _check_digits(m.group(1), what)
    return int(field)


def _parse_csv(text: str, minute_precision: TimePrecision) -> SeasonDataset:
    rows = _csv_rows(text)
    try:
        _, header = next(rows)
    except StopIteration:
        raise EmptySeasonError("season file is empty") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedRowError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    matches = []
    tokens = _TokenMemo(minute_precision)
    for line, row in rows:
        if not row:
            continue  # blank line
        if len(row) != len(CSV_HEADER):
            raise MalformedRowError(
                f"expected {len(CSV_HEADER)} fields, got {len(row)}", line=line
            )
        round_text, home, away, goals_field, length_field = row
        try:
            round_no = _csv_int(round_text, "round number")
            goals = []
            for tok in goals_field.split(","):
                goal = tokens.get(tok)
                if goal is None:
                    if not tok.strip():
                        continue  # empty field or stray comma
                    goal = tokens[tok]
                goals.append(goal)
            declared = None
            if length_field.strip():
                declared = _csv_int(length_field, "length_min value") * SECONDS_PER_MINUTE
            matches.append(
                MatchRecord(
                    round=round_no,
                    home=home,
                    away=away,
                    goals=goals,
                    declared_length_s=declared,
                )
            )
        except SeasonDataError as err:
            raise _located(err, line) from None
    return SeasonDataset(matches=tuple(matches))


def _require_int(value: Any, what: str) -> int:
    # JSON yields exact types, so this also rejects true and false.
    if type(value) is not int:
        raise MalformedRowError(f"{what} must be an integer, got {value!r}")
    return value


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedRowError(f"{what} must be a string, got {value!r}")
    return value


def _member(members: dict, enum_cls: type[enum.Enum], value: Any) -> Any:
    """``members[value]``, else ``enum_cls(value)``, which raises the enum's own error.

    Unhashable values miss too. The dict lookup is much cheaper than
    ``Enum.__call__``, which only a miss pays.
    """
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum_cls(value)


def _parse_json_goal(entry: Any, tokens: _TokenMemo) -> GoalEvent:
    if type(entry) is dict:
        try:
            side = _member(_SIDES, Side, entry["side"])
            raw_time = entry["time_s"]
            precision = _member(_PRECISIONS, TimePrecision, entry.get("precision", "exact"))
        except (KeyError, ValueError) as exc:
            raise MalformedRowError(f"bad goal object {entry!r}: {exc}") from None
        return GoalEvent(side, _require_int(raw_time, "goal time_s"), precision)
    if type(entry) is str:
        return tokens[entry]
    raise MalformedRowError(f"goal entry must be a token string or object, got {entry!r}")


def _parse_json(text: str, minute_precision: TimePrecision) -> SeasonDataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRowError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError:  # an integer with more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise MalformedRowError(
            f"invalid JSON: an integer has more than {limit} digits",
            line=_long_integer_line(text, limit),
        ) from None
    except RecursionError:
        raise MalformedRowError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("matches"), list):
        raise MalformedRowError('top level must be an object with a "matches" list')
    league = doc.get("league", "")
    if not isinstance(league, str):
        raise MalformedRowError('"league" must be a string')
    matches = []
    tokens = _TokenMemo(minute_precision)
    for i, obj in enumerate(doc["matches"], start=1):
        try:
            if not isinstance(obj, dict):
                raise MalformedRowError("match entry must be an object")
            length_min, length_s = obj.get("length_min"), obj.get("length_s")
            if length_min is not None and length_s is not None:
                raise MalformedRowError("give length_min or length_s, not both")
            declared = None
            if length_min is not None:
                declared = _require_int(length_min, "length_min") * SECONDS_PER_MINUTE
            elif length_s is not None:
                declared = _require_int(length_s, "length_s")
            entries = obj.get("goals", [])
            if type(entries) is not list:
                raise MalformedRowError(f"goals must be a list, got {entries!r}")
            goals = [_parse_json_goal(entry, tokens) for entry in entries]
            matches.append(
                MatchRecord(
                    round=_require_int(obj["round"], "round"),
                    home=_require_str(obj["home"], "home"),
                    away=_require_str(obj["away"], "away"),
                    goals=goals,
                    declared_length_s=declared,
                )
            )
        except SeasonDataError as err:
            raise type(err)(f"match {i}: {err.message}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRowError(f"match {i}: {exc}") from None
    return SeasonDataset(league_name=league, matches=tuple(matches))


# A JSON string, or a JSON number. Left to re's cache, not compiled at import:
# only a failed parse uses it.
_JSON_SCALAR = r'"(?:[^"\\]|\\.)*"|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?'


def _long_integer_line(text: str, limit: int) -> int | None:
    """The line of the first JSON integer with more than ``limit`` digits.

    json.loads has read the text up to that integer, so up to there the text
    is valid JSON: strings are skipped whole, and numbers with a fraction or
    an exponent are floats.
    """
    for m in re.finditer(_JSON_SCALAR, text):
        digits = m.group().lstrip("-")
        if len(digits) > limit and digits.isdigit():
            return text.count("\n", 0, m.start()) + 1
    return None


def serialize_season(dataset: SeasonDataset, fmt: SeasonFormat | str) -> str:
    """Render a dataset back to file text.

    CSV can only represent whole-minute goal times with one uniform
    non-EXACT precision and no league name; anything else raises ValueError
    (use JSON, which round-trips every valid dataset).
    """
    fmt = _coerce_format(fmt)
    if fmt is SeasonFormat.CSV:
        return _serialize_csv(dataset)
    return _serialize_json(dataset)


def _serialize_csv(dataset: SeasonDataset) -> str:
    if dataset.league_name:
        raise ValueError("CSV has no league field; use the JSON format")
    precisions = {g.precision for m in dataset.matches for g in m.goals}
    if TimePrecision.EXACT in precisions or len(precisions) > 1:
        raise ValueError(
            "CSV carries minute-resolution goals with one uniform precision; "
            "use the JSON format"
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for m in dataset.matches:
        if m.declared_length_s is None:
            length = ""
        elif m.declared_length_s % SECONDS_PER_MINUTE == 0:
            length = str(m.declared_length_s // SECONDS_PER_MINUTE)
        else:
            raise ValueError(
                f"declared length {m.declared_length_s} s is not a whole minute; "
                "use the JSON format"
            )
        tokens = []
        for g in m.goals:
            if g.time_s % SECONDS_PER_MINUTE != 0:
                raise ValueError(
                    f"goal at {g.time_s} s is not on a whole minute; "
                    "use the JSON format for second-resolution data"
                )
            tokens.append(f"{g.side.value}:{g.time_s // SECONDS_PER_MINUTE}")
        writer.writerow([m.round, m.home, m.away, ",".join(tokens), length])
    return out.getvalue()


def _serialize_json(dataset: SeasonDataset) -> str:
    matches = []
    for m in dataset.matches:
        entry: dict[str, Any] = {
            "round": m.round,
            "home": m.home,
            "away": m.away,
            "goals": [
                {"side": g.side.value, "time_s": g.time_s, "precision": g.precision.value}
                for g in m.goals
            ],
        }
        if m.declared_length_s is not None:
            if m.declared_length_s % SECONDS_PER_MINUTE == 0:
                entry["length_min"] = m.declared_length_s // SECONDS_PER_MINUTE
            else:
                entry["length_s"] = m.declared_length_s
        matches.append(entry)
    doc = {"league": dataset.league_name, "matches": matches}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def minute_error_bound(dataset: SeasonDataset) -> Fraction:
    """Worst-case per-match points error implied by the goal-time precision flags.

    Each goal recorded at minute resolution can be off by up to 59 s when the
    source truncates (30 s when it rounds to the nearest minute), and a timing
    shift of d seconds moves at most 2·d/5400 points between the two sides of
    a 90-minute match. Per-goal bounds are summed within each match and the
    maximum over all matches is returned, as an exact rational.
    """
    worst = Fraction(0)
    for m in dataset.matches:
        bound = sum(
            (
                Fraction(2 * _PRECISION_SLACK_S[g.precision], REGULATION_LENGTH_S)
                for g in m.goals
            ),
            Fraction(0),
        )
        worst = max(worst, bound)
    return worst
