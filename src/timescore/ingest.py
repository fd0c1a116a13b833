"""Season-file ingestion: domain records, and parsing and validation of the on-disk formats.

Two interchangeable formats are supported; :func:`parse_season` tells them
apart by the content.

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
    ``{"side": "H"|"A", "time_s": int, "precision": str}``, with precision
    ``exact`` (the default), ``minute_truncated`` or ``minute_rounded``. Match
    length is ``length_min`` or, when not a whole number of minutes,
    ``length_s``. Team names must be JSON strings.

Both formats are UTF-8 (other bytes fail with code ENCODING); LF and CRLF
line endings are accepted. A parsed goal is one signed int: its time in whole
seconds from kickoff, positive for a home goal and negative for an away goal,
so minute-resolution input is scaled by 60 at parse time and no floating point
is involved anywhere. A minute token, in CSV or JSON, is a truncated minute; a
source that rounds says so per JSON goal object. A goal's precision is kept
only as the timing slack it adds to its match's ``slack_s``: 59 s for a
truncated minute, 30 s for a rounded one and 0 for an exact second.
"""

from __future__ import annotations

import io
import re
import sys
from operator import itemgetter
from typing import Any

from .errors import (
    DuplicateFixtureError,
    EmptySeasonError,
    EncodingError,
    MalformedRowError,
    NonContiguousRoundsError,
    NonMonotonicGoalsError,
    SeasonDataError,
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


# The sign of a goal's time by its side, and the worst-case timing slack in
# seconds that one recorded goal can hide, by its precision. A minute token is
# a truncated minute.
_SIGNS = {"H": 1, "A": -1}
_SLACK_S = {"minute_truncated": 59, "minute_rounded": 30, "exact": 0}
_TOKEN_SLACK_S = _SLACK_S["minute_truncated"]


class FrozenRecord(tuple):
    """Base of the validated records: tuples of their fields, compared and hashed by value.

    A subclass lists its fields in ``_fields``, validates in ``__new__`` and
    returns ``tuple.__new__(cls, values)``; each field reads through a
    read-only property, so assigning or deleting one raises AttributeError.
    Records of different classes, tuples included, never compare equal, and
    records have no order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _unordered(self, other: object) -> bool:
        raise TypeError(f"{type(self).__name__} records have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


def _check_goal_time(time_s: int) -> None:
    """Fail as MALFORMED_ROW unless a goal at ``time_s`` seconds falls in 1..MAX_MATCH_LENGTH_S."""
    if time_s < 1:
        raise MalformedRowError(f"goal time must be at least 1 second, got {time_s}")
    if time_s > MAX_MATCH_LENGTH_S:
        raise MalformedRowError(
            f"goal time is past the longest allowed match ({MAX_MATCH_LENGTH_S} s)"
        )


def _check_no_lone_surrogate(text: str, what: str) -> None:
    """Fail as MALFORMED_ROW if ``text`` holds a lone surrogate, which UTF-8 cannot encode."""
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            raise MalformedRowError(
                f"{what} must not contain a lone surrogate, got {text!r}"
            ) from None


class MatchRecord(FrozenRecord):
    """One fixture: round number, sides, ordered goals, optional length override, clock split.

    Each goal is its time in whole seconds from kickoff, 1 to
    MAX_MATCH_LENGTH_S, signed by its side: ``+time_s`` for a home goal and
    ``-time_s`` for an away goal. Goal times must strictly increase (two
    goals can never share the same second). ``slack_s`` sums the timing slack
    of the goals' precisions (see :func:`minute_error_bound`).

    ``timeline`` is derived in the walk that checks the goals: the home side's
    leading, level and trailing seconds, the effective length T (the declared
    length, else 90' or the last goal if later) and the home and away goals.
    The intervals between goals are left-closed and right-open, each booked by
    the score sign at its start, so the three durations sum exactly to T.

    Team names are trimmed on construction and may not hold a NUL, which is
    part of no name and which readers of the report files, such as Python
    3.10's csv reader, stop at, nor a lone surrogate, which UTF-8 cannot
    encode. A declared length, when present, must cover
    both the 90-minute regulation span and every goal, and may not exceed
    MAX_MATCH_LENGTH_S.
    """

    __slots__ = ()
    _fields = ("round", "home", "away", "goals", "declared_length_s", "slack_s", "timeline")
    round: int
    home: str
    away: str
    goals: tuple[int, ...]
    declared_length_s: int | None
    slack_s: int
    timeline: tuple[int, int, int, int, int, int]

    def __new__(
        cls,
        round: int,
        home: str,
        away: str,
        goals: tuple[int, ...] = (),
        declared_length_s: int | None = None,
        slack_s: int = 0,
    ) -> MatchRecord:
        return _match_record(round, home, away, goals, declared_length_s, slack_s, {})


def _match_record(
    round: int, home: str, away: str, goals: Any, declared: int | None, slack_s: int, names: dict
) -> MatchRecord:
    """Every checked :class:`MatchRecord`, parsed or built directly, is built here.

    ``names`` maps each raw team name seen in one file to its trimmed, checked
    name (one shared str per team); two known, different names skip those checks.
    """
    if round < 1:
        raise MalformedRowError(f"round must be a positive integer, got {round}")
    home_name, away_name = names.get(home), names.get(away)
    if home_name is None or away_name is None or home_name is away_name:
        home_name, away_name = home.strip(), away.strip()
        if not home_name or not away_name:
            raise MalformedRowError("team names must be non-empty")
        if "\0" in home_name or "\0" in away_name:
            raise MalformedRowError("team names must not contain a NUL character")
        for name in (home_name, away_name):
            _check_no_lone_surrogate(name, "team names")
        if home_name == away_name:
            raise MalformedRowError(f"a team cannot play itself: {home_name!r}")
        names[home] = home_name = names.setdefault(home_name, home_name)
        names[away] = away_name = names.setdefault(away_name, away_name)
    goals = tuple(goals)
    # One pass checks each goal's range and order and books the span before
    # it by the score at its start. The parser checks each goal's range as
    # it reads it, so a parsed match can fail here only on the order.
    win = draw = lose = 0
    diff = 0  # home goals minus away goals so far
    last = 0
    for goal in goals:
        time_s = goal if goal > 0 else -goal
        if not last < time_s <= MAX_MATCH_LENGTH_S:
            _check_goal_time(time_s)
            raise NonMonotonicGoalsError(
                f"goal times must strictly increase, got {last} s followed by {time_s} s"
            )
        if diff > 0:
            win += time_s - last
        elif diff == 0:
            draw += time_s - last
        else:
            lose += time_s - last
        diff += 1 if goal > 0 else -1
        last = time_s
    if declared is not None:
        if declared < REGULATION_LENGTH_S:
            raise MalformedRowError(
                f"declared length {declared} s is shorter than regulation ({REGULATION_LENGTH_S} s)"
            )
        if declared > MAX_MATCH_LENGTH_S:
            raise MalformedRowError(
                f"declared length is longer than the longest allowed match ({MAX_MATCH_LENGTH_S} s)"
            )
        if declared < last:
            raise MalformedRowError(
                f"declared length {declared} s precedes the last goal at {last} s"
            )
    t_match = declared
    if t_match is None:
        t_match = last if last > REGULATION_LENGTH_S else REGULATION_LENGTH_S
    if diff > 0:
        win += t_match - last
    elif diff == 0:
        draw += t_match - last
    else:
        lose += t_match - last
    home_goals = (len(goals) + diff) >> 1
    timeline = (win, draw, lose, t_match, home_goals, home_goals - diff)
    return tuple.__new__(
        MatchRecord, (round, home_name, away_name, goals, declared, slack_s, timeline)
    )


# Field readers of a MatchRecord, by position: one call per record, no property read.
_ROUND, _HOME, _AWAY = map(itemgetter, range(3))
_PAIR = itemgetter(1, 2)


class SeasonDataset(FrozenRecord):
    """A validated collection of fixtures for one league season.

    Each ordered (home, away) pairing may appear at most once, and round
    numbers must form a contiguous range starting at 1.
    """

    __slots__ = ()
    _fields = ("league_name", "matches")
    league_name: str
    matches: tuple[MatchRecord, ...]

    def __new__(
        cls, league_name: str = "", matches: tuple[MatchRecord, ...] = ()
    ) -> SeasonDataset:
        matches = tuple(matches)
        pairs = list(map(_PAIR, matches))
        if len(set(pairs)) != len(pairs):  # a pass in file order names the first duplicate
            seen: set[tuple[str, str]] = set()
            for pair in pairs:
                if pair in seen:
                    raise DuplicateFixtureError(
                        "fixture {} vs {} appears more than once".format(*pair)
                    )
                seen.add(pair)
        # Rounds are at least 1, so they run 1..max exactly when there are max of them.
        rounds = set(map(_ROUND, matches))
        if rounds and len(rounds) != max(rounds):
            raise NonContiguousRoundsError(
                "round numbers must form a contiguous range starting at 1"
            )
        return tuple.__new__(cls, (league_name, matches))

    @property
    def teams(self) -> tuple[str, ...]:
        names = set(map(_HOME, self.matches)).union(map(_AWAY, self.matches))
        return tuple(sorted(names))

    @property
    def num_rounds(self) -> int:
        return max(map(_ROUND, self.matches), default=0)


def parse_goal_token(token: str) -> int:
    """Parse one ``SIDE:MINUTE[+STOPPAGE]`` token into a signed goal time in seconds."""
    m = _GOAL_TOKEN_RE.match(token.strip())
    if m is None:
        raise MalformedRowError(f"bad goal token {token!r}")
    minute, stoppage = m.group("minute"), m.group("stoppage") or "0"
    _check_digits(minute, "goal minute")
    _check_digits(stoppage, "goal minute")
    time_s = (int(minute) + int(stoppage)) * SECONDS_PER_MINUTE
    _check_goal_time(time_s)
    return _SIGNS[m.group("side")] * time_s


def _check_digits(digits: str, what: str) -> None:
    if len(digits) > MAX_NUMBER_DIGITS:
        raise MalformedRowError(
            f"bad {what}: {len(digits)} digits, at most {MAX_NUMBER_DIGITS} digits allowed"
        )


class _TokenMemo(dict):
    """Goal token -> signed goal time, each distinct token parsed once per season file.

    Seasons repeat a few hundred distinct tokens across thousands of goals, so
    the CSV goals field and JSON token strings share one parse per token. Every
    token is a truncated minute, with ``_TOKEN_SLACK_S`` of slack.
    """

    def __missing__(self, token: str) -> int:
        goal = self[token] = parse_goal_token(token)
        return goal


def _located(err: SeasonDataError, line: int) -> SeasonDataError:
    return type(err)(err.message, line=line)


def parse_season(data: bytes | str) -> SeasonDataset:
    """Parse season file content into a validated :class:`SeasonDataset`.

    The content picks the parser: text whose first character after one BOM
    and any leading whitespace is ``{`` or ``[`` is JSON, anything else CSV.
    A minute token is a truncated minute; a rounded one is a JSON goal object
    with ``"precision": "minute_rounded"``.

    Args:
        data: Raw file content (UTF-8 bytes or already-decoded text).

    Raises:
        SeasonDataError: with code MALFORMED_ROW (row/line reported),
            DUPLICATE_FIXTURE, NONMONOTONIC_GOALS, NONCONTIGUOUS_ROUNDS,
            ENCODING for bytes that are not UTF-8, or EMPTY_SEASON for an
            entirely empty file.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise EncodingError(
                f"season file is not UTF-8: {exc.reason} at byte {exc.start}",
                line=data.count(b"\n", 0, exc.start) + 1,
            ) from None
    else:
        text = data.removeprefix("\ufeff")  # one BOM, as utf-8-sig drops
    first = text.lstrip()[:1]
    if not first:
        raise EmptySeasonError("season file is empty")
    if first in "{[":
        return _parse_json(text)
    return _parse_csv(text)


def _csv_int(field: str, what: str) -> int:
    """An integer CSV field: an optional sign and ASCII digits, spaces around allowed.

    More than MAX_NUMBER_DIGITS digits fail as MALFORMED_ROW.
    """
    m = _INT_RE.fullmatch(field.strip())
    if m is None:
        raise MalformedRowError(f"bad {what} {field!r}")
    _check_digits(m.group(1), what)
    return int(field)


def _parse_csv(text: str) -> SeasonDataset:
    import csv  # here, not at the top: a run on a JSON season never loads it
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptySeasonError("season file is empty") from None
    except csv.Error as exc:
        raise _bad_csv_line(exc, reader.line_num) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedRowError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    matches = []
    tokens = _TokenMemo()
    names: dict[str, str] = {}
    # Round number and length texts -> their values; a season repeats each of them.
    round_numbers: dict[str, int] = {}
    lengths: dict[str, int] = {}
    try:
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != len(CSV_HEADER):
                raise MalformedRowError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            round_text, home, away, goals_field, length_field = row
            round_no = round_numbers.get(round_text)
            if round_no is None:
                round_no = round_numbers[round_text] = _csv_int(round_text, "round number")
            goals = []
            for tok in goals_field.split(","):
                goal = tokens.get(tok)
                if goal is None:
                    if not tok.strip():
                        continue  # empty field or stray comma
                    goal = tokens[tok]
                goals.append(goal)
            declared = lengths.get(length_field)
            if declared is None and length_field.strip():
                declared = _csv_int(length_field, "length_min value") * SECONDS_PER_MINUTE
                lengths[length_field] = declared
            matches.append(_match_record(
                round_no, home, away, goals, declared, len(goals) * _TOKEN_SLACK_S, names
            ))
    except csv.Error as exc:
        raise _bad_csv_line(exc, reader.line_num) from None
    except SeasonDataError as err:
        raise _located(err, reader.line_num) from None
    return SeasonDataset(matches=tuple(matches))


def _bad_csv_line(exc: Exception, line: int) -> MalformedRowError:
    """The error of a line the csv module rejects, e.g. a bare carriage return or a huge field."""
    return MalformedRowError(f"bad CSV line: {exc}", line=line)


def _require_int(value: Any, what: str) -> int:
    # JSON yields exact types, so this also rejects true and false.
    if type(value) is not int:
        raise MalformedRowError(f"{what} must be an integer, got {value!r}")
    return value


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedRowError(f"{what} must be a string, got {value!r}")
    return value


def _lookup(table: dict, value: Any, what: str) -> int:
    """``table[value]``; a miss, unhashable values included, is an enum-style ValueError."""
    try:
        return table[value]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not a valid {what}") from None


def _goal_object_error(entry: dict) -> MalformedRowError:
    """The error of a goal object whose side, time_s or precision is missing or bad."""
    try:
        _lookup(_SIGNS, entry["side"], "Side")
        entry["time_s"]
        _lookup(_SLACK_S, entry.get("precision", "exact"), "TimePrecision")
    except (KeyError, ValueError) as exc:
        return MalformedRowError(f"bad goal object {entry!r}: {exc}")
    raise AssertionError(f"goal object {entry!r} has no fault")


def _json_goals(entries: list, tokens: _TokenMemo) -> tuple[list[int], int]:
    """A match's JSON goal entries as signed goal times, and the sum of their slack."""
    goals = []
    slack_s = 0
    for entry in entries:
        if type(entry) is dict:
            # Plain lookups first: a goal object that fails one is diagnosed apart.
            try:
                sign = _SIGNS[entry["side"]]
                time_s = entry["time_s"]
                slack_s += _SLACK_S[entry.get("precision", "exact")]
            except (KeyError, TypeError):
                raise _goal_object_error(entry) from None
            if type(time_s) is not int or not 0 < time_s <= MAX_MATCH_LENGTH_S:
                _check_goal_time(_require_int(time_s, "goal time_s"))
            goals.append(sign * time_s)
        elif type(entry) is str:
            goals.append(tokens[entry])
            slack_s += _TOKEN_SLACK_S
        else:
            raise MalformedRowError(
                f"goal entry must be a token string or object, got {entry!r}"
            )
    return goals, slack_s


def _parse_json(text: str) -> SeasonDataset:
    import json  # here, not at the top: a run on a CSV season never loads it
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
    _check_no_lone_surrogate(league, '"league"')
    matches = []
    tokens = _TokenMemo()
    names: dict[str, str] = {}
    for i, obj in enumerate(doc["matches"], start=1):
        try:
            if not isinstance(obj, dict):
                raise MalformedRowError("match entry must be an object")
            declared, length_min = obj.get("length_s"), obj.get("length_min")
            if length_min is not None:
                if declared is not None:
                    raise MalformedRowError("give length_min or length_s, not both")
                if type(length_min) is not int:
                    _require_int(length_min, "length_min")
                declared = length_min * SECONDS_PER_MINUTE
            elif declared is not None and type(declared) is not int:
                _require_int(declared, "length_s")
            entries = obj.get("goals", [])
            if type(entries) is not list:
                raise MalformedRowError(f"goals must be a list, got {entries!r}")
            goals, slack_s = _json_goals(entries, tokens)
            # Read and check round, home, away in turn: the first fault is the one reported.
            round_no = obj["round"]
            if type(round_no) is not int:
                _require_int(round_no, "round")
            home = obj["home"]
            if type(home) is not str:
                _require_str(home, "home")
            away = obj["away"]
            if type(away) is not str:
                _require_str(away, "away")
            matches.append(_match_record(round_no, home, away, goals, declared, slack_s, names))
        except SeasonDataError as err:
            raise type(err)(f"match {i}: {err.message}") from None
        except KeyError as exc:
            raise MalformedRowError(f"match {i}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
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


def minute_error_bound(dataset: SeasonDataset) -> tuple[int, int]:
    """A bound on the per-match points error implied by the goals' time precisions.

    Each goal recorded at minute resolution can be off by up to 59 s when the
    source truncates (30 s when it rounds to the nearest minute), and a timing
    shift of d seconds is taken to move at most 2·d/5400 points between the two
    sides of a 90-minute match. The bound is linear in each goal's shift, so a
    match's bound is 2·slack_s/5400, with ``slack_s`` the sum of its goals'
    slacks; the maximum over all matches is returned as an unreduced int ratio.

    The bound holds for ``classic``, ``mixed`` and ``goaldiff``, and for ``time``
    when neither weight step (w−d or d−l) exceeds 2, as at the default 3,1,0. A
    larger step moves an award further: one truncated home goal at 30′ of a 90′
    match moves its ``time`` award by up to 59/600 at weights 10,1,0, where this
    bound gives 59/2700.
    """
    worst = max((m.slack_s for m in dataset.matches), default=0)
    return 2 * worst, REGULATION_LENGTH_S
