"""Batch command-line front end: season file in, deterministic report files out.

``timescore COMMAND --input FILE --out DIR [options]``. Every command takes the same six
options, read by one small reader that keeps argparse's rules, and the usage and help are
fixed 80-column texts. The season file's content, not its name, picks the CSV or JSON
parser. The command picks its reports from one table, which also writes the help's command
list. Each report function turns the ledger into its files, so every byte of CSV and JSON
is laid out here; the other modules compute, and ``display`` renders values and cells. A
report builds each CSV file as columns of text, each headed by its header cell, and
``display.csv_text`` writes the file's text. The front end imports nothing outside the
standard library.

Exit codes: 0 on success, 1 for data/validation problems, 2 for I/O failures and for usage
errors. Identical inputs and flags always produce byte-identical outputs.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from .display import csv_text, format_ratios, ratio_text
from .errors import SeasonDataError
from .indicators import (
    ECDF_DECIMALS, draws_to_wins, ecdf_steps, gaps, minutes_to_upper, rank_changes
)
from .ingest import parse_season
from .scoring import ScoringRule, ScoringSystem, WeightTriple, scoring_rule
from .standings import SeasonLedger, Standings, percent_of_leader


# The system names, as --systems takes them: its help and its error list them.
_SYSTEM_NAMES = ",".join(system.value for system in ScoringSystem)


def _rules(systems: str, weights: str) -> list[ScoringRule]:
    """One rule per system --systems names, at the --weights weights; systems are read first."""
    tokens = [tok.strip() for tok in systems.split(",") if tok.strip()]
    if not tokens:
        raise SeasonDataError("BAD_SYSTEMS", "at least one scoring system is required")
    for tok in tokens:
        if tok.lower() not in _SYSTEM_NAMES.split(","):
            raise SeasonDataError(
                "BAD_SYSTEMS", f"unknown scoring system {tok!r}; choose from {_SYSTEM_NAMES}"
            )
    try:
        triple = WeightTriple.from_string(weights)
    except ValueError as exc:  # the plain ValueError that library callers get, given a code
        raise SeasonDataError("BAD_WEIGHTS", str(exc)) from None
    named = dict.fromkeys(ScoringSystem(tok.lower()) for tok in tokens)
    return [scoring_rule(system, triple) for system in named]


def table_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """table.csv: the final standings side by side, one rank-aligned block per rule.

    A time block adds a minutes-to-overtake column and a classic block a
    draws-to-wins column; the top row has no metric in either. A draws-to-wins
    count capped at the team's drawn matches renders as ``N*``.
    """
    columns = [["rank", *map(str, range(1, len(ledger.teams) + 1))]]
    finals: dict[ScoringSystem, Standings] = {}
    for rule in rules:
        standings = finals[rule.system] = ledger.final(rule)
        name = rule.system.value
        percents, leader = percent_of_leader(standings)
        points = map(standings.points.__getitem__, standings.order)
        columns += (
            [f"{name}_team", *map(standings.teams.__getitem__, standings.order)],
            [f"{name}_points", *format_ratios(points, standings.den, decimals, comma=comma)],
            [f"{name}_pct_of_1st", *format_ratios(percents, leader, 0, comma=comma)],
        )
    if ScoringSystem.TIME in finals:
        nums, den = minutes_to_upper(finals[ScoringSystem.TIME])
        columns.append(["time_min_to_upper", "", *format_ratios(nums, den, 0, comma=comma)])
    if ScoringSystem.CLASSIC in finals:
        metrics = draws_to_wins(finals[ScoringSystem.CLASSIC], ledger.draws)
        cells = [f"{n}*" if capped else str(n) for n, capped in metrics]
        columns.append(["classic_draws_to_wins", "", *cells])
    return {"table.csv": csv_text(columns)}


def evolution_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """evolution_<system>.csv: each round's (round, team, rank, points), long form for plotting."""
    # Each rule yields one Standings of all teams per round: one round and rank column for all.
    places = list(map(str, range(1, len(ledger.teams) + 1)))
    rounds = ["round", *(r for r in map(str, range(1, ledger.num_rounds + 1)) for _ in places)]
    ranks = ["rank", *places * ledger.num_rounds]
    files = {}
    for rule in rules:
        teams, points = ["team"], []
        for standings in ledger.rounds(rule):
            teams += map(standings.teams.__getitem__, standings.order)
            points += map(standings.points.__getitem__, standings.order)
        files[f"evolution_{rule.system.value}.csv"] = csv_text((
            rounds, teams, ranks,
            ["points", *format_ratios(points, ledger.den(rule), decimals, comma=comma)],
        ))
    return files


# Each indicator row: its label, JSON key and CSV decimals (None for a count).
_INDICATOR_ROWS = (
    ("Gap 1st-3rd place (%)", "gap_1_3_pct", 1),
    ("Gap 1st-9th place (%)", "gap_1_9_pct", 1),
    ("Gap 1st-last (%)", "gap_1_last_pct", 1),
    ("# Overall Changes", "overall_changes", None),
    ("# Changes on Leadership", "leadership_changes", None),
    ("# Different Leaders", "distinct_leaders", None),
    ("Aver. points per game", "avg_points_per_team_game", 2),
)


def indicators_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """indicators.csv and indicators.json: one column or object per system.

    The CSV rounds each ratio to its row's decimals; the JSON keeps it exact, as a ``p/q`` string.
    """
    import json  # here, not at the top: no other report writes JSON
    doc: dict[str, dict[str, object]] = {}
    columns = [["indicator", *(label for label, _, _ in _INDICATOR_ROWS)]]
    for rule in rules:
        orders = []
        for final in ledger.rounds(rule):
            orders.append(final.order)
        values = (*gaps(final), *rank_changes(orders), final.average())
        column = [rule.system.value]
        fields = doc[rule.system.value] = {}
        for (_, key, places), value in zip(_INDICATOR_ROWS, values):
            if places is None:
                column.append(str(value))
            else:
                num, den = value
                column += format_ratios((num,), den, places, comma=comma)
                value = ratio_text(num, den)
            fields[key] = value
        columns.append(column)
    json_text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return {"indicators.csv": csv_text(columns), "indicators.json": json_text}


def ecdf_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """ecdf_<system>.csv: the distribution of per-team match awards, ready to plot.

    One row per distinct exact award: its points and the fraction of awards at
    or below it, both to six decimals. Two awards closer than a millionth can
    share a points cell, as on exact-second data.
    """
    files = {}
    # Cumulative count -> its fraction cell, rendered once per run: every rule
    # counts the same awards, so every rule's fractions share one denominator.
    fractions: dict[int, str] = {}
    for rule in rules:
        uppers, counts, bits = ecdf_steps(ledger.tally(rule))
        new = [count for count in counts if count not in fractions]
        fractions.update(zip(new, format_ratios(new, counts[-1], ECDF_DECIMALS, comma=comma)))
        files[f"ecdf_{rule.system.value}.csv"] = csv_text((
            ["points", *format_ratios(uppers, 1 << bits, ECDF_DECIMALS, comma=comma)],
            ["cumulative_fraction", *map(fractions.__getitem__, counts)],
        ))
    return files


def _execute(
    reports: Sequence[Callable[..., dict[str, str]]], input_path: Path, systems: str,
    weights: str, output_dir: Path, decimals: int, decimal_comma: bool,
) -> None:
    """Run ``reports`` on one ledger and write their files only once all succeed.

    Exits 1 on a data or flag error and 2 on an I/O error, after an ``error:`` line that
    names the path of an I/O error. The reports render free of the int-to-str digit limit.
    """
    limit = sys.get_int_max_str_digits()
    try:
        rules = _rules(systems, weights)
        # open() and mkdir() raise a plain ValueError for a path the OS cannot take.
        for path in (output_dir, input_path):  # the path at hand, named by an I/O error
            try:
                if b"\0" in os.fsencode(path):
                    raise ValueError("a path cannot hold a NUL byte")
            except ValueError as err:  # also for a character the file system encoding lacks
                raise OSError(errno.EINVAL, str(err)) from None
        # Parsed under the caller's limit, which the over-long integer error names; the
        # season is dropped once its ledger is built, so the reports reuse its memory.
        ledger = SeasonLedger(parse_season(input_path.read_bytes()))
        sys.set_int_max_str_digits(0)  # a ratio can have more digits than the limit
        files: dict[str, str] = {}
        for report in reports:
            files.update(report(ledger, rules, decimals, decimal_comma))
        output_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            path = output_dir / name
            path.write_bytes(content.encode("utf-8"))
    except SeasonDataError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
    except OSError as err:  # some, such as a full disk, name no file
        print(f"error: {err}" if err.filename else f"error: {err}: {str(path)!r}", file=sys.stderr)
        sys.exit(2)
    finally:
        sys.set_int_max_str_digits(limit)
    written = "".join(f"{output_dir / name}\n" for name in files)
    try:
        sys.stdout.write(written)
    except UnicodeEncodeError:  # escaped as stderr escapes what its encoding lacks
        encoding = sys.stdout.encoding
        sys.stdout.write(written.encode(encoding, "backslashreplace").decode(encoding))


# Each command: what it writes, and the reports that make its files.
_COMMANDS: dict[str, tuple[str, tuple[Callable[..., dict[str, str]], ...]]] = {
    "table": ("the final tables side by side: table.csv", (table_report,)),
    "evolution": ("each round's ranks and points: evolution_<system>.csv", (evolution_report,)),
    "indicators": ("season competitiveness indicators: indicators.csv, indicators.json",
                   (indicators_report,)),
    "ecdf": ("distribution of per-team match awards: ecdf_<system>.csv", (ecdf_report,)),
    "report": ("every file above from one parse, written only once all succeed",
               (table_report, evolution_report, indicators_report, ecdf_report)),
}
_USAGE = """\
usage: timescore [--help] --input FILE [--systems SYSTEMS] [--weights WEIGHTS]
                 --out DIR [--decimals {0,1,2,3}] [--decimal-comma]
                 COMMAND
"""
_HELP = f"""{_USAGE}
Recompute league standings and competitiveness reports from goal timelines.

positional arguments:
  COMMAND               one of the commands below

options:
  --help                Show this message and exit.
  --input FILE          Season file, CSV or JSON (told apart by its content).
  --systems SYSTEMS     Comma-separated scoring systems:
                        {_SYSTEM_NAMES} (default: classic,time).
  --weights WEIGHTS     Weights W,D,L for the time system (integers, decimals
                        or fractions; default: 3,1,0).
  --out DIR             Output directory (created if missing).
  --decimals {{0,1,2,3}}  Decimal places for points columns (default: 2).
  --decimal-comma       Render decimal values with a comma separator.

commands:
""" + "".join(f"  {name:<12}{summary}\n" for name, (summary, _) in _COMMANDS.items())


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}timescore: error: {message}\n")
    sys.exit(2)


def _decimals(text: str) -> int:
    try:
        decimals = int(text)
    except ValueError:
        _usage_error(f"argument --decimals: invalid int value: {text!r}")
    if decimals not in range(4):
        _usage_error(f"argument --decimals: invalid choice: {decimals!r} (choose from 0, 1, 2, 3)")
    return decimals


# Each option that takes a value: the _execute keyword it sets, and how its text is read.
_VALUE_READERS = {
    "--input": ("input_path", Path), "--systems": ("systems", str), "--weights": ("weights", str),
    "--out": ("output_dir", Path), "--decimals": ("decimals", _decimals),
}
_OPTIONS = {*_VALUE_READERS, "--help", "--decimal-comma"}
_DEFAULTS = {"systems": "classic,time", "weights": "3,1,0", "decimals": 2, "decimal_comma": False}


def _is_unknown_option(token: str) -> bool:
    """Whether argparse reads ``token``, which names no option, as an option: it starts
    with "-" but is not "-", holds no space and is no number such as -1, -.5 or "-1\\n"."""
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    number = (not whole or whole.isdecimal()) and (frac if dot else whole).isdecimal()
    return token.startswith("-") and token != "-" and " " not in token and not number


def _read_args(argv: Sequence[str]) -> dict[str, object]:
    """The command and _execute's keywords, read from argv by argparse's rules: left to right,
    the first bad token failing, then missing and then unrecognized arguments. A value option
    takes the next token, whatever it is, or its text after "="; ``--`` ends the options."""
    args: dict[str, object] = {**_DEFAULTS}
    extras = []
    options = True  # until "--"
    tokens = enumerate(argv)
    for at, token in tokens:
        option, eq, text = token.partition("=")
        if options and token == "--":
            options = False
            # argparse reports a "--" that is not next to COMMAND as unrecognized.
            if "command" in args and at - 1 != command_at:
                extras.append(token)
        elif options and option in _OPTIONS:
            if option in _VALUE_READERS:
                if not eq and (text := next(tokens, (at, None))[1]) is None:
                    _usage_error(f"argument {option}: expected one argument")
                key, read = _VALUE_READERS[option]
                args[key] = read(text)
            elif eq:
                _usage_error(f"argument {option}: ignored explicit argument {text!r}")
            elif option == "--help":
                sys.stdout.write(_HELP)
                sys.exit(0)
            else:
                args["decimal_comma"] = True
        elif "command" in args or options and _is_unknown_option(token):
            extras.append(token)
        elif token in _COMMANDS:
            args["command"], command_at = token, at
        else:
            choices = ", ".join(map(repr, _COMMANDS))
            _usage_error(f"argument COMMAND: invalid choice: {token!r} (choose from {choices})")
    required = {"COMMAND": "command", "--input": "input_path", "--out": "output_dir"}
    if missing := [name for name, key in required.items() if key not in args]:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run one command: ``timescore COMMAND --input FILE --out DIR [options]``.

    The cyclic garbage collector is paused while the command runs and is then
    set back as the caller had it, whatever the exit. A run makes no reference
    cycles but the few that json.dumps leaves, however long the season, so the
    collector's passes over the season's records and rows would free nothing;
    the resumed collector frees those few.
    """
    # standalone_mode is ignored; bench/run.py still passes it (ROADMAP item 1 drops it).
    args = _read_args(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        _execute(_COMMANDS[args.pop("command")][1], **args)
    finally:
        # Resumed only once _execute has returned and dropped its ledger, so the
        # first pass after the pause does not walk the season's rows.
        if collecting:
            gc.enable()
