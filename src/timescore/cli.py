"""Batch command-line front end: season file in, deterministic report files out.

``timescore COMMAND --input FILE --out DIR [options]``. Every command takes the
same seven options, so one argparse parser, built at import, reads them all;
the command picks its reports from one table, which also writes the help's
command list. Each report function turns the ledger into its files, so every
byte of CSV and JSON is rendered here; the other modules only compute. A report
builds each CSV file as columns of text, each headed by its header cell;
``_csv_text`` joins the cells with commas and newlines, and hands the rows to
``csv.writer`` only when some cell holds a comma, a double quote, a carriage
return or a line feed. The front end imports nothing outside the standard library.

Exit codes: 0 on success, 1 for data/validation problems, 2 for I/O failures
and for usage errors. Identical inputs and flags always produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .display import format_decimal, format_ratios
from .indicators import draws_to_wins, ecdf_counts, indicator_bundle, minutes_to_upper
from .ingest import SeasonFormat, parse_season
from .scoring import ScoringRule, ScoringSystem, WeightTriple, scoring_rule
from .standings import SeasonLedger, Standings, percent_of_leader


def _parse_systems(text: str) -> tuple[ScoringSystem, ...]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("at least one scoring system is required")
    systems: list[ScoringSystem] = []
    for tok in tokens:
        try:
            system = ScoringSystem(tok.lower())
        except ValueError:
            raise ValueError(
                f"unknown scoring system {tok!r}; choose from "
                "classic,time,mixed,goaldiff"
            ) from None
        if system not in systems:
            systems.append(system)
    return tuple(systems)


def _infer_format(path: Path, fmt: str | None) -> SeasonFormat:
    if fmt is not None:
        return SeasonFormat(fmt)
    return SeasonFormat.JSON if path.suffix.lower() == ".json" else SeasonFormat.CSV


def _csv_text(columns: Sequence[Sequence[str]]) -> str:
    """A CSV file's text from its columns, each headed by its header cell.

    Lines end in a bare newline. Each row needs two or more cells: the csv
    module quotes a row of one empty cell, which a plain join would not.
    """
    cells = "".join(map("".join, columns))
    if "," in cells or '"' in cells or "\r" in cells or "\n" in cells:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(zip(*columns))
        return out.getvalue()
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _points_cells(standings: Standings, decimals: int, comma: bool) -> list[str]:
    """Each team's points, in rank order, as one rendered column."""
    return format_ratios(
        map(standings.points.__getitem__, standings.order), standings.den, decimals, comma=comma
    )


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
        *_, standings = ledger.rounds(rule)
        finals[rule.system] = standings
        name = rule.system.value
        percents, leader = percent_of_leader(standings)
        columns += (
            [f"{name}_team", *map(standings.teams.__getitem__, standings.order)],
            [f"{name}_points", *_points_cells(standings, decimals, comma)],
            [f"{name}_pct_of_1st", *format_ratios(percents, leader, 0, comma=comma)],
        )
    if ScoringSystem.TIME in finals:
        nums, den = minutes_to_upper(finals[ScoringSystem.TIME])
        columns.append(["time_min_to_upper", "", *format_ratios(nums, den, 0, comma=comma)])
    if ScoringSystem.CLASSIC in finals:
        metrics = draws_to_wins(finals[ScoringSystem.CLASSIC], ledger.draws)
        cells = [f"{n}*" if capped else str(n) for n, capped in metrics]
        columns.append(["classic_draws_to_wins", "", *cells])
    return {"table.csv": _csv_text(columns)}


def evolution_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """evolution_<system>.csv: each round's (round, team, rank, points), long form for plotting."""
    ranks = list(map(str, range(1, len(ledger.teams) + 1)))
    files = {}
    for rule in rules:
        columns = rounds, teams, rank_cells, points = ["round"], ["team"], ["rank"], ["points"]
        for round_no, standings in enumerate(ledger.rounds(rule), start=1):
            rounds += [str(round_no)] * len(ranks)
            teams += map(standings.teams.__getitem__, standings.order)
            rank_cells += ranks
            points += _points_cells(standings, decimals, comma)
        files[f"evolution_{rule.system.value}.csv"] = _csv_text(columns)
    return files


# Each indicator row: its label, its IndicatorBundle field, and the decimals of
# its CSV cells (None for a count).
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

    The CSV rounds each ratio to its row's decimals; the JSON keeps it exact,
    as a string.
    """
    bundles = [(rule.system.value, indicator_bundle(ledger, rule)) for rule in rules]
    doc: dict[str, dict[str, object]] = {system: {} for system, _ in bundles}
    columns = [["indicator", *(label for label, _, _ in _INDICATOR_ROWS)]]
    for system, bundle in bundles:
        column = [system]
        for _, attr, places in _INDICATOR_ROWS:
            value = getattr(bundle, attr)
            if places is None:
                column.append(str(value))
            else:
                column.append(format_decimal(value, places, comma=comma))
                value = str(value)
            doc[system][attr] = value
        columns.append(column)
    return {
        "indicators.csv": _csv_text(columns),
        "indicators.json": json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
    }


def ecdf_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """ecdf_<system>.csv: the distribution of per-team match awards, ready to plot.

    One row per distinct award: its points and the fraction of awards at or
    below it, both to six decimals, which keep the steps apart.
    """
    files = {}
    for rule in rules:
        values, counts = zip(*ecdf_counts(ledger.awards(rule)))
        files[f"ecdf_{rule.system.value}.csv"] = _csv_text((
            ["points", *format_ratios(values, ledger.den(rule), 6, comma=comma)],
            ["cumulative_fraction", *format_ratios(counts, counts[-1], 6, comma=comma)],
        ))
    return files


def _execute(
    reports: Sequence[Callable[..., dict[str, str]]],
    input_path: Path,
    fmt: str | None,
    systems: str,
    weights: str,
    output_dir: Path,
    decimals: int,
    decimal_comma: bool,
) -> None:
    """Run ``reports`` on one ledger and write their files only once all succeed.

    Exits 1 on a data or flag error and 2 on an I/O error, after an ``error:`` line.
    """
    try:
        parsed_systems = _parse_systems(systems)
        triple = WeightTriple.from_string(weights)
        rules = [scoring_rule(system, triple) for system in parsed_systems]
        # The parsed season is dropped once its ledger is built, so the reports
        # reuse its memory.
        ledger = SeasonLedger(
            parse_season(input_path.read_bytes(), _infer_format(input_path, fmt))
        )
        files: dict[str, str] = {}
        for report in reports:
            files.update(report(ledger, rules, decimals, decimal_comma))
        output_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (output_dir / name).write_bytes(content.encode("utf-8"))
    except ValueError as err:
        # Bad flags, and every SeasonDataError (a ValueError carrying its code).
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
    for name in files:
        print(output_dir / name)


# Each command: what it writes, and the reports that make its files.
_COMMANDS: dict[str, tuple[str, tuple[Callable[..., dict[str, str]], ...]]] = {
    "table": ("the final tables side by side: table.csv", (table_report,)),
    "evolution": ("each round's ranks and points: evolution_<system>.csv", (evolution_report,)),
    "indicators": (
        "season competitiveness indicators: indicators.csv, indicators.json",
        (indicators_report,),
    ),
    "ecdf": ("distribution of per-team match awards: ecdf_<system>.csv", (ecdf_report,)),
    "report": (
        "every file above from one parse, written only once all succeed",
        (table_report, evolution_report, indicators_report, ecdf_report),
    ),
}
# The options that take a value; see _glue_values.
_VALUE_OPTIONS = frozenset(
    {"--input", "--format", "--systems", "--weights", "--out", "--decimals"}
)


def _build_parser() -> argparse.ArgumentParser:
    epilog = "commands:\n" + "".join(
        f"  {name:<12}{summary}\n" for name, (summary, _) in _COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="timescore",
        description="Recompute league standings and competitiveness reports from goal timelines.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="COMMAND", help="one of the commands below"
    )
    parser.add_argument(
        "--input", dest="input_path", required=True, type=Path, metavar="FILE",
        help="Season file (CSV or JSON).",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default=None,
        help="Input format; inferred from the file suffix when omitted.",
    )
    parser.add_argument(
        "--systems", default="classic,time",
        help="Comma-separated scoring systems: classic,time,mixed,goaldiff "
        "(default: %(default)s).",
    )
    parser.add_argument(
        "--weights", default="3,1,0",
        help="Weights W,D,L for the time system (integers, decimals or fractions; "
        "default: %(default)s).",
    )
    parser.add_argument(
        "--out", dest="output_dir", required=True, type=Path, metavar="DIR",
        help="Output directory (created if missing).",
    )
    parser.add_argument(
        "--decimals", type=int, choices=range(4), default=2,
        help="Decimal places for points columns (default: %(default)s).",
    )
    parser.add_argument(
        "--decimal-comma", dest="decimal_comma", action="store_true",
        help="Render decimal values with a comma separator.",
    )
    return parser


# Built once: building costs about ten times as much as parsing.
_PARSER = _build_parser()


def _glue_values(argv: Sequence[str]) -> list[str]:
    """Join each value option to the token after it, as ``--weights=-1,-2,-3``.

    A value may start with "-" (a negative first weight); argparse would read
    such a token as an option unless it is glued to its option with "=".
    """
    glued = []
    tokens = iter(argv)
    for token in tokens:
        if token in _VALUE_OPTIONS:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        glued.append(token)
    return glued


def main(argv: Sequence[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run one command: ``timescore COMMAND --input FILE --out DIR [options]``."""
    # standalone_mode is ignored; bench/run.py still passes it (ROADMAP item 1 drops it).
    args = vars(_PARSER.parse_args(_glue_values(sys.argv[1:] if argv is None else argv)))
    _execute(_COMMANDS[args.pop("command")][1], **args)
