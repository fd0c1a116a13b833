"""Batch command-line front end: season file in, deterministic report files out.

``timescore COMMAND --input FILE --out DIR [options]``. Every command takes the
same seven options, so one argparse parser, built at import, reads them all;
the command picks its reports from one table, which also writes the help's
command list. The front end imports nothing outside the standard library.

Exit codes: 0 on success, 1 for data/validation problems, 2 for I/O failures
and for usage errors. Identical inputs and flags always produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path
from typing import Callable, Sequence

from .display import format_ratios
from .indicators import (
    draws_to_wins,
    ecdf_counts,
    ecdf_to_csv,
    indicator_bundle,
    indicators_to_csv,
    indicators_to_json,
    minutes_to_upper,
)
from .ingest import SeasonFormat, parse_season
from .scoring import ScoringRule, ScoringSystem, WeightTriple, scoring_rule
from .standings import SeasonLedger, Standings, evolution_to_csv, percent_of_leader


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


def build_comparison_csv(
    finals: Sequence[Standings],
    draws: Sequence[int],
    *,
    decimals: int = 2,
    comma: bool = False,
) -> str:
    """Side-by-side comparison of final standings, one rank-aligned block per system.

    A time block gets a minutes-to-overtake column and a classic block gets a
    draws-to-wins column; the top row has no metric in either. ``draws`` is
    each team's drawn matches (:attr:`SeasonLedger.draws`); a draws-to-wins
    count capped at them renders as ``N*``.
    """
    header = ["rank"]
    columns: list[list[str]] = []
    for standings in finals:
        name = standings.rule.system.value
        header += [f"{name}_team", f"{name}_points", f"{name}_pct_of_1st"]
        order, points = standings.order, standings.points
        percents, leader = percent_of_leader(standings)
        columns += (
            [standings.teams[i] for i in order],
            format_ratios([points[i] for i in order], standings.den, decimals, comma=comma),
            format_ratios(percents, leader, 0, comma=comma),
        )
    time_final = next((s for s in finals if s.rule.system is ScoringSystem.TIME), None)
    classic_final = next((s for s in finals if s.rule.system is ScoringSystem.CLASSIC), None)
    if time_final is not None:
        header.append("time_min_to_upper")
        nums, den = minutes_to_upper(time_final)
        columns.append(["", *format_ratios(nums, den, 0, comma=comma)])
    if classic_final is not None:
        header.append("classic_draws_to_wins")
        metrics = draws_to_wins(classic_final, draws)
        columns.append(["", *(f"{n}*" if capped else str(n) for n, capped in metrics)])

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([rank, *cells] for rank, cells in enumerate(zip(*columns), start=1))
    return out.getvalue()


def table_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """table.csv: the final standings, the last of each rule's rounds, side by side."""
    finals = [list(ledger.rounds(rule))[-1] for rule in rules]
    return {
        "table.csv": build_comparison_csv(finals, ledger.draws, decimals=decimals, comma=comma)
    }


def evolution_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """evolution_<system>.csv: each round's ranks and points."""
    return {
        f"evolution_{rule.system.value}.csv": evolution_to_csv(
            ledger.rounds(rule), decimals=decimals, comma=comma
        )
        for rule in rules
    }


def indicators_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """indicators.csv and indicators.json: one column or object per system."""
    bundles = [(rule.system, indicator_bundle(ledger, rule)) for rule in rules]
    return {
        "indicators.csv": indicators_to_csv(bundles, comma=comma),
        "indicators.json": indicators_to_json(bundles),
    }


def ecdf_report(
    ledger: SeasonLedger, rules: Sequence[ScoringRule], decimals: int, comma: bool
) -> dict[str, str]:
    """ecdf_<system>.csv: the distribution of per-team match awards."""
    files = {}
    for rule in rules:
        # One expression, so this system's sorted awards are freed before the next's.
        files[f"ecdf_{rule.system.value}.csv"] = ecdf_to_csv(
            ecdf_counts(ledger.awards(rule)), ledger.den(rule), comma=comma
        )
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
