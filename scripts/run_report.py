#!/usr/bin/env python3
"""Run the full report pipeline on a season file and print the headlines.

Writes every CLI artifact (table, evolution, indicators, ecdf) into the output
directory, then summarizes how the scoring systems compare on stdout. The
season is segmented once: every file and every number printed reads one ledger.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from timescore.cli import (
    RunConfig,
    _infer_format,
    _parse_systems,
    ecdf_report,
    evolution_report,
    exit_on_error,
    indicators_report,
    table_report,
    write_report,
)
from timescore.display import format_decimal
from timescore.indicators import indicator_bundle, minutes_to_upper
from timescore.ingest import minute_error_bound, parse_season
from timescore.scoring import DEFAULT_WEIGHTS, ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEASON = ROOT / "data" / "synthetic_season.csv"


def run(path: Path, out: Path, systems: tuple[ScoringSystem, ...]) -> None:
    """Write every report on the season at ``path`` into ``out`` and print the headlines."""
    season = parse_season(path.read_bytes(), _infer_format(path, None))
    ledger = SeasonLedger(season)
    config = RunConfig(systems=systems, weights=DEFAULT_WEIGHTS)
    for report in (table_report, evolution_report, indicators_report, ecdf_report):
        write_report(report(config, ledger), out)
    print(f"season: {path} ({len(season.matches)} fixtures, "
          f"{len(season.teams)} teams, {season.num_rounds} rounds)")
    bound = minute_error_bound(season)
    print(f"worst-case per-match points error from goal-time precision: "
          f"{format_decimal(bound, 3)}")
    print(f"report files written to {out}")
    print()
    header = f"{'system':<10}{'champion':<14}{'gap 1-3%':>10}{'gap 1-last%':>13}{'lead chg':>10}{'avg pts':>9}"
    print(header)
    tables = {}
    for system in systems:
        rule = scoring_rule(system)
        bundle = indicator_bundle(ledger, rule)
        tables[system] = table = ledger.final(rule).table()
        print(
            f"{system.value:<10}{table.rows[0].team:<14}"
            f"{format_decimal(bundle.gap_1_3_pct, 1):>10}"
            f"{format_decimal(bundle.gap_1_last_pct, 1):>13}"
            f"{bundle.leadership_changes:>10}"
            f"{format_decimal(bundle.avg_points_per_team_game, 2):>9}"
        )
    if ScoringSystem.TIME in systems:
        print()
        print("minutes a single earlier victory goal would close each deficit (time system):")
        for metric in minutes_to_upper(tables[ScoringSystem.TIME]):
            note = " (below minute precision)" if metric.precision_limited else ""
            print(
                f"  {metric.team:<14} {format_decimal(metric.minutes_to_upper, 1):>7} min"
                f"{note}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--season", type=Path, default=DEFAULT_SEASON)
    parser.add_argument("--out", type=Path, default=ROOT / "out" / "report")
    parser.add_argument(
        "--systems", default="classic,time,mixed,goaldiff",
        help="comma-separated systems to include",
    )
    args = parser.parse_args()
    # The same flag parsing, error lines and exit codes as the CLI.
    with exit_on_error():
        run(args.season, args.out, _parse_systems(args.systems))


if __name__ == "__main__":
    main()
