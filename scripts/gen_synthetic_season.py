#!/usr/bin/env python3
"""Regenerate the bundled synthetic season under data/.

The seed is fixed so the output is bit-identical across runs. It was chosen
so the fixture exercises stoppage-time goals and declared lengths, and so the
time-share system compacts every gap indicator relative to classic scoring
(the direction several tests assert).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from timescore.indicators import indicator_bundle
from timescore.ingest import serialize_season
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger
from timescore.synthetic import synthetic_season

SEED = 40
TEAMS = ["Albion", "Borough", "Claymore", "Dockside", "Eastfield", "Foundry"]
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DATA_DIR)
    args = parser.parse_args()

    season = synthetic_season(SEED, TEAMS)
    ledger = SeasonLedger(season)
    time_bundle = indicator_bundle(ledger, scoring_rule(ScoringSystem.TIME))
    classic_bundle = indicator_bundle(ledger, scoring_rule(ScoringSystem.CLASSIC))
    for time_gap, classic_gap in (
        (time_bundle.gap_1_3_pct, classic_bundle.gap_1_3_pct),
        (time_bundle.gap_1_9_pct, classic_bundle.gap_1_9_pct),
        (time_bundle.gap_1_last_pct, classic_bundle.gap_1_last_pct),
    ):
        assert time_gap <= classic_gap, "fixture must compact gaps; pick another seed"

    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "synthetic_season.csv"
    csv_path.write_bytes(serialize_season(season, "csv").encode("utf-8"))
    json_path = args.out / "synthetic_season.json"
    json_path.write_bytes(serialize_season(season, "json").encode("utf-8"))
    print(f"wrote {csv_path} ({len(season.matches)} fixtures, {len(TEAMS)} teams)")
    print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
