#!/usr/bin/env python3
"""Generate the bundled synthetic season and write data/synthetic_season.{csv,json}.

The seed is fixed so the output is bit-identical across runs. ``SEED = 40``
was chosen so the fixture exercises stoppage-time goals and declared lengths,
and so the time-share system compacts every gap indicator relative to classic
scoring on this one season (the direction several tests assert). One chosen
season is not evidence for the paper's claim that time scoring compacts the
gaps. ``test_bundled_fixture_time_gaps_at_most_classic`` checks the property
on the bundled files, and other tests check that the two files parse to one
season and that this script rewrites them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from timescore.display import csv_text
from timescore.ingest import CSV_HEADER, SECONDS_PER_MINUTE

SEED = 40
TEAMS = ["Albion", "Borough", "Claymore", "Dockside", "Eastfield", "Foundry"]
DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Distribution of total goals per match, loosely modeled on European leagues.
_GOAL_COUNT_WEIGHTS = {0: 22, 1: 28, 2: 25, 3: 15, 4: 7, 5: 3}

# round, home, away, [(side "H" or "A", minute)], declared length in minutes or None
Fixture = tuple[int, str, str, list[tuple[str, int]], int | None]


def double_round_robin(teams: Sequence[str]) -> list[list[tuple[str, str]]]:
    """Schedule rounds so each ordered pairing of an even number of teams appears once.

    Uses the circle method: the first half gives every unordered pair once,
    the second half repeats it with venues swapped.
    """
    n = len(teams)
    if n < 2 or n % 2:
        raise ValueError("the schedule needs an even number of teams")
    first_half = []
    rotation = list(teams[1:])
    for round_no in range(n - 1):
        circle = [teams[0]] + rotation
        pairs = [(circle[i], circle[n - 1 - i]) for i in range(n // 2)]
        # Alternate venues by round so home games spread evenly.
        first_half.append([p if (round_no + i) % 2 == 0 else p[::-1] for i, p in enumerate(pairs)])
        rotation = rotation[-1:] + rotation[:-1]
    second_half = [[(away, home) for home, away in rnd] for rnd in first_half]
    return first_half + second_half


def season_matches(seed: int, teams: Sequence[str]) -> Iterator[Fixture]:
    """A double round robin's fixtures, with seeded whole-minute goals.

    A late goal occasionally falls in stoppage time, and a few matches declare
    their length.
    """
    rng = random.Random(seed)
    for round_no, pairs in enumerate(double_round_robin(teams), start=1):
        for home, away in pairs:
            count = rng.choices(
                list(_GOAL_COUNT_WEIGHTS), weights=list(_GOAL_COUNT_WEIGHTS.values())
            )[0]
            minutes = sorted(rng.sample(range(1, 91), count))
            if minutes and rng.random() < 0.12:
                minutes[-1] = rng.randint(91, 98)  # late winner/equalizer past 90'
            goals = [(rng.choice("HA"), minute) for minute in minutes]
            length = None
            if rng.random() < 0.08:
                length = max(90, minutes[-1] if minutes else 0) + rng.randint(1, 4)
            yield round_no, home, away, goals, length


def season_texts(fixtures: Iterable[Fixture]) -> tuple[str, str]:
    """The CSV and the JSON text of one season of minute-truncated goals."""
    rows = [CSV_HEADER]
    matches = []
    for round_no, home, away, goals, length in fixtures:
        tokens = ",".join(f"{side}:{minute}" for side, minute in goals)
        rows.append((str(round_no), home, away, tokens, "" if length is None else str(length)))
        goal_objects = [
            {"side": side, "time_s": minute * SECONDS_PER_MINUTE, "precision": "minute_truncated"}
            for side, minute in goals
        ]
        entry = {"round": round_no, "home": home, "away": away, "goals": goal_objects}
        if length is not None:
            entry["length_min"] = length
        matches.append(entry)
    doc = {"league": "", "matches": matches}
    return csv_text(list(zip(*rows))), json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DATA_DIR)
    args = parser.parse_args()

    fixtures = list(season_matches(SEED, TEAMS))
    csv_doc, json_doc = season_texts(fixtures)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "synthetic_season.csv"
    csv_path.write_bytes(csv_doc.encode("utf-8"))
    json_path = args.out / "synthetic_season.json"
    json_path.write_bytes(json_doc.encode("utf-8"))
    print(f"wrote {csv_path} ({len(fixtures)} fixtures, {len(TEAMS)} teams)")
    print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
