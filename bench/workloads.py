"""Seeded season files for the benchmark workloads (why each exists: README.md).

The generator belongs to the benchmark and uses only the stdlib, so a change
to ``timescore.synthetic`` or ``serialize_season`` cannot change the inputs a
benchmark run measures. The same (workload, seed, teams) always writes the
same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Total goals per match, the same shape as the package's synthetic seasons.
GOAL_COUNT_WEIGHTS = {0: 22, 1: 28, 2: 25, 3: 15, 4: 7, 5: 3}
REGULATION_S = 90 * 60
FULL_TEAMS = 60
ALL_SYSTEMS = ("--systems", "classic,time,mixed,goaldiff")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bundled", "minute" or "exact"
    flags: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bundled", "bundled", ()),
        Workload("league60_minute", "minute", ALL_SYSTEMS),
        Workload("league60_exact", "exact", ALL_SYSTEMS + ("--weights", "3,1/2,0")),
    )
}


def team_names(count: int) -> list[str]:
    return [f"Club{i:02d}" for i in range(1, count + 1)]


def double_round_robin(teams: list[str]) -> list[list[tuple[str, str]]]:
    """Circle-method schedule in which every ordered pairing plays once."""
    if len(teams) < 2 or len(teams) % 2:
        raise ValueError("need an even number of teams, at least two")
    n = len(teams)
    rotation = teams[1:]
    first_half = []
    for round_no in range(n - 1):
        circle = [teams[0]] + rotation
        pairs = []
        for i in range(n // 2):
            a, b = circle[i], circle[n - 1 - i]
            pairs.append((a, b) if (round_no + i) % 2 == 0 else (b, a))
        first_half.append(pairs)
        rotation = rotation[-1:] + rotation[:-1]
    return first_half + [[(b, a) for a, b in rnd] for rnd in first_half]


def _goal_count(rng: random.Random) -> int:
    return rng.choices(list(GOAL_COUNT_WEIGHTS), weights=list(GOAL_COUNT_WEIGHTS.values()))[0]


def _minute_row(rng: random.Random, round_no: int, home: str, away: str) -> list:
    minutes = sorted(rng.sample(range(1, 91), _goal_count(rng)))
    if minutes and rng.random() < 0.12:
        minutes[-1] = rng.randint(91, 98)
    goals = ",".join(f"{rng.choice('HA')}:{m}" for m in minutes)
    length = ""
    if rng.random() < 0.08:
        length = str(max(90, minutes[-1] if minutes else 0) + rng.randint(1, 4))
    return [round_no, home, away, goals, length]


def _exact_match(rng: random.Random, round_no: int, home: str, away: str) -> dict:
    seconds = sorted(rng.sample(range(1, REGULATION_S + 1), _goal_count(rng)))
    if seconds and rng.random() < 0.12:
        seconds[-1] = rng.randint(REGULATION_S + 1, REGULATION_S + 480)
    match = {
        "round": round_no,
        "home": home,
        "away": away,
        "goals": [
            {"side": rng.choice("HA"), "time_s": s, "precision": "exact"} for s in seconds
        ],
    }
    if rng.random() < 0.5:
        last = seconds[-1] if seconds else 0
        match["length_s"] = max(REGULATION_S, last) + rng.randint(1, 360)
    return match


def season_bytes(kind: str, seed: int, teams: int) -> bytes:
    """File content of one generated season: minute CSV or exact-second JSON."""
    rng = random.Random(f"timescore-bench:{kind}:{seed}:{teams}")
    rounds = list(enumerate(double_round_robin(team_names(teams)), start=1))
    if kind == "minute":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["round", "home", "away", "goals", "length_min"])
        for round_no, pairs in rounds:
            for home, away in pairs:
                writer.writerow(_minute_row(rng, round_no, home, away))
        return out.getvalue().encode("utf-8")
    if kind == "exact":
        matches = [
            _exact_match(rng, round_no, home, away)
            for round_no, pairs in rounds
            for home, away in pairs
        ]
        doc = {"league": f"bench-{seed}", "matches": matches}
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown generated workload kind {kind!r}")


def materialize(workload: Workload, seed: int, teams: int, root: Path, work: Path) -> Path:
    """Write (or locate) the workload's season file and return its path."""
    if workload.kind == "bundled":
        return root / "data" / "synthetic_season.csv"
    suffix = ".csv" if workload.kind == "minute" else ".json"
    path = work / f"season{suffix}"
    path.write_bytes(season_bytes(workload.kind, seed, teams))
    return path
