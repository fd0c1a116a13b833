"""Output checks that decide whether a benchmark invocation counts as failed.

The reference outputs of a run come from one in-process pass before timing.
They are checked once here, against the goldens (bundled), the digests
recorded for the shipped seed (generated workloads), and invariants that hold
on any seed. Every timed invocation must then reproduce them byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path

COMMANDS = ("table", "evolution", "indicators", "ecdf")


def systems_of(flags: tuple[str, ...]) -> list[str]:
    if "--systems" in flags:
        return flags[flags.index("--systems") + 1].split(",")
    return ["classic", "time"]


def command_files(systems: list[str]) -> dict[str, list[str]]:
    return {
        "table": ["table.csv"],
        "evolution": [f"evolution_{s}.csv" for s in systems],
        "indicators": ["indicators.csv", "indicators.json"],
        "ecdf": [f"ecdf_{s}.csv" for s in systems],
    }


def read_outputs(out_dir: Path, files: list[str]) -> dict[str, bytes | None]:
    return {
        name: (out_dir / name).read_bytes() if (out_dir / name).is_file() else None
        for name in files
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def invariant_problems(outputs: dict[str, bytes], systems: list[str]) -> dict[str, list[str]]:
    """Checks read from the files that hold on any seed, keyed by command."""
    problems: dict[str, list[str]] = {c: [] for c in COMMANDS}
    table = _rows(outputs["table.csv"])
    header, body = table[0], table[1:]
    for system in systems:
        team_col = header.index(f"{system}_team")
        final = [(row[team_col], row[team_col + 1]) for row in body]
        evo = _rows(outputs[f"evolution_{system}.csv"])[1:]
        last_round = max(int(row[0]) for row in evo)
        last = sorted((int(r[2]), r[1], r[3]) for r in evo if int(r[0]) == last_round)
        if final != [(team, points) for _, team, points in last]:
            message = f"table.csv {system} column differs from the last round of evolution"
            problems["table"].append(message)
            problems["evolution"].append(message)
        ecdf = _rows(outputs[f"ecdf_{system}.csv"])
        if ecdf[-1][1] != "1.000000":
            problems["ecdf"].append(f"ecdf_{system}.csv ends at {ecdf[-1][1]}, not 1.000000")
    return problems


def reference_problems(
    outputs: dict[str, bytes | None],
    files: dict[str, list[str]],
    systems: list[str],
    golden_dir: Path | None,
    digests: dict[str, str] | None,
) -> dict[str, list[str]]:
    """Everything wrong with the reference outputs, keyed by the command that wrote them."""
    missing = {c: [f"{n} was not written" for n in names if outputs[n] is None]
               for c, names in files.items()}
    if any(missing.values()):
        return missing
    try:
        problems = invariant_problems(outputs, systems)
    except (ValueError, IndexError) as exc:
        problems = {c: [f"outputs are unreadable: {exc}"] for c in COMMANDS}
    for command, names in files.items():
        for name in names:
            if golden_dir is not None and outputs[name] != (golden_dir / name).read_bytes():
                problems[command].append(f"{name} differs from {golden_dir.name}/{name}")
            if digests is not None and sha256(outputs[name]) != digests.get(name):
                problems[command].append(f"{name} sha256 differs from the recorded digest")
    return problems
