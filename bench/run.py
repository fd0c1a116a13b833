#!/usr/bin/env python3
"""timescore benchmark: wall time of each report command, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload league60_minute --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 35 --trace 0

Load is a closed loop with one client: one command at a time, each waiting
for the previous one to exit. ``--trace 0`` times the four CLI commands as
subprocesses and the same four in process; ``--trace 1`` runs the in-process
pipeline with a span around every call into a layer and reports per-layer
numbers. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Per-run details (input sha256,
sample counts, tail percentiles, spans) go to ``.bench_work/results/``.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import click

from checks import (COMMANDS, command_files, read_outputs, reference_problems, sha256,
                    systems_of)
from tracing import LAYER_FUNCTIONS, LAYERS, Tracer, installed
from workloads import FULL_TEAMS, WORKLOADS, Workload, materialize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"
EXPECTED = BENCH / "expected.json"
REQUIRED = (SRC / "timescore" / "cli.py", ROOT / "data" / "synthetic_season.csv", GOLDEN)

# The seed whose output digests are recorded in expected.json.
SHIPPED_SEED = 1
SETUP_PROBE = "import timescore.cli"
BARE_PROBE = "pass"
PROBES_PER_ROUND = 3
WARMUP_PROBES = 2
# Nominal duration of one calibration_kernel() call. On a shared machine the
# interpreter switches between a fast and a slow speed (about 1.8x apart) for
# seconds at a time, and the share of slow time differs from run to run. So
# the kernel runs before every timed sample, and each sample is scaled by this
# over the kernel's mean time in the same round: the metrics read in seconds on
# a machine of constant speed. The unscaled samples go to the results file.
CALIBRATION_S = 0.005
CALIBRATION_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "table_s": "s",
    "evolution_s": "s",
    "indicators_s": "s",
    "ecdf_s": "s",
    "report_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "ingest.fixtures": "count",
    "ingest.goals": "count",
    "timeline.segment_calls_per_fixture": "calls/fixture",
    "scoring.match_points_calls_per_fixture": "calls/fixture",
    "standings.tables_built": "count",
    "standings.leader_den_digits": "digits",
    "indicators.ecdf_steps": "count",
    "display.format_decimal_calls": "count",
    "display.output_bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}
_PARSED = ("ingest.parse_season", "result of parse_season")
_TABLES = ("standings.final_table", "standings.evolution",
           "result of final_table", "result of evolution")
# What each count needs from the traced functions; a metric whose source is
# missing reads 0 and is listed as missing.
COUNT_SOURCES = {
    "ingest.fixtures": _PARSED,
    "ingest.goals": _PARSED,
    "timeline.segment_calls_per_fixture": ("timeline.segment",) + _PARSED,
    "scoring.match_points_calls_per_fixture": ("scoring.match_points",) + _PARSED,
    "standings.tables_built": _TABLES,
    "standings.leader_den_digits": _TABLES,
    "indicators.ecdf_steps": ("indicators.points_ecdf", "result of points_ecdf"),
    "display.format_decimal_calls": ("display.format_decimal",),
}
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def describe(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            tail = {"percentile": pct, "value": ordered[math.ceil(n * pct / 100) - 1]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail, "values": samples}


def calibration_kernel() -> int:
    """Fixed work of the kinds timescore does: Fraction sums, sorting, dicts, formatting."""
    values = [Fraction(3 * i + 1, 5400 + i % 360) for i in range(600)]
    total = sum(values, Fraction(0))
    ranked = sorted(values, key=lambda v: (-v, v.denominator))
    table: dict[str, list[Fraction]] = {}
    for i, value in enumerate(ranked):
        table.setdefault(f"team{i % 60:02d}", []).append(value)
    return len("\n".join(f"{name},{len(vs)},{sum(vs) * 100 // total}"
                         for name, vs in table.items()))


def calibrate(timings: dict) -> None:
    """Time the calibration kernel a few times into ``timings["calibration_s"]``."""
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        timings["calibration_s"].append(time.perf_counter() - start)


def close_round(samples: dict, timings: dict) -> None:
    """Scale one round's timings by its speed factor and add them to ``samples``."""
    factor = CALIBRATION_S / statistics.fmean(timings.pop("calibration_s"))
    samples["speed_factor"].append(factor)
    for name, values in timings.items():
        samples[f"unscaled.{name}"] += values
        samples[name] += [value * factor for value in values]
    timings.clear()


class Bench:
    """One workload's inputs, reference outputs and invocation tally."""

    def __init__(self, workload: Workload, seed: int, teams: int) -> None:
        self.workload = workload
        self.work = WORK / f"{workload.name}-seed{seed}-teams{teams}-pid{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.season = materialize(workload, seed, teams, ROOT, self.work)
        self.season_sha256 = sha256(self.season.read_bytes())
        self.args = ["--input", str(self.season), *workload.flags]
        self.files = command_files(systems_of(workload.flags))
        pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

        from timescore.cli import main

        self.cli_main = main
        ref_dir = self.work / "ref"
        codes = {c: self.call(c, ref_dir) for c in COMMANDS}
        names = [n for c in COMMANDS for n in self.files[c]]
        self.reference = read_outputs(ref_dir, names)
        self.reference_codes = codes
        self.bad: set[str] = set()

    def verify_reference(self, seed: int, teams: int) -> None:
        """Check the reference outputs; a command with a problem fails every invocation."""
        digests = None
        if self.workload.kind != "bundled" and (seed, teams) == (SHIPPED_SEED, FULL_TEAMS):
            expected = json.loads(EXPECTED.read_text())[self.workload.name]
            if self.season_sha256 != expected["input_sha256"]:
                self.problems.append("generated input differs from the recorded sha256")
            digests = expected["outputs"]
        problems = reference_problems(
            self.reference,
            self.files,
            systems_of(self.workload.flags),
            GOLDEN if self.workload.kind == "bundled" else None,
            digests,
        )
        for command, code in self.reference_codes.items():
            if code != 0:
                problems[command].append(f"{command} exited {code}")
        self.bad = {c for c, found in problems.items() if found}
        self.problems += [p for c in COMMANDS for p in problems[c]]

    def call(self, command: str, out_dir: Path) -> int:
        """Run one command in process through the CLI entry point; return its exit code."""
        argv = [command, *self.args, "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                self.cli_main(argv, standalone_mode=False)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                self.note(f"{command}: {exc.format_message()}")
                return exc.exit_code
        return 0

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """Wall seconds, exit code and peak RSS (KiB) of one child, spawn to exit."""
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.note(f"{' '.join(argv[1:4])} exited {proc.returncode}: "
                      f"{(self.work / 'stderr.txt').read_text(errors='replace')[-300:]}")
        return wall, proc.returncode, usage.ru_maxrss

    def probe(self, code: str) -> float:
        wall, exit_code, _ = self.spawn([sys.executable, "-c", code])
        self.tally(exit_code == 0)
        return wall

    def subprocess_command(self, command: str, out_dir: Path) -> tuple[float, int]:
        argv = [sys.executable, "-m", "timescore", command, *self.args, "--out", str(out_dir)]
        wall, code, rss = self.spawn(argv)
        self.check(command, out_dir, code)
        return wall, rss

    def pipeline(self, out_dir: Path, timings: dict, run=None) -> float:
        """Wall seconds of the four commands in process, calibrating before each.

        ``run`` wraps each call (the tracer's command span).
        """
        run = run or (lambda command, call: call())
        wall = 0.0
        codes = []
        for command in COMMANDS:
            calibrate(timings)
            start = time.perf_counter()
            codes.append(run(command, lambda: self.call(command, out_dir)))
            wall += time.perf_counter() - start
        for command, code in zip(COMMANDS, codes):
            self.check(command, out_dir, code)
        return wall

    def check(self, command: str, out_dir: Path, code: int) -> None:
        """Count one invocation; it fails on a non-zero exit or wrong output bytes."""
        names = self.files[command]
        wrong = [n for n, data in read_outputs(out_dir, names).items()
                 if data != self.reference[n]]
        if wrong:
            self.note(f"{command} output differs from the in-process reference: {wrong}")
        self.tally(code == 0 and not wrong and command not in self.bad)

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def note(self, problem: str) -> None:
        if problem not in self.problems and len(self.problems) < 20:
            self.problems.append(problem)

    def warm_up(self) -> None:
        for _ in range(WARMUP_PROBES):
            self.spawn([sys.executable, "-c", SETUP_PROBE])

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Closed loop: import probes, four subprocess commands, then the in-process pipeline."""
        self.warm_up()
        samples, timings = defaultdict(list), defaultdict(list)
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(PROBES_PER_ROUND):
                calibrate(timings)
                timings["setup_s"].append(self.probe(SETUP_PROBE))
            peak = 0
            for command in COMMANDS:
                calibrate(timings)
                wall, rss = self.subprocess_command(command, self.work / "sub")
                timings[f"{command}_s"].append(wall)
                peak = max(peak, rss)
            samples["peak_rss_mb"].append(peak / 1024)
            timings["pipeline_s"].append(self.pipeline(self.work / "inproc", timings))
            close_round(samples, timings)
            if time.perf_counter() >= deadline:
                break
        stats = {name: describe(values) for name, values in samples.items()}
        metrics = {name: stats[name]["median"] for name in END_TO_END if name in stats}
        metrics["report_s"] = sum(metrics[f"{c}_s"] for c in COMMANDS)
        return metrics, stats

    def measure_traced(self, seconds: float, spans_path: Path) -> tuple[dict, dict, list]:
        """Untraced and traced in-process pipelines, interleaved with interpreter probes."""
        self.warm_up()
        tracer = Tracer()
        samples, timings = defaultdict(list), defaultdict(list)
        deadline = time.perf_counter() + seconds
        while True:
            calibrate(timings)
            timings["bare_s"].append(self.probe(BARE_PROBE))
            calibrate(timings)
            timings["import_s"].append(self.probe(SETUP_PROBE))
            timings["pipeline_s"].append(self.pipeline(self.work / "inproc", timings))
            tracer.reset()
            with installed(tracer):
                timings["traced_s"].append(
                    self.pipeline(self.work / "traced", timings, tracer.command))
            self_s, calls = tracer.summarize()
            for layer in LAYERS:
                timings[f"{layer}.self_s"].append(self_s[layer])
            close_round(samples, timings)
            if time.perf_counter() >= deadline:
                break
        with gzip.open(spans_path, "wt") as out:
            json.dump(tracer.dump(), out)
        stats = {name: describe(values) for name, values in samples.items()}
        median = {name: stat["median"] for name, stat in stats.items()}
        counts = tracer.counts
        fixtures = counts["fixtures"]
        metrics = {f"{layer}.self_s": median[f"{layer}.self_s"] for layer in LAYERS}
        metrics.update({
            "ingest.fixtures": fixtures,
            "ingest.goals": counts["goals"],
            "timeline.segment_calls_per_fixture": calls["segment"] / fixtures if fixtures else 0,
            "scoring.match_points_calls_per_fixture":
                calls["match_points"] / fixtures if fixtures else 0,
            "standings.tables_built": counts["tables_built"],
            "standings.leader_den_digits": counts["leader_den_digits"],
            "indicators.ecdf_steps": counts["ecdf_steps"],
            "display.format_decimal_calls": calls["format_decimal"],
            "display.output_bytes": sum(len(data or b"") for data in self.reference.values()),
            "cli.import_s": median["import_s"] - median["bare_s"],
            "trace.overhead_s": median["traced_s"] - median["pipeline_s"],
        })
        missing = sorted(tracer.missing)
        for layer in LAYERS:
            functions = [f"{m}.{f}" for lay, m, f in LAYER_FUNCTIONS if lay == layer]
            if functions and all(f in tracer.missing for f in functions):
                missing.append(f"{layer}.self_s")
        missing += [m for m, sources in COUNT_SOURCES.items()
                    if any(s in tracer.missing for s in sources)]
        for name in missing:
            if name in metrics:
                metrics[name] = 0
        return metrics, stats, missing


def run_workload(name: str, seed: int, seconds: float, trace: bool, teams: int) -> dict:
    workload = WORKLOADS[name]
    bench = Bench(workload, seed, teams)
    try:
        bench.verify_reference(seed, teams)
        tag = f"{name}-seed{seed}-teams{teams}-trace{int(trace)}"
        RESULTS.mkdir(parents=True, exist_ok=True)
        missing: list[str] = []
        if trace:
            spans_path = RESULTS / f"{tag}-spans.json.gz"
            values, stats, missing = bench.measure_traced(seconds, spans_path)
            units = PER_LAYER
        else:
            values, stats = bench.measure(seconds)
            units = END_TO_END
        result = {
            "correct": bench.failed == 0 and not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
        }
        details = {
            "workload": name, "seed": seed, "teams": teams, "trace": int(trace),
            "seconds": seconds, "flags": list(workload.flags),
            "python": sys.version.split()[0], "machine": platform.machine(),
            "cpus": os.cpu_count(), "input": bench.season.name,
            "input_sha256": bench.season_sha256, "problems": bench.problems,
            "missing": missing, "samples": stats, **result,
        }
        (RESULTS / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
        return {**result, "details": details}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def print_summary(name: str, result: dict) -> None:
    details = result["details"]
    print(f"# {name} seed={details['seed']} teams={details['teams']} "
          f"input={details['input']} sha256={details['input_sha256']}")
    for metric, entry in result["metrics"].items():
        stat = details["samples"].get(metric, {})
        tail = stat.get("tail")
        extra = f"  n={stat['n']}" if stat else ""
        if tail:
            extra += f"  p{tail['percentile']}={tail['value']:.6g}"
        unscaled = details["samples"].get(f"unscaled.{metric}")
        if unscaled:
            extra += f"  unscaled={unscaled['median']:.6g}"
        print(f"{name:16} {metric:40} {entry['value']:>14.6g} {entry['unit']:14}{extra}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:16} {'fail_ratio':40} {ratio:>14.6g} {'ratio':14}"
          f"  {result['failed']}/{result['attempted']}")
    for problem in details["problems"]:
        print(f"{name:16} problem: {problem}")
    for metric in details["missing"]:
        print(f"{name:16} missing: {metric}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--teams", type=int, default=FULL_TEAMS,
                        help="teams in a generated league (even, at least 4)")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a timescore checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.teams < 4 or args.teams % 2:
        parser.error("--teams must be even and at least 4")
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One client on one CPU: the calibration and the children it scales
        # then run where the same speed applies.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.teams)
               for n in names}
    for name, result in results.items():
        print_summary(name, result)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items()
                        for m, e in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "details"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
