#!/usr/bin/env python3
"""Self-test of the benchmark at the smallest size, with no timing gates.

    python3 bench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit on every
workload, that the traced call counts read as expected, that a corrupted
output is counted as a failure, and that the benchmark refuses to run in a
directory that holds only itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict

from run import ROOT, SRC, WORK, Bench
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Traced call counts per fixture at this commit: two systems on bundled, four elsewhere.
CALLS_PER_FIXTURE = {
    "bundled": {"timeline.segment_calls_per_fixture": 8,
                "scoring.match_points_calls_per_fixture": 10},
    "league": {"timeline.segment_calls_per_fixture": 18,
               "scoring.match_points_calls_per_fixture": 20},
}


def run_bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
            "--seconds", "0.01", "--trace", str(trace), "--teams", "4"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_printed_metrics() -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            assert printed == wanted, (workload, trace, printed)
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (name, entry)
                if trace == 0:
                    assert entry["value"] > 0, (workload, name, entry)
            if trace == 1:
                kind = "bundled" if workload == "bundled" else "league"
                for name, count in CALLS_PER_FIXTURE[kind].items():
                    assert result["metrics"][name]["value"] == count, (workload, name)
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics with units")


def check_corruption_counts_as_failure() -> None:
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS["league60_minute"], seed=2, teams=4)
    try:
        bench.verify_reference(seed=2, teams=4)
        assert not bench.bad and not bench.problems, bench.problems
        out_dir = bench.work / "corrupt"
        bench.pipeline(out_dir, defaultdict(list))
        assert (bench.attempted, bench.failed) == (4, 0), (bench.attempted, bench.failed)
        table = out_dir / "table.csv"
        data = bytearray(table.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        table.write_bytes(bytes(data))
        bench.check("table", out_dir, 0)
        assert (bench.attempted, bench.failed) == (5, 1), (bench.attempted, bench.failed)
        print("ok  a corrupted table.csv counts as a failed invocation")

        name = "ecdf_time.csv"
        bench.reference[name] = bench.reference[name].replace(b"1.000000\n", b"0.999999\n")
        bench.verify_reference(seed=2, teams=4)
        assert bench.bad == {"ecdf"}, bench.bad
        print("ok  a reference ECDF that does not end at 1.000000 fails the ecdf command")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def check_refuses_without_program() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("bundled", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print("ok  a directory with only the benchmark exits "
              f"{proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_printed_metrics()
    check_corruption_counts_as_failure()
    check_refuses_without_program()
    print("selftest passed")
