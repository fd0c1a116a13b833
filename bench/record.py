#!/usr/bin/env python3
"""Record the shipped seed's input and output sha256 digests into expected.json.

    python3 bench/record.py

Run it only after an intentional change to the output format or to the
workload generator, and review the diff: the benchmark treats these digests
as the correct outputs of the generated workloads at the shipped seed.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import sha256
from run import EXPECTED, SHIPPED_SEED, SRC, Bench
from workloads import FULL_TEAMS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    expected = {}
    for name, workload in WORKLOADS.items():
        if workload.kind == "bundled":
            continue
        bench = Bench(workload, SHIPPED_SEED, FULL_TEAMS)
        try:
            if any(bench.reference_codes.values()):
                print(f"error: {name} failed: {bench.reference_codes}", file=sys.stderr)
                return 1
            expected[name] = {
                "input_sha256": bench.season_sha256,
                "outputs": {n: sha256(data) for n, data in bench.reference.items()},
            }
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
