"""Record the golden report digests the benchmark checks against.

    python3 bench/record_golden.py

For each workload, records the sha256 of `SuiteReport.to_json_text()` for
the warm-up units (checked on every run, whatever the seed) and for the
first GOLDEN_ROUNDS rounds at the default seed. Refuses to record a report
with any trial that did not pass. Run it only when the canonical report is
meant to change, and say so in the change that does.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

GOLDEN_ROUNDS = 8


def main() -> int:
    lib = wl.Library()
    golden = {}
    for workload in sorted(wl.MIXES):
        units = wl.warmup_units(workload) + [
            u for r in range(GOLDEN_ROUNDS)
            for u in wl.round_units(workload, wl.DEFAULT_SEED, r)
        ]
        digests = {}
        for unit in units:
            output = lib.run(unit)
            bad, why = wl.check(unit, lib.records(unit), output, {})
            if bad:
                print(f"{workload} {unit.key}: {why}; not recorded", file=sys.stderr)
                return 1
            if unit.name != wl.ROTATION:
                digests[unit.key] = wl.digest(output[1])
        golden[workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
