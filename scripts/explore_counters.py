#!/usr/bin/env python3
"""Prints the deterministic counters of `sdf explore --json --threads=1`.

Usage: scripts/explore_counters.py <sdf binary> <spec.json>...

For each spec the output holds every `stats` entry of the one-thread run
except wall-clock timings (keys ending in `_seconds`) and the band block,
which describe how the run was scheduled rather than what it examined.
Those counters are identical on every host, so `scripts/check_all.sh`
diffs this output against the committed `scripts/explore_counters.json`:
a change that moves any of them must update that file on purpose.
"""
import json
import subprocess
import sys

BAND_BLOCK = {"threads", "bands", "peak_band_size", "bands_grown",
              "bands_shrunk", "band_capacity_last"}


def counters(sdf, spec):
    run = subprocess.run([sdf, "explore", "--json", "--threads=1", spec],
                         check=True, capture_output=True, text=True)
    stats = json.loads(run.stdout)["stats"]
    return {key: value for key, value in stats.items()
            if not key.endswith("_seconds") and key not in BAND_BLOCK}


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    sdf, specs = argv[1], argv[2:]
    report = {spec: counters(sdf, spec) for spec in specs}
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
