"""Regenerate ``pins.json``: the curve digest of each sweep workload per
figure seed.

Usage: ``python3 perfbench/make_pins.py FIRST LAST`` pins the figure
seeds of run seeds FIRST..LAST (run seed ``s`` sweeps figure seeds
``s * FIGURE_SEEDS`` to ``s * FIGURE_SEEDS + FIGURE_SEEDS - 1``).

A sweep whose figure seed is pinned fails when its curves differ from
the pinned digest.  Re-pin only when the program's sweep outputs are
meant to change.
"""

from __future__ import annotations

import json
import sys

import benchlib


def main(argv: list) -> int:
    first, last = int(argv[0]), int(argv[1])
    benchlib.pin_program()
    from sweeps import FIGURE_SEEDS, PINS_FILE, SWEEPS, SweepRunner, curve_digest

    pins = {}
    for workload in SWEEPS:
        runner = SweepRunner(workload, 0)
        runner.setup()
        pins[workload] = {}
        for seed in range(first * FIGURE_SEEDS, (last + 1) * FIGURE_SEEDS):
            pins[workload][str(seed)] = curve_digest(runner.figure(seed))
            print(workload, seed, pins[workload][str(seed)][:16], flush=True)
    with open(PINS_FILE, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
