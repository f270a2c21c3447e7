"""The measured process of the in-process workloads.

``run.py`` starts this script once per set-up probe (``--setup-only``)
and once for the run itself.  It pins the program, builds the workload,
prints the ready marker, runs, and prints one JSON line with the
workload's metrics, operation counts, correctness problems and its own
peak memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import benchlib


def build(workload: str, seed: int):
    if workload in ("sweep-sim", "sweep-analysis"):
        from sweeps import SweepRunner

        return SweepRunner(workload, seed)
    if workload == "admission-boundary":
        from admission import AdmissionRunner

        return AdmissionRunner(seed)
    raise SystemExit(f"worker: unknown in-process workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    benchlib.pin_program()
    runner = build(args.workload, args.seed)
    runner.setup()
    print(benchlib.READY, flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = runner.traced(args.seconds)
        runner.tr.dump(benchlib.OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        result = runner.timed(args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
