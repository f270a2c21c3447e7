"""The repository benchmark: one command, four workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``sweep-sim``
    ``run_figure("fig3b")``: 19 rescaled buckets, DP/GN1/GN2 plus the
    full-bucket EDF-NF simulation (``sweeps.py``).
``sweep-analysis``
    ``run_figure("fig4b")``: 12 binned buckets, analysis only.
``admission-boundary``
    The in-process admission service near capacity, 64 closed-loop
    coroutine clients (``admission.py``).
``service-http``
    ``repro-service`` in its own process, this process as the client over
    two keep-alive connections (``httpload.py``).

With ``--trace 0`` the run reports the end-to-end metrics (measured with
no spans installed); with ``--trace 1`` it reports the per-layer metrics
from a separate traced run, including the spans' coverage of wall time
and their overhead against the same work untraced.  Spans are written to
``.perfbench_out/spans-<workload>-<seed>.json`` and every result is
appended to ``.perfbench_out/results.jsonl`` together with the core
count, Python and numpy versions and the seed; ``compare.py`` diffs two
such result sets.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output was correct, 1 when a correctness check failed, and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

import benchlib
from benchlib import metric
from procs import Child
from speed import SpeedProbe

#: Seconds after start at which a run stops waiting for its worker.
RUN_DEADLINE_S = 170.0
STARTED = time.perf_counter()


def run_inprocess(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up probes, then the measured worker process."""
    worker = [sys.executable, str(benchlib.BENCH_DIR / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    setups: List[float] = []
    speed = SpeedProbe()
    for _ in range(benchlib.SETUP_LAUNCHES - 1):
        speed.sample()
        child = Child(worker + ["--setup-only"])
        try:
            setups.append(child.wait_for(benchlib.READY, 60)[1])
            child.finish(30)
        finally:
            child.stop()
    speed.sample()
    child = Child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        setups.append(child.wait_for(benchlib.READY, 60)[1])
        out = child.finish(RUN_DEADLINE_S - (time.perf_counter() - STARTED))
    finally:
        child.stop()
    if child.proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {child.proc.returncode}")
    result = benchlib.last_json_line(out)
    if result is None:
        raise RuntimeError("worker printed no result")
    result["setups"] = setups
    result["setup_slowdown"] = speed.slowdown()
    return result


def run_http(args: argparse.Namespace) -> Dict[str, Any]:
    """The server in its own processes, this process as the client."""
    from httpload import HttpRunner

    runner = HttpRunner(args.seed)
    result = runner.traced(args.seconds) if args.trace else runner.timed(args.seconds)
    result.update({"attempted": runner.attempted, "failed": runner.failed,
                   "problems": runner.problems[:20]})
    return result


def assemble(args: argparse.Namespace, spec: Dict[str, Any],
             result: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics BENCHMARK.json lists for this kind of run, in its order."""
    measured = dict(result["metrics"])
    attempted, failed = int(result["attempted"]), int(result["failed"])
    if args.trace:
        measured["loadgen.sent"] = metric(attempted, "count")
        measured["loadgen.failed"] = metric(failed, "count")
        measured["error_rate"] = metric(failed / attempted if attempted else 1.0, "ratio")
        wanted = spec["per_layer"]
    else:
        # Set-up is CPU-bound start-up work: reported at nominal host
        # speed, like the workloads' own CPU-bound figures.
        measured["setup_s"] = metric(
            benchlib.median(result["setups"]) / result["setup_slowdown"], "s")
        measured["peak_rss_mb"] = metric(result["peak_rss_mb"], "MiB")
        wanted = spec["end_to_end"]
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            out[name] = metric(measured[name]["value"], entry["unit"])
        elif args.trace:
            # A layer this workload does not exercise did no work.
            out[name] = metric(0.0, entry["unit"])
        else:
            raise RuntimeError(f"workload {args.workload} did not measure {name}")
    return out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not benchlib.program_present():
        print(f"perfbench: no program sources under {benchlib.SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = benchlib.load_benchmark_spec()
    sys.path.insert(0, str(benchlib.SRC))
    if args.workload == "service-http":
        result = run_http(args)
    else:
        result = run_inprocess(args)
    metrics = assemble(args, spec, result)
    correct = result["failed"] == 0
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "problems": result.get("problems", []), "metrics": metrics,
        "ladder": result.get("ladder"), "self_time_s": result.get("self_time_s"),
        "raw_metrics": result.get("raw_metrics"), "slowdown": result.get("slowdown"),
        "setups": result.get("setups"), "setup_slowdown": result.get("setup_slowdown"),
        "env": benchlib.environment_record(args.seed),
    }
    benchlib.OUT_DIR.mkdir(exist_ok=True)
    with open(benchlib.OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"ops sent={result['attempted']} "
          f"succeeded={result['attempted'] - result['failed']} failed={result['failed']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
