"""Compare two benchmark result sets, metric by metric, per workload.

Usage::

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are result logs written by ``run.py`` (a
``results.jsonl`` file, or a directory holding ``*.jsonl`` files).  For
every end-to-end metric of ``BENCHMARK.json`` and every workload found
on both sides, it prints each side's median and quartiles over its runs
(``--trace 0`` runs whose outputs were correct) and a verdict:

``same``        the medians differ by no more than the metric's bound;
``worse``       the change's median is worse by more than the bound;
``better``      the change's median is better by more than the bound;
``unresolved``  either side's own spread (quartile distance over median)
                is wider than the bound, and not every change run beats
                every base run (or the reverse).

The exit code is 1 when any metric reads ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

import benchlib


def load(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values over the correct untraced runs."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    out: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for file in files:
        with open(file) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for record in records:
            if record.get("trace") != 0 or not record.get("correct"):
                continue
            for name, m in record["metrics"].items():
                out[record["workload"]][name].append(m["value"])
    return out


def verdict(base: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = benchlib.median(base), benchlib.median(change)
    gain = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if sign * min(change) > sign * max(base):
        return "better" if gain > bound else "same"
    if sign * max(change) < sign * min(base):
        return "worse" if -gain > bound else "same"
    for side in (base, change):
        q1, med, q3 = benchlib.quartiles(side)
        if med and (q3 - q1) / abs(med) > bound:
            return "unresolved"
    if gain > bound:
        return "better"
    if -gain > bound:
        return "worse"
    return "same"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = benchlib.load_benchmark_spec()
    base, change = load(args.base), load(args.change)
    worse = False
    print(f"{'workload':20s} {'metric':16s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s}  verdict")
    for workload in benchlib.WORKLOADS:
        if workload not in base or workload not in change:
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            v = verdict(b, c, entry["bound"], entry["better"])
            worse |= v == "worse"
            fmt = lambda vals: "/".join(f"{x:.4g}" for x in benchlib.quartiles(vals))
            print(f"{workload:20s} {name:16s} {fmt(b):>30s} {fmt(c):>30s}  {v}"
                  f"  (n={len(b)}/{len(c)}, bound {entry['bound']:.0%} {entry['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
