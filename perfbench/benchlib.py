"""Shared helpers: statistics, the pinned child environment, result I/O.

Every benchmark process (the entry point ``run.py``, the in-process
workload workers, the traced server wrapper) imports this module from
the ``perfbench`` directory.  It imports nothing from the measured
program, so ``run.py`` can fail fast in a checkout without ``src/``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Span dumps and the result log; listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep-sim", "sweep-analysis", "admission-boundary", "service-http")

#: Marker a process prints on stdout once it is ready to take work.
READY = "PERFBENCH-READY"
#: Process launches per run whose start-to-ready times give ``setup_s``
#: (set-up probes plus the measured process itself).
SETUP_LAUNCHES = 5


def program_present() -> bool:
    """True when the checkout holds the measured program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` variables are dropped so nothing outside the benchmark
    can change what is measured (array backend, simulation workers),
    BLAS pools are pinned to one thread, and ``src`` leads the import
    path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def pin_program() -> None:
    """Pin the in-process program: numpy array backend, sources on path.

    Called by every process that imports ``repro``.  The ``sim_workers``
    and backend kwargs the workloads pass are explicit as well; this
    also fixes the analytical kernels that resolve the process default.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.vector import xp

    xp.set_backend("numpy")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; nan when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment_record(seed: int) -> Dict[str, Any]:
    """What each result is recorded with: cores, Python, numpy, seed."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def load_benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def last_json_line(text: str) -> Optional[Dict[str, Any]]:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


# -- open-loop rate ladder -----------------------------------------------------

#: Ladder rungs as fractions of the closed-loop rate measured in the same
#: run; the middle rung gives ``open_p50_ms``.  At higher loads the
#: host's swings in speed (±20% from one second to the next) overload a
#: rung now and then, and a request of ``service-http`` often waits for
#: its connection's previous one: the open-loop figures then follow the
#: host more than the program.
LADDER = (0.4, 0.5, 0.6)


def step_summary(rate: float, due: Sequence[float], done: Sequence[float],
                 ok: Sequence[bool], limit_ms: float) -> Dict[str, Any]:
    """Latency and SLO verdict of one open-loop rung.

    Latency runs from when each request was due.  A failed request
    counts as missing the limit.  The backlog grew when, at the last
    request's due time, more than ``max(3, n/10)`` requests were due
    but not yet done.
    """
    lat = [(d - u) * 1e3 if good else float("inf") for u, d, good in zip(due, done, ok)]
    last_due = max(due)
    outstanding = sum(1 for u, d in zip(due, done) if u <= last_due and d > last_due)
    grew = outstanding > max(3, len(due) // 10)
    p99 = percentile(lat, 99)
    return {
        "rate_per_s": rate,
        "n": len(due),
        "p50_ms": median(lat),
        "p99_ms": p99,
        "outstanding_at_end": outstanding,
        "backlog_grew": grew,
        "meets_slo": (p99 <= limit_ms) and not grew,
    }


def ladder_metrics(steps: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """``open_p50_ms`` at the middle rung and the highest rung rate that
    meets the SLO (0 when none does).

    A rung whose backlog grew has no steady latency to report: the open
    metrics then come from the fastest lower rung that held, and a run
    where no rung held fails.
    """
    held = [s for s in steps if not s["backlog_grew"]]
    if not held:
        raise RuntimeError("open loop: the backlog grew at every ladder rate")
    middle = steps[len(steps) // 2]
    if middle["backlog_grew"]:
        lower = [s for s in held if s["rate_per_s"] < middle["rate_per_s"]]
        middle = max(lower or held, key=lambda s: s["rate_per_s"])
    passing = [s["rate_per_s"] for s in steps if s["meets_slo"]]
    return {
        "open_p50_ms": metric(middle["p50_ms"], "ms"),
        "slo_rate_per_s": metric(max(passing) if passing else 0.0, "1/s"),
    }


def windowed_rate(done: Sequence[float], t0: float, t1: float, width: float = 1.0) -> float:
    """Median over equal windows (about ``width`` s each, at least 3) of
    completions per second: robust to short stalls of a shared host."""
    n = max(3, int((t1 - t0) / width))
    step = (t1 - t0) / n
    counts = [0] * n
    for t in done:
        if t0 <= t < t1:
            counts[min(n - 1, int((t - t0) / step))] += 1
    return median([c / step for c in counts])
