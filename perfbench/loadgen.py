"""Load generation shared by the service workloads: open-loop arrivals,
the rate ladder, and the end-to-end metrics of a closed loop plus ladder.

Requests are due on a fixed schedule (``rate`` per second) whatever the
program is doing; each is timed from when it was due, so a stall counts
against every request queued behind it.  The generator records how late
it issued each request (``lag``), which on a shared event loop includes
the time the loop was busy deciding.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, List

import benchlib
from benchlib import metric, percentile


async def open_loop(rate: float, n: int,
                    fire: Callable[[int], Awaitable[bool]]) -> Dict[str, List[Any]]:
    """Issue ``fire(i)`` for i in range(n), request i due at ``i / rate``
    seconds from the start.  Returns due/done times, ok flags and lags."""
    due = [0.0] * n
    done = [0.0] * n
    ok = [False] * n
    lags = [0.0] * n

    async def one(i: int) -> None:
        try:
            ok[i] = await fire(i)
        finally:
            done[i] = time.perf_counter()

    tasks = []
    t0 = time.perf_counter()
    for i in range(n):
        due[i] = t0 + i / rate
        delay = due[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags[i] = time.perf_counter() - due[i]
        tasks.append(asyncio.ensure_future(one(i)))
    results = await asyncio.gather(*tasks, return_exceptions=True)
    for i, res in enumerate(results):
        if isinstance(res, BaseException):
            ok[i] = False
    return {"due": due, "done": done, "ok": ok, "lags": lags}


async def ladder(rung: Callable[[float, int], Awaitable[Dict[str, List[Any]]]],
                 rate: float, seconds: float, limit_ms: float) -> List[Dict[str, Any]]:
    """One ``rung(rate, n)`` per :data:`benchlib.LADDER` load, summarised
    against ``limit_ms``.  The middle rung, whose latency is reported,
    gets half of ``seconds``; the others share the rest."""
    middle = len(benchlib.LADDER) // 2
    steps = []
    for i, f in enumerate(benchlib.LADDER):
        share = 0.5 if i == middle else 0.5 / (len(benchlib.LADDER) - 1)
        r = f * rate
        res = await rung(r, max(50, int(r * seconds * share)))
        steps.append(benchlib.step_summary(r, res["due"], res["done"], res["ok"], limit_ms))
    return steps


def rung_p99_ms(rung: Dict[str, List[Any]]) -> float:
    """p99 of one open-loop rung's latencies, from each request's due
    time; a failed request counts as missing every limit."""
    lat = [(d - u) if ok else float("inf")
           for u, d, ok in zip(rung["due"], rung["done"], rung["ok"])]
    return percentile(lat, 99) * 1e3


def service_metrics(closed: Dict[str, Any], steps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of a service workload from its closed-loop
    phase (rate, latencies) and its ladder."""
    rate = closed["rate"]
    metrics = {
        "tasksets_per_s": metric(rate * closed["analysed"] / len(closed["lats"]), "1/s"),
        "decisions_per_s": metric(rate, "1/s"),
        "latency_p50_ms": metric(benchlib.median(closed["lats"]) * 1e3, "ms"),
    }
    metrics.update(benchlib.ladder_metrics(steps))
    return metrics
