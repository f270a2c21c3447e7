"""Host speed: a fixed reference kernel timed alongside the program.

The benchmark shares a few cores of a busy host whose speed drifts by
up to ~2.5x over minutes (clock frequency, neighbours on the same cores,
vCPU time-slicing).  Such drift moves every CPU-bound timing of a run by
the same factor, so two runs of the same code would disagree by more
than any useful bound.

Each run therefore also times :func:`reference_block` — fixed Python and
numpy work that imports nothing from the program — at points where it
delays nothing that is timed (between the buckets of a sweep, on the
event loop of a closed loop with its time taken out, before each set-up
launch).  The median block time of a stretch of the run, over
:data:`NOMINAL_S`, is that stretch's *slowdown*; CPU-bound times
measured in it are divided by it and rates multiplied by it, so they
read as on the host at its nominal speed.  A change to the program moves
the reference not at all and the reported figure by its full amount.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Median time of one :func:`reference_block` on a 2-vCPU Xeon VM
#: (Python 3.11, numpy, one BLAS thread); only the unit of the slowdown.
NOMINAL_S = 0.0099
#: Blocks timed per :meth:`SpeedProbe.sample` call.
BLOCKS_PER_SAMPLE = 3


def reference_block() -> float:
    """About 10 ms of fixed work in the program's mix: interpreted loops
    over dicts and floats, then small-array numpy arithmetic, masks,
    reductions and sorts."""
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(15000):
        k = i % 61
        table[k] = table.get(k, 0.0) + (i * 0.5) / (k + 1)
        acc += table[k]
    acc += sorted(table.values())[30]
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(70):
        b = a * 1.0001 + 0.5
        acc += float(np.cumsum(b)[-1]) + int((b > 0.9).sum())
        a = np.sort(b % 1.0)
    return acc


class SpeedProbe:
    """Times reference blocks over a run; reports its slowdown."""

    def __init__(self) -> None:
        self.times: List[float] = []
        #: (start, end) of every block, for callers that time around them.
        self.spans: List[Tuple[float, float]] = []

    def sample(self, blocks: int = BLOCKS_PER_SAMPLE) -> None:
        for _ in range(blocks):
            t0 = time.perf_counter()
            reference_block()
            t1 = time.perf_counter()
            self.times.append(t1 - t0)
            self.spans.append((t0, t1))

    def overlap(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in reference blocks."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.spans
                   if a < end and b > start)

    def slowdown(self, since: int = 0) -> float:
        """Median reference time over :data:`NOMINAL_S` (1.0 = nominal)
        of the blocks from index ``since`` on, or of the last
        :data:`BLOCKS_PER_SAMPLE` when there are none."""
        times = self.times[since:] or self.times[-BLOCKS_PER_SAMPLE:]
        if not times:
            raise RuntimeError("speed probe: no reference samples")
        return statistics.median(times) / NOMINAL_S


def at_nominal_speed(metrics: Dict[str, Dict[str, Any]], slowdown: float,
                     names: Optional[Iterable[str]] = None) -> Dict[str, Dict[str, Any]]:
    """``metrics`` as on the host at nominal speed: times (``s``, ``ms``)
    divided by ``slowdown``, rates (``1/s``) multiplied by it.  Only
    ``names`` are scaled when given; other units are left as measured."""
    scale = {"1/s": slowdown, "s": 1.0 / slowdown, "ms": 1.0 / slowdown}
    out = {}
    for name, m in metrics.items():
        factor = scale.get(m["unit"], 1.0) if names is None or name in names else 1.0
        out[name] = {"value": m["value"] * factor, "unit": m["unit"]}
    return out
