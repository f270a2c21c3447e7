"""The service layer's one sanctioned wall-clock touchpoint.

Everything under ``src/repro`` is input-deterministic by contract —
RL012 bans wall-clock reads so analysis results can never depend on
when they ran.  A *serving* layer, though, is defined by time: the
micro-batcher's coalescing window is latency-bounded and every request
carries an arrival timestamp for the latency percentiles the load
harness reports.  Those reads are confined to this module, which is the
single RL012-allowlisted entry in
:data:`repro.lint.config.WALL_CLOCK_ALLOWED_MODULES`; the rest of
:mod:`repro.service` calls :func:`now` and stays lint-clean.  Decisions
themselves never depend on clock values — time only shapes *when* a
batch flushes, not *what* it decides (the parity suite replays the same
streams through arbitrary batch partitions).
"""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic seconds (arbitrary epoch) for timers and latencies."""
    return time.monotonic()
