"""RL012 good (linted as repro.service.clock): the admission service's
single allowlisted wall-clock touchpoint — batching-window deadlines and
latency metrics may read the clock here, and only here."""

import time


def now() -> float:
    return time.monotonic()
