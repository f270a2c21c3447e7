"""Seeded RL012 violation: a locally-excused clock still leaks.

The pragma excuses the direct read; RL012 still flags the *caller*,
because wall-clock influence must never be inherited silently outside
repro.service.clock.
"""

import time


def _stamp():
    return time.perf_counter()  # repro-lint: disable=RL012 -- seeded fixture: the point is the caller below


def elapsed(start):
    return _stamp() - start
