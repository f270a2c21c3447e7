"""RL012 bad (linted as repro.service.batcher): clock reads outside the
``repro.service.clock`` shim are still findings — service code must
route timing through the one allowlisted module."""

import time
from time import monotonic


def window_deadline(max_wait):
    start = time.monotonic()  # line 10: RL012
    return monotonic() + max_wait - start  # line 11: RL012
