"""RL012 bad: wall-clock reads in the analysis tree (module-call,
aliased-module, and from-import forms)."""

import time
import time as t
from time import perf_counter as pc


def profile(fn):
    start = time.time()  # line 10: RL012
    mid = t.monotonic()  # line 11: RL012
    fn()
    return pc() - start + mid  # line 13: RL012
