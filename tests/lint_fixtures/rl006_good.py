"""RL012 good: time.sleep / strftime are not clock *reads*, and naming
a local function perf_counter shadows nothing."""

import time


def wait(dt):
    time.sleep(dt)
    return time.strftime("%Y")
