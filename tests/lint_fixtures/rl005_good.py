"""RL011 good (linted as repro.vector.sim_vec): sync at the batch
boundary only; keyed dict .get inside loops stays legal."""

from repro.vector import xp


def fused_pass(live, options):
    count = 0
    for key in options:
        count += options.get(key, 0)  # dict lookup, not a device sync
    while live.any():
        live = advance(live)
    xp.synchronize()  # boundary sync, outside any loop
    return xp.asnumpy(live), count, live.sum().item()  # boundary read


def advance(live):
    return live
