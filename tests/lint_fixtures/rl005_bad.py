"""RL011 bad (linted as repro.vector.sim_vec): per-iteration host-device
syncs inside pass loops."""


def fused_pass(live, deadlines):
    total = 0.0
    while live.any():
        total += live.sum().item()  # line 8: RL011 (.item in while)
        live = advance(live)
    for row in deadlines:
        misses = row.tolist()  # line 11: RL011 (.tolist in for)
        buf = row.get()  # line 12: RL011 (zero-arg .get in for)
    return total, misses, buf


def advance(live):
    return live
