"""Seeded RL011 violation: the host sync hides one helper away.

A direct ``.tolist()`` inside a sim_vec pass loop is a length-0 chain;
here the loop body only calls ``_collect`` and the stall lives in the
helper — found through the HOST_SYNC effect fixpoint instead.
"""


def _collect(row):
    return row.tolist()


def run_passes(frames):
    out = []
    for frame in frames:
        out.append(_collect(frame))
    return out
