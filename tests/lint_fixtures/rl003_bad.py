"""RL010 bad, direct tier: RNG construction and global-state draws
outside the sampler layer (linted as a strict vector kernel module)."""

import random  # line 4: RL010 (stdlib random)

from repro.vector import xp


def kernel(batch):
    rng = xp.host.random.default_rng(17)  # line 10: RL010 (construction)
    jitter = rng.uniform(0.0, 1.0, size=8)  # line 11: RL010 (strict draw)
    return random.shuffle(list(batch)), jitter  # line 12: RL010 (global draw)
