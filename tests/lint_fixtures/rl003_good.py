"""RL010 good (linted as an allowlisted generation module): the
sampler layer constructs seeded generators freely."""

import numpy as np


def sample(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=n)
