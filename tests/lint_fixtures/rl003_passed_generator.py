"""RL010 good (linted as a non-strict, non-allowlisted module): drawing
from an explicitly *passed* generator is the sanctioned pattern — only
construction and global-state draws are flagged outside strict kernels."""


def score(rng, n):
    return rng.uniform(0.0, 1.0, size=n).sum()
