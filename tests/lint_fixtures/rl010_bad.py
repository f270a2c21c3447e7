"""Seeded RL010 violation: the draw is two helpers deep.

``repro.vector.newkern`` is not a strict kernel module, so the
method-style draw on a passed-in generator is no direct hit.  The
whole-program effect fixpoint still reaches it through the helper
chain, from a function body and from import-time code alike.
"""


def _draw(rng, n):
    return rng.uniform(size=n)


def _indirect(rng, n):
    return _draw(rng, n)


def kernel_mix(xs, rng):
    noise = _indirect(rng, len(xs))
    return xs + noise


SEEDED = _indirect(None, 1)  # line 23: module level
