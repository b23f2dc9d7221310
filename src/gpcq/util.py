"""Small shared numeric helpers: RNG derivation, intervals, digit tables, compositions."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _key_word(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & (2**63 - 1)
    digest = hashlib.sha256(repr(part).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, *key) -> np.random.Generator:
    """Derive an independent generator from (seed, key...).

    Key parts may be ints, strings, or tuples; non-ints are hashed stably.
    Independent work units (restarts, trials) each derive their own stream,
    so a unit's result does not depend on which units ran before it.
    """
    return np.random.default_rng([int(seed) & (2**63 - 1), *(_key_word(p) for p in key)])


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.96
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def digit_table(d: int, n: int) -> np.ndarray:
    """All length-n base-d digit strings as an (d**n, n) int array, row i = digits of i."""
    idx = np.arange(d**n)
    out = np.empty((d**n, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = idx % d
        idx = idx // d
    return out


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest

