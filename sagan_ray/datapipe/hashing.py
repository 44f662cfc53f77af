"""The SplitMix64 per-id ordering hash. The value-pure key hash,
``hash_array_pure``, lives with the exchange in ``sagan_ray.exchange``."""

from __future__ import annotations

import numpy as np


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array — the deterministic
    per-id ordering hash behind blocking-independent sampling (the same
    spec the golden oracle replays sequentially)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))
