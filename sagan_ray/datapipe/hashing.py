"""The family-wide vectorized hash primitives: the value-pure 64-bit
hash of arbitrary values, and the SplitMix64 per-id ordering hash.

``hash_array_pure``: ``pd.util.hash_array`` with its DEFAULT
``categorize=True`` is NOT a pure function of the element value: the
categorize path factorizes through a khash table whose string equality
is C-strlen based, so a string containing a NUL byte is conflated with
whichever equal-up-to-the-NUL string entered the table first — the hash
of '\\x000' depends on what ELSE is in the array (found by the
batch-vs-single hypothesis property test). That breaks both the
"hash is a pure function of the word" spec every dedup/text operator
relies on and, worse, conv-id bucket routing in the engine exchange
(the same conv_id could land in different buckets in different blocks,
splitting correlation state). ``categorize=False`` hashes each element
directly (full-length bytes) and is value-pure; on NUL-free input the
two paths return IDENTICAL values, so switching changes no existing
gate output. Cost: the hash pass is ~2x slower on heavy-repeat word
arrays (0.58 -> 1.14 s per 4M Zipf words, measured) — a fraction of
any operator's total. Every pipeline AND golden call site routes
through this wrapper so both sides of the gate share one spec.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def hash_array_pure(vals):
    """Value-pure 64-bit hashes: pd.util.hash_array(categorize=False)."""
    return pd.util.hash_array(vals, categorize=False)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array — the deterministic
    per-id ordering hash behind blocking-independent sampling (the same
    spec the golden oracle replays sequentially)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))
