"""Mergeable cardinality sketch: HyperLogLog distinct-count over a text
column's words (Flajolet et al. 2007, with the standard small-range
correction).

`corpus_stats` computes the EXACT distinct vocabulary through a
word-keyed exchange — one row per distinct word per batch crosses the
wire. This module is its 100-TB companion: each 64k-row batch emits ONE
fixed 2^p-byte register blob (a partial sketch), blobs combine by
elementwise max in any order/grouping (the sketch is a semilattice —
tree-combine, multi-level, restart-safe), and the final estimate reads
4 KB regardless of input size. Standard error ≈ 1.04/sqrt(2^p)
(~1.6 % at the default p=12).

Determinism: registers are exact integers (max of leading-zero ranks of
the same 64-bit word hashes the rest of the text family uses), so the
combined register array — and therefore the estimate — is bit-identical
under any block layout. The golden oracle (`oracle/golden.py::
write_golden_hll`) recomputes the registers with a sequential per-word
Python loop (int.bit_length, no numpy) and must keep matching exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa

from .textstats import _words_flat

DEFAULT_P = 12


def _rho(rest: np.ndarray, p: int) -> np.ndarray:
    """Leading-zero rank of the remainder, which `h << p` left-aligned
    into the 64-bit word: clz+1 = 64 - bit_length + 1 when nonzero,
    (64-p)+1 when the whole remainder is zero — exact integer
    bit_length via a 6-step binary reduction (no float log2, which
    loses precision past 2^53)."""
    bl = np.zeros(len(rest), np.int64)
    v = rest.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        v[big] >>= np.uint64(s)
    bl += (v > 0)
    return np.where(rest == 0, (64 - p) + 1, 64 - bl + 1)


def _estimate(reg: np.ndarray, p: int) -> float:
    """Bias-corrected harmonic-mean estimate. The register sum runs
    left-to-right over the fixed index order (a plain loop, 2^p terms,
    driver-side) so it is bit-identical to the golden spec's loop —
    numpy's pairwise summation would differ in the last ulp."""
    m = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / m)
    acc = 0.0
    for r in reg.tolist():
        acc += 2.0 ** (-r)
    raw = alpha * m * m / acc
    zeros = int(np.count_nonzero(reg == 0))
    if raw <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)   # math.log: same libm call as golden
    return raw


def _blob_combine_stage(parts, nbytes: int, fold):
    """Streaming second combine level for sketch blobs: a map_batches
    over the blob stream folds every ≤64 blobs into one IN TASKS, so the
    driver receives O(batches/64) blobs instead of O(batches) — at 100-TB
    batch counts the driver fold would otherwise be the bottleneck (and
    for CMS, terabytes of blobs). Folds are semilattice/abelian, so this
    extra level cannot change the result. Returns the driver-side folded
    array (None for empty input)."""

    def combine(tbl: pa.Table) -> pa.Table:
        col = tbl.column(tbl.column_names[0])
        acc = None
        for blob in col.to_pylist():
            v = np.frombuffer(blob, np.uint8)
            acc = v.copy() if acc is None else fold(acc, v)
        return pa.table({tbl.column_names[0]:
                         pa.array([acc.tobytes()], pa.binary(nbytes))})

    reduced = parts.map_batches(combine, batch_format="pyarrow",
                                batch_size=64).to_pandas()
    if reduced.empty:
        return None
    acc = None
    for blob in reduced.iloc[:, 0]:
        v = np.frombuffer(blob, np.uint8)
        acc = v.copy() if acc is None else fold(acc, v)
    return acc


def hll_vocab(ds, *, p: int = DEFAULT_P, text_col: str = "text"):
    """Approximate distinct-word count of a documents Dataset. Returns a
    one-row pandas DataFrame (m, n_vocab_est). The distributed part is
    partial-register blobs only, tree-combined in tasks (64 blobs → 1
    per level) before a small driver fold — the blob max is associative/
    commutative/idempotent, so any topology gives the same registers."""
    m = 1 << p
    shift = np.uint64(64 - p)
    pshift = np.uint64(p)

    def partial(tbl: pa.Table) -> pa.Table:
        _, _, _, wh, _ = _words_flat(tbl.column(text_col))
        reg = np.zeros(m, np.uint8)
        if len(wh):
            idx = (wh >> shift).astype(np.int64)
            rest = wh << pshift
            np.maximum.at(reg, idx, _rho(rest, p).astype(np.uint8))
        return pa.table({"reg": pa.array([reg.tobytes()], pa.binary(m))})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
    reg = _blob_combine_stage(parts, m, np.maximum)
    if reg is None:
        reg = np.zeros(m, np.uint8)
    return pd.DataFrame({"m": pd.Series([m], dtype="int64"),
                         "n_vocab_est": pd.Series([_estimate(reg, p)],
                                                  dtype="float64")})


# ----------------------------------------------------------------------
# Count-Min sketch: mergeable frequency estimates
# ----------------------------------------------------------------------

CMS_DEPTH = 4
CMS_WIDTH = 1 << 14


def _cms_index(wh: np.ndarray, row: int, width: int) -> np.ndarray:
    """Row-j bucket of a word hash: SplitMix64(wh ^ (row+1)) % width —
    the same per-row seeded finalizer the samplers use. A SPEC function
    (the golden replays it per word)."""
    from .hashing import _splitmix64

    return (_splitmix64(wh ^ np.uint64(row + 1))
            % np.uint64(width)).astype(np.int64)


def cms_word_counts(ds, probe_words: list[str], *, depth: int = CMS_DEPTH,
                    width: int = CMS_WIDTH, text_col: str = "text"):
    """Count-Min sketch (Cormode & Muthukrishnan 2005) of word
    OCCURRENCE counts, probed for ``probe_words``. The frequency
    companion to ``hll_vocab``: each pinned 64k-row batch emits ONE
    depth×width int64 blob; blobs combine by elementwise ADDITION —
    exact integers, so any combine topology (tree, multi-level,
    restart-resume) yields the identical sketch and the golden
    sequential spec matches bit-for-bit. Estimate(word) = min over rows
    of counter[row][index(row, word)]; guaranteed ≥ the true count,
    with overestimate probability (1/2^…) bounded by depth/width.
    Returns a pandas DataFrame (word, est) ordered by probe position.

    At 100 TB: the data crosses the wire only as 512 KB partial blobs
    per 64k-row batch (vs one row per distinct word per batch for the
    exact exchange), tree-combined 64→1 in tasks before a small driver
    fold — the bounded-memory path when the vocabulary itself is too
    large to shuffle."""
    m = depth * width

    def partial(tbl: pa.Table) -> pa.Table:
        _, _, _, wh, _ = _words_flat(tbl.column(text_col))
        cms = np.zeros((depth, width), np.int64)
        if len(wh):
            for j in range(depth):
                # bincount, not np.add.at: same exact integer counts,
                # ~8× faster scatter (measured at 2.6 M words/batch)
                cms[j] = np.bincount(_cms_index(wh, j, width),
                                     minlength=width)
        return pa.table({"cms": pa.array([cms.tobytes()],
                                         pa.binary(m * 8))})

    def fold_add64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a.view(np.int64) + b.view(np.int64)).view(np.uint8)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
    acc = _blob_combine_stage(parts, m * 8, fold_add64)
    cms = (np.zeros(depth * width, np.int64) if acc is None
           else acc.view(np.int64).copy())
    cms = cms.reshape(depth, width)

    ests = []
    for w in probe_words:
        wh = _hash_pure(
            np.array([w], dtype=object)).astype(np.uint64)
        est = min(int(cms[j][int(_cms_index(wh, j, width)[0])])
                  for j in range(depth))
        ests.append(est)
    return pd.DataFrame({"word": pd.Series(probe_words, dtype="object"),
                         "est": pd.Series(ests, dtype="int64")})


# ----------------------------------------------------------------------
# Bloom filter: mergeable membership sketch
# ----------------------------------------------------------------------

BF_P = 20        # 2^20 bits -> 128 KB blob
BF_K = 5


def _bf_bit(wh: np.ndarray, j: int, nbits: int) -> np.ndarray:
    """Bit index j of a word hash: SplitMix64(wh ^ (j+1)·golden) %
    nbits — a SPEC function (the golden replays it per word); the
    multiplier decorrelates the seeds from the CMS row seeds."""
    from .hashing import _splitmix64

    seed = np.uint64(((j + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    return (_splitmix64(wh ^ seed) % np.uint64(nbits)).astype(np.int64)


def bloom_membership(ds, probe_words: list[str], *, p: int = BF_P,
                     k: int = BF_K, text_col: str = "text"):
    """Bloom filter (Bloom 1970) over a text column's words, probed for
    ``probe_words`` — the MEMBERSHIP companion to hll_vocab (cardinality)
    and cms_word_counts (frequency). Each pinned 64k-row batch emits ONE
    2^p-bit packed bitmap blob; blobs combine by bitwise OR (semilattice
    like the HLL registers: idempotent/associative/commutative, so any
    fold topology — tree, multi-level, restart-resume — yields the
    identical bitmap and the sequential golden matches bit-for-bit).
    No false negatives ever; false-positive probability ≈
    (1 - e^(-k·n/2^p))^k. Returns a pandas DataFrame
    (word, present 0/1, fill_bits = exact popcount of the bitmap).

    At 100 TB: only 128 KB blobs cross the wire per 64k-row batch,
    tree-combined 64→1 in tasks — the bounded-memory membership path
    when the vocabulary itself is too large to shuffle."""
    nbits = 1 << p
    nbytes = nbits >> 3

    def partial(tbl: pa.Table) -> pa.Table:
        _, _, _, wh, _ = _words_flat(tbl.column(text_col))
        bm = np.zeros(nbytes, np.uint8)
        if len(wh):
            for j in range(k):
                ix = _bf_bit(wh, j, nbits)
                np.bitwise_or.at(bm, ix >> 3,
                                 (1 << (ix & 7)).astype(np.uint8))
        return pa.table({"bf": pa.array([bm.tobytes()], pa.binary(nbytes))})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
    bm = _blob_combine_stage(parts, nbytes, np.bitwise_or)
    if bm is None:
        bm = np.zeros(nbytes, np.uint8)
    fill = int(np.unpackbits(bm).sum())          # exact integer popcount
    present = []
    for w in probe_words:
        wh = _hash_pure(
            np.array([w], dtype=object)).astype(np.uint64)
        hit = all((int(bm[int(_bf_bit(wh, j, nbits)[0]) >> 3])
                   >> (int(_bf_bit(wh, j, nbits)[0]) & 7)) & 1
                  for j in range(k))
        present.append(int(hit))
    return pd.DataFrame({"word": pd.Series(probe_words, dtype="object"),
                         "present": pd.Series(present, dtype="int64"),
                         "fill_bits": pd.Series([fill] * len(probe_words),
                                                dtype="int64")})
