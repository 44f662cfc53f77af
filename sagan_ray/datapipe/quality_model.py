"""Model-based quality scoring — the learned-filter stage of a corpus
pipeline (fasttext-style classifier), as a hashed-feature linear model
whose weights load ONCE per actor in ``__init__`` (the §2.5 loaded-once
pattern: compile/load in the constructor, vectorized scoring per batch;
reference analog: Sagan loads liblognorm rulebases / GeoIP databases once
at startup, src/sagan-config.c).

No external model libs exist in this container, so the model is a
deterministic synthetic linear scorer — but the PLUMBING is the real
shape: a weights artifact on disk, an actor pool (``map_batches(cls,
concurrency=N)``) that reads it in ``__init__``, a vectorized
hashed-ngram feature scorer in ``__call__``. Swap the npz for fasttext
weights and nothing else changes. (On a multi-node cluster the artifact
path must be shared storage or re-exported per node — same contract as
any model file.)

Determinism (hash-verifiable against a sequential golden): weights are
INTEGERS (SplitMix64 of the bucket index, centered), features are integer
counts, so the logit is an exact integer in float64 under any summation
order; the final sigmoid is one elementwise transform of identical exact
integers on both sides.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .hashing import _splitmix64
from .textstats import _words_flat

MODEL_DIR = "/tmp/sagan_ray_models"
W_DIM = 1 << 16          # hashed feature buckets
W_RANGE = 1 << 16        # weights uniform over [-2^16, 2^16]


def write_quality_model(*, dim: int = W_DIM, seed: int = 23,
                        path: str | None = None) -> str:
    """Materialize the deterministic weights artifact (int64 npz):
    ``w[b] = SplitMix64(b ^ seed) % (2R+1) - R``, bias = 0. Atomic
    replace so concurrent queries can re-write it safely."""
    path = path or os.path.join(MODEL_DIR, f"quality_lr_{dim}_{seed}.npz")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    b = np.arange(dim, dtype=np.uint64)
    w = (_splitmix64(b ^ np.uint64(seed))
         % np.uint64(2 * W_RANGE + 1)).astype(np.int64) - W_RANGE
    tmp = path + f".tmp{os.getpid()}"
    np.savez(tmp, w=w, seed=np.int64(seed))
    os.replace(tmp + ".npz", path)
    return path


class QualityModelScorer:
    """Actor-pool batch scorer. ``__init__`` loads the weights file once
    per actor; ``__call__`` scores a pyarrow batch vectorized: one flat
    word-hash pass, bucket = SplitMix64(word_hash) % dim, logit =
    Σ w[bucket] over the doc's word OCCURRENCES (exact integer), score =
    sigmoid(logit / (n_words · 2^16))."""

    def __init__(self, model_path: str):
        m = np.load(model_path)
        self.w = m["w"].astype(np.float64)       # exact ints in f64
        self.dim = np.uint64(len(self.w))

    def __call__(self, tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column("text"))
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        bucket = (_splitmix64(wh) % self.dim).astype(np.int64)
        logit = np.bincount(doc_of, weights=self.w[bucket],
                            minlength=n_docs)    # exact integer sums
        # ROUNDED score (the BM25 round(score,6) stance): np.exp's SIMD
        # array kernel is not guaranteed bit-equal to the golden's
        # per-scalar path, so the published column is rounded to 1e-12 on
        # BOTH sides — the exact integer logit_q carries full precision
        score = np.round(1.0 / (1.0 + np.exp(
            -logit / (np.maximum(n_words, 1) * float(W_RANGE)))), 12)
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "n_words": pa.array(n_words),
            "logit_q": pa.array(logit.astype(np.int64)),
            "model_quality": pa.array(score, pa.float64()),
        })


def model_quality(ds, *, seed: int = 23, concurrency: int = 4,
                  batch_size: int = 4096):
    """(doc_id, n_words, logit_q, model_quality) via an actor pool of
    ``QualityModelScorer`` — stateful map_batches, weights in __init__."""
    path = write_quality_model(seed=seed)
    return ds.map_batches(QualityModelScorer,
                          fn_constructor_kwargs={"model_path": path},
                          batch_format="pyarrow",
                          concurrency=concurrency,
                          batch_size=batch_size)
