"""Deterministic byte-pair-encoding token counts — real subword
tokenization for the packing/curation family (a training-data pipeline
packs sequences on tokenizer counts, not whitespace words).

Everything is a pure function of (corpus, n_sample, n_merges, seed), so a
sequential golden oracle (oracle/golden.py::write_golden_bpe) can
hash-verify the distributed run. The shared SPEC (implemented
independently on both sides):

- words: lowercase ``[a-z0-9_]+`` runs — the ``_words_flat`` identity
  every text operator uses.
- training corpus: the ``n_sample`` documents with the SMALLEST
  ``SplitMix64(doc_id ^ seed)`` — a blocking-independent
  deterministic subset (doc_ids are unique ⇒ no hash ties).
- training: classic BPE over the sample's word-frequency dict. Each
  round counts adjacent symbol pairs weighted by word frequency
  (overlapping occurrences each count), merges the pair with the highest
  count — ties broken by lexicographically smallest (left, right) — and
  stops early when the best count < 2 or after ``n_merges`` rounds.
- encode(word): repeatedly merge the present pair with the LOWEST merge
  rank; within a pass, merges apply leftmost-first, non-overlapping.
  Token count = number of symbols left.
- heavy-tail cap (spec'd on both sides): a word longer than
  ``BPE_MAX_WORD_CHARS`` encodes as encode(word[:cap]) + one token per
  excess char — hex blobs / URL fragments / base64 junk degrade to
  char-level instead of paying the O(len²) merge loop, and the
  per-worker memo keys on the capped prefix so a heavy-tail vocabulary
  cannot grow entries beyond cap-sized strings (entry COUNT is bounded
  by ``BPE_MEMO_MAX`` with whole-memo eviction).

Scale shape: the merges table is tiny (≤ n_merges pairs) and ships via
``ray.put`` once; each worker compiles it to a rank dict ONCE (module
cache keyed by the broadcast ref) and keeps a word→length memo — so the
per-batch cost is one flat Arrow word split + ``np.unique`` + encoding
only the batch's DISTINCT unseen words (vocabulary-bounded, not
row-bounded) + one bincount scatter back to docs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import _splitmix64
from .textstats import _words_flat

# per-worker compiled state: key → (ranks dict, word→len memo)
_WORKER_BPE: dict = {}

# heavy-tail guards (shared SPEC constants — oracle/golden.py imports
# BPE_MAX_WORD_CHARS so the golden applies the identical cap)
BPE_MAX_WORD_CHARS = 64
BPE_MEMO_MAX = 1 << 20


def _merge_pass(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """One leftmost-first non-overlapping merge pass of ``pair``."""
    out: list[str] = []
    i, n = 0, len(syms)
    while i < n:
        if i < n - 1 and syms[i] == pair[0] and syms[i + 1] == pair[1]:
            out.append(syms[i] + syms[i + 1])
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def train_bpe(word_freq: dict[str, int], n_merges: int) -> list[tuple[str, str]]:
    """The training spec over a word-frequency dict (driver-side; the
    sample is bounded). Returns the ordered merges list."""
    vocab = {w: list(w) for w in word_freq if w}
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, syms in vocab.items():
            f = word_freq[w]
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + f
        if not counts:
            break
        pair, cnt = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        merges.append(pair)
        for w in vocab:
            vocab[w] = _merge_pass(vocab[w], pair)
    return merges


def encode_len(word: str, ranks: dict[tuple[str, str], int]) -> int:
    """Number of BPE tokens for one word under the merges-rank table.
    Words beyond BPE_MAX_WORD_CHARS: capped prefix encodes normally,
    every excess char counts as one token (heavy-tail spec above)."""
    if len(word) > BPE_MAX_WORD_CHARS:
        return (encode_len(word[:BPE_MAX_WORD_CHARS], ranks)
                + len(word) - BPE_MAX_WORD_CHARS)
    syms = list(word)
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (syms[i], syms[i + 1])
        if best_pair is None:
            break
        syms = _merge_pass(syms, best_pair)
    return len(syms)


def sample_word_freq(ds, *, n_sample: int = 256, seed: int = 11,
                     text_col: str = "text",
                     id_col: str = "doc_id") -> dict[str, int]:
    """Word-frequency dict of the deterministic training sample. Each
    batch prunes to its ``n_sample`` smallest-hash rows (batch_size
    pinned — the prune's output scales with batch COUNT), the driver
    keeps the global smallest set; only then are the ≤ n_sample
    winning texts split into words."""

    def prune(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        if len(ids) > n_sample:
            keep = np.sort(np.argpartition(h, n_sample - 1)[:n_sample])
            tbl = tbl.take(pa.array(keep, pa.int64()))
            ids = ids[keep]
            h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        return pa.table({"h": pa.array(h, pa.uint64()),
                         text_col: tbl.column(text_col)})

    best: pa.Table | None = None
    for part in (ds.map_batches(prune, batch_format="pyarrow",
                                batch_size=max(65536, 16 * n_sample))
                   .iter_batches(batch_format="pyarrow")):
        best = part if best is None else pa.concat_tables(
            [best, part]).combine_chunks()
        if best.num_rows > n_sample:
            order = np.argsort(best.column("h").to_numpy(), kind="stable")
            best = best.take(pa.array(order[:n_sample], pa.int64()))
    if best is None or best.num_rows == 0:
        return {}
    order = np.argsort(best.column("h").to_numpy(), kind="stable")
    best = best.take(pa.array(order, pa.int64()))
    _, _, _, _, words = _words_flat(best.column(text_col))
    freq: dict[str, int] = {}
    for w in words:
        freq[w] = freq.get(w, 0) + 1
    return freq


def bpe_token_counts(ds, merges: list[tuple[str, str]], *,
                     text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_words, n_tokens_bpe) per document. The merges table
    broadcasts once (``ray.put``); workers compile ranks + keep a
    word→len memo across batches (module cache — the cheap-init
    per-worker pattern, CLAUDE.md). Per batch the Python work is bounded
    by the number of DISTINCT NEW words, not rows."""
    import ray

    m_ref = ray.put([tuple(p) for p in merges])
    # key the per-worker cache by the broadcast ref id, NOT the merges
    # tuple — closing over the tuple would ship the whole table in every
    # task's closure, defeating the ray.put broadcast
    cache_key = m_ref.binary()

    def f(tbl: pa.Table) -> pa.Table:
        state = _WORKER_BPE.get(cache_key)
        if state is None:
            ms = ray.get(m_ref)
            state = ({tuple(p): r for r, p in enumerate(ms)}, {})
            _WORKER_BPE.clear()         # one live table per worker
            _WORKER_BPE[cache_key] = state
        ranks, memo = state
        n_docs, doc_of, _, _, words = _words_flat(tbl.column(text_col))
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        if len(words):
            uniq, inv = np.unique(words, return_inverse=True)
            lens = np.empty(len(uniq), np.int64)
            for i, w in enumerate(uniq):
                tail = 0
                if len(w) > BPE_MAX_WORD_CHARS:
                    # memo on the capped PREFIX: heavy-tail vocabularies
                    # (hex blobs, URLs) collapse onto shared short keys
                    tail = len(w) - BPE_MAX_WORD_CHARS
                    w = w[:BPE_MAX_WORD_CHARS]
                v = memo.get(w)
                if v is None:
                    v = encode_len(w, ranks)
                    if len(memo) >= BPE_MEMO_MAX:
                        memo.clear()
                    memo[w] = v
                lens[i] = v + tail
            n_bpe = np.bincount(doc_of, weights=lens[inv],
                                minlength=n_docs).astype(np.int64)
        else:
            n_bpe = np.zeros(n_docs, np.int64)
        return pa.table({id_col: tbl.column(id_col),
                         "n_words": pa.array(n_words),
                         "n_tokens_bpe": pa.array(n_bpe)})

    return ds.map_batches(f, batch_format="pyarrow")
