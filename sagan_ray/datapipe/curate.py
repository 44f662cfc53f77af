"""Corpus-curation operators a large-scale training-data pipeline needs
beyond dedup: benchmark decontamination, PII redaction, deterministic
stratified sampling, and per-group top-k selection.

All four follow the repo's scale rules: the only cross-node movement is
either a broadcast of a genuinely small side (the eval-set shingle hashes,
the per-stratum rate table) or the shared ``hash_group_apply`` exchange
(group top-k); everything per-row is a vectorized Arrow/numpy kernel.

- ``decontaminate``: flag documents sharing any word-k-gram with an
  evaluation/benchmark set (the GPT-3 §C / PaLM-style n-gram overlap
  filter). The eval side is hashed once on the driver with the SAME
  shingle identity as every dedup operator (``dedup._shingle_hashes_batch``)
  and broadcast via ``ray.put``; each batch then does one searchsorted
  membership pass. At 100 TB the corpus streams; only the (small) eval
  hash array is resident per worker.
- ``pii_redact``: RE2 substitution passes over a text column
  (pyarrow ``replace_substring_regex``) with per-category counts.
  DuckDB's regexp engine is also RE2, so the oracle replays the exact
  same patterns.
- ``sample_stratified``: deterministic multiplicative-hash Bernoulli
  sampling (Knuth 2654435761 mod 2^32) with a per-stratum rate. No RNG
  state → resumable/re-runnable with identical output, and trivially
  SQL-replicable.
- ``group_topk``: top-k rows per key by an ordering column, partial
  top-k inside each batch first (so at most k rows per key per block
  cross the exchange), final top-k per key in ``hash_group_apply``
  buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _shingle_hashes_batch
from ..exchange import hash_group_apply

_KNUTH = np.uint64(2654435761)
_MOD32 = np.uint64(1) << np.uint64(32)


# ----------------------------------------------------------------------
# decontamination
# ----------------------------------------------------------------------

def eval_shingle_hashes(ds, *, k: int = 5,
                        text_col: str = "text") -> np.ndarray:
    """Distributed build of the decontamination reference array: each
    batch emits its DISTINCT uint64 shingle hashes (8 B each — the texts
    themselves never leave the workers), the driver unions hash arrays.
    This is how the eval side must be acquired at scale: the round-3
    wiring pulled the eval split's ROWS to the driver with take_all(),
    which at 100 TB is ~6 TB of text held driver-side for what is really
    a hash-set build. batch_size pinned: per-batch-distinct output
    scales with batch COUNT (the round-3 partial rule)."""

    def part(tbl: pa.Table) -> pa.Table:
        sh = _shingle_hashes_batch(
            [t or "" for t in tbl.column(text_col).to_pylist()], k)
        u = (np.unique(np.concatenate(sh)) if sh
             else np.empty(0, np.uint64))
        return pa.table({"h": pa.array(u, pa.uint64())})

    def re_unique(tbl: pa.Table) -> pa.Table:
        # task-side union of many partials' hash streams (idempotent →
        # topology-free): the driver then ingests near-deduplicated
        # hashes instead of every batch's overlapping distinct set
        u = np.unique(tbl.column("h").to_numpy(zero_copy_only=False))
        return pa.table({"h": pa.array(u, pa.uint64())})

    parts = [b.column("h").to_numpy(zero_copy_only=False)
             for b in ds.map_batches(part, batch_format="pyarrow",
                                     batch_size=65536)
                        .map_batches(re_unique, batch_format="pyarrow",
                                     batch_size=1 << 20)
                        .iter_batches(batch_format="pyarrow")]
    return (np.unique(np.concatenate(parts)) if parts
            else np.empty(0, np.uint64))


def decontaminate(ds, eval_texts=None, *, k: int = 5,
                  text_col: str = "text", id_col: str = "doc_id",
                  eval_hashes: np.ndarray | None = None):
    """(id, contaminated, n_hits) for every input row: n_hits = number of
    DISTINCT word-k-shingles of the document that also occur anywhere in
    the eval set. Shingle identity is shared with the dedup family
    (<k words → one whole-sequence shingle, lowercased, whitespace
    split), so the SQL oracle mirrors the dedup oracles' shingle CTE.

    Pass EITHER ``eval_texts`` (a small in-memory benchmark list, hashed
    here on the driver) or ``eval_hashes`` (a pre-sorted-uniqued uint64
    array from ``eval_shingle_hashes`` — the scale path when the eval
    side is itself a Dataset)."""
    import ray

    if eval_hashes is not None:
        # the flag kernel binary-searches this array — enforce (not just
        # document) sorted+unique; np.unique is a no-op on conforming input
        ev_hashes = np.unique(np.asarray(eval_hashes, np.uint64))
    else:
        ev = _shingle_hashes_batch([t or "" for t in eval_texts or []], k)
        ev_hashes = (np.unique(np.concatenate(ev)) if ev
                     else np.empty(0, np.uint64))
    ev_ref = ray.put(ev_hashes)

    def flag(tbl: pa.Table) -> pa.Table:
        evh = ray.get(ev_ref)           # zero-copy view from object store
        texts = tbl.column(text_col).to_pylist()
        sh = _shingle_hashes_batch(texts, k)
        n_hits = np.zeros(len(texts), np.int64)
        for i, s in enumerate(sh):      # per-doc numpy set ops, no py loop
            u = np.unique(s)
            idx = np.searchsorted(evh, u)
            idx[idx == len(evh)] = 0
            n_hits[i] = int(np.count_nonzero(
                evh[idx] == u)) if len(evh) else 0
        return pa.table({
            id_col: tbl.column(id_col),
            "contaminated": pa.array(n_hits > 0, pa.bool_()),
            "n_hits": pa.array(n_hits, pa.int64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


# ----------------------------------------------------------------------
# PII redaction
# ----------------------------------------------------------------------

# category → (RE2 pattern, replacement token). RE2 is the engine on BOTH
# sides (pyarrow and DuckDB), so oracle parity is byte-exact. Order
# matters: earlier categories must not create text later ones match.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(:\d{1,5})?", "<IP>"),
    ("user", r"\bu\d{6}\b", "<USER>"),
    ("hash32", r"\b[0-9a-f]{32}\b", "<HASH>"),
]


def pii_redact(ds, *, text_col: str = "text", id_cols: list[str] | None = None,
               patterns: list[tuple[str, str, str]] | None = None):
    """Redact PII-like tokens from ``text_col``; emits the id columns,
    ``text_redacted`` and one ``n_<category>`` count per pattern. One
    count+replace Arrow kernel pass per category per batch."""
    pats = PII_PATTERNS if patterns is None else patterns
    ids = id_cols or ["doc_id"]

    def f(tbl: pa.Table) -> pa.Table:
        text = pc.cast(tbl.column(text_col), pa.string())
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            c: tbl.column(c) for c in ids}
        counts = {}
        for name, pat, repl in pats:
            counts[f"n_{name}"] = pc.cast(
                pc.count_substring_regex(text, pat), pa.int64())
            text = pc.replace_substring_regex(text, pat, repl)
        cols["text_redacted"] = text
        cols.update(counts)
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


def blocklist_flags(ds, phrases: list[str], *, text_col: str = "text",
                    id_col: str = "doc_id"):
    """(id_col, n_banned, banned) per row: ``n_banned`` = number of
    DISTINCT ``phrases`` occurring as substrings of ``lower(text)`` —
    the C4/RefinedWeb banned-phrase curation filter (substring
    semantics, shared exactly with the SQL oracle's ``contains``).

    Two-tier kernel per batch, all Arrow C++ — no Python loop over rows:
    ONE RE2 alternation pass (`match_substring_regex`; RE2 compiles the
    alternation to a DFA, the Aho-Corasick-class O(bytes) scan
    regardless of phrase count) flags candidate docs, then the
    per-phrase `match_substring` passes that produce the DISTINCT-phrase
    count run on the flagged SUBSET only. At corpus scale the flagged
    fraction is small, so the per-phrase leg costs ~|hits|·k bytes, not
    |corpus|·k — the same prefilter-then-verify shape as the classify
    stage's literal prefilter (CLAUDE.md round-2 levers)."""
    import re as _re

    if not phrases:
        raise ValueError("phrases must be non-empty")
    # case-insensitive: both the text and the phrases fold to lower;
    # DISTINCT-phrase counting, so case-duplicates collapse
    low_phrases = sorted({p.lower() for p in phrases})
    # sort for a deterministic alternation (RE2 match result is
    # order-independent for a boolean match; sorting just pins the
    # compiled pattern bytes)
    alt = "|".join(_re.escape(p) for p in sorted(low_phrases))

    def f(tbl: pa.Table) -> pa.Table:
        low = pc.utf8_lower(
            pc.fill_null(pc.cast(tbl.column(text_col), pa.string()), ""))
        any_m = pc.match_substring_regex(low, alt)
        hit_idx = np.flatnonzero(
            pc.fill_null(any_m, False).combine_chunks().to_numpy(
                zero_copy_only=False))
        n = np.zeros(tbl.num_rows, np.int64)
        if len(hit_idx):
            sub = pc.take(low, pa.array(hit_idx, pa.int64()))
            tot = np.zeros(len(hit_idx), np.int64)
            for p in low_phrases:
                m = pc.match_substring(sub, p)
                tot += m.combine_chunks().to_numpy(
                    zero_copy_only=False).astype(np.int64)
            n[hit_idx] = tot
        return pa.table({id_col: tbl.column(id_col),
                         "n_banned": pa.array(n),
                         "banned": pa.array(n > 0)})

    return ds.map_batches(f, batch_format="pyarrow")


# ----------------------------------------------------------------------
# deterministic stratified sampling
# ----------------------------------------------------------------------

def sample_threshold(rate: float) -> int:
    """rate ∈ [0,1] → the exact uint32 acceptance threshold. ONE
    definition shared by the operator and the SQL oracle so both sides
    compare against identical integers."""
    return int(np.uint64(min(max(rate, 0.0), 1.0) * float(_MOD32)))


def sample_stratified(ds, rates: dict[str, float], *,
                      default_rate: float = 0.0,
                      id_col: str = "doc_id", strat_col: str = "source"):
    """Keep each row iff (id · 2654435761) mod 2^32 < rate(stratum) · 2^32.
    Deterministic in the row id alone: re-runs, resumes and the SQL
    oracle all select the identical sample — the property a resumable
    100-TB pipeline needs from its sampler (no RNG state to checkpoint).
    The rate table is tiny and ships inside the task closure."""
    thresholds = {s: np.uint64(sample_threshold(r)) for s, r in rates.items()}
    default_thr = np.uint64(sample_threshold(default_rate))

    def f(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids * _KNUTH) % _MOD32
        strata = tbl.column(strat_col).to_numpy(zero_copy_only=False)
        thr = np.fromiter((thresholds.get(s, default_thr) for s in strata),
                          np.uint64, len(strata))
        return tbl.filter(pa.array(h < thr))

    return ds.map_batches(f, batch_format="pyarrow")


def mix_sources(parts: list[tuple[str, object, str, str]],
                weights: dict[str, float]):
    """Deterministic weighted corpus mixing — the training-data staple
    of combining web/books/code at target proportions. ``parts`` is
    [(name, Dataset, id_col, text_col), ...]; each source keeps a row
    iff (id · 2654435761) mod 2^32 < weight(name) · 2^32 (the
    sample_stratified hash — RNG-free, so re-runs, resumes and the SQL
    oracle select the identical mixture), projects to the common
    (src, rec_id, text) schema and the streams union. At 100 TB this is
    a pure map over each source with NO shuffle — union concatenates
    block streams under the same backpressure."""
    outs = []
    for name, ds, id_col, text_col in parts:
        thr = np.uint64(sample_threshold(weights.get(name, 0.0)))

        def f(tbl: pa.Table, _n=name, _id=id_col, _tx=text_col,
              _thr=thr) -> pa.Table:
            ids = tbl.column(_id).to_numpy(
                zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = (ids * _KNUTH) % _MOD32
            kept = tbl.filter(pa.array(h < _thr))
            return pa.table({
                "src": pa.array([_n] * len(kept), pa.string()),
                "rec_id": kept.column(_id).cast(pa.int64()),
                "text": kept.column(_tx).cast(pa.large_string()),
            })

        outs.append(ds.map_batches(f, batch_format="pyarrow"))
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


# ----------------------------------------------------------------------
# per-group top-k
# ----------------------------------------------------------------------

def group_topk(ds, *, key_col: str, order_col: str, k: int,
               id_col: str = "doc_id", ascending: bool = False):
    """Top-k rows per key ordered by (order_col desc|asc, id asc) with a
    deterministic id tiebreak. Two stages: a per-batch partial top-k
    (at most k rows per key per block survive — the combiner that keeps
    the exchange small under hot keys), then the exact per-key top-k in
    ``hash_group_apply`` buckets. Emits (key, id, order_col, rk)."""
    sign = 1 if ascending else -1

    def _topk_frame(df: pd.DataFrame, with_rank: bool) -> pd.DataFrame:
        if len(df) == 0:
            out = df[[key_col, id_col, order_col]].copy()
            if with_rank:
                out["rk"] = pd.Series([], dtype="int64")
            return out
        codes, _ = pd.factorize(df[key_col], sort=False)
        order = np.lexsort((df[id_col].to_numpy(),
                            sign * df[order_col].to_numpy(),
                            codes))
        d = df.iloc[order]
        keys = codes[order]
        starts = np.concatenate([[True], keys[1:] != keys[:-1]])
        grp_start = np.maximum.accumulate(
            np.where(starts, np.arange(len(keys)), 0))
        rk = np.arange(len(keys)) - grp_start + 1
        d = d.assign(rk=rk.astype(np.int64))
        d = d[d["rk"] <= k]
        cols = [key_col, id_col, order_col] + (["rk"] if with_rank else [])
        return d[cols].reset_index(drop=True)

    def partial(tbl: pa.Table) -> pa.Table:
        # Arrow in/out; the pandas hop is only for the shared lexsort
        # kernel. batch_size pinned per the round-3 rule: this stage
        # emits up to k rows per key per BATCH, so its output scales
        # with batch count — the 1024-row default would inflate the
        # exchange 64x for no work saved.
        return pa.Table.from_pandas(
            _topk_frame(tbl.to_pandas(), with_rank=False),
            preserve_index=False)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return _topk_frame(df, with_rank=True)

    pre = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return hash_group_apply(pre, [key_col], final)


def shuffle_shards(ds, *, n_shards: int, id_col: str = "doc_id"):
    """Deterministic global shuffle into ``n_shards`` training shards:
    ``shard = SplitMix64(id) % n_shards`` and ``pos`` = the row's rank
    within its shard under (hash, id) order — a fully reproducible
    shuffled sharding (no RNG state; re-running or resuming yields the
    identical layout, the sample_stratified stance applied to ordering).
    Returns (id_col, shard, pos). One exchange on shard; the in-bucket
    rank is a lexsort over that shard's (hash, id) pairs only."""
    from .hashing import _splitmix64

    def tag(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        h = _splitmix64(ids.astype(np.uint64))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "shard": pa.array((h % np.uint64(n_shards)).astype(np.int64)),
            "h": pa.array(h, pa.uint64()),
        })

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        h = df["h"].to_numpy()
        shard = df["shard"].to_numpy()
        o = np.lexsort((ids, h, shard))
        s_sorted = shard[o]
        new = np.empty(len(o), dtype=bool)
        if len(o):
            new[0] = True
            new[1:] = s_sorted[1:] != s_sorted[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(len(o)), 0))
        pos = np.arange(len(o)) - start
        out = pd.DataFrame({id_col: ids[o], "shard": s_sorted,
                            "pos": pos})
        return out

    out_schema = pa.schema([(id_col, pa.int64()), ("shard", pa.int64()),
                            ("pos", pa.int64())])
    return hash_group_apply(ds.map_batches(tag, batch_format="pyarrow"),
                            ["shard"], bucket, out_schema=out_schema)


# ----------------------------------------------------------------------
# exact-size uniform sample (mergeable bottom-k)
# ----------------------------------------------------------------------

def sample_bottomk(ds, k: int, *, id_col: str = "doc_id",
                   batch_size: int = 65_536):
    """Exact-k uniform sample: the k rows with the SMALLEST
    (knuth_hash(id), id) — the classic mergeable bottom-k sketch (the
    min-k union of any two samples is the sample of the union, so
    partials combine associatively under any block layout). Same
    multiplicative hash as ``sample_stratified``, so the SQL oracle is
    one ORDER BY hash LIMIT k. Deterministic in ids alone: re-runs and
    resumes pick the identical sample.

    Scale shape: each batch emits at most k (id, h) rows (batch_size is
    PINNED — the r3 lesson: a partial-emitting stage must not scale its
    output with batch COUNT), and the driver folds the slim partial
    stream with an O(k)-memory running top-k. Returns a pandas
    DataFrame (id_col, h) sorted by id."""
    def partial(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (ids.astype(np.uint64) * _KNUTH) % _MOD32
        h = h.astype(np.int64)
        if len(ids) > k:
            sel = np.lexsort((ids, h))[:k]
            ids, h = ids[sel], h[sel]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "h": pa.array(h, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size)
    best_ids = np.array([], dtype=np.int64)
    best_h = np.array([], dtype=np.int64)
    for b in parts.iter_batches(batch_format="pyarrow",
                                batch_size=batch_size):
        ids = np.concatenate([best_ids, b.column(id_col).to_numpy()])
        h = np.concatenate([best_h, b.column("h").to_numpy()])
        sel = np.lexsort((ids, h))[:k]
        best_ids, best_h = ids[sel], h[sel]
    o = np.argsort(best_ids)
    return pd.DataFrame({id_col: best_ids[o], "h": best_h[o]})


def sample_weighted(ds, k: int, *, weight_col: str, id_col: str = "doc_id",
                    batch_size: int = 65_536):
    """Exact-k PRIORITY SAMPLE (Duffield, Lund & Thorup, JACM 2007):
    the k rows with the smallest (knuth_hash(id) / weight, id). Higher
    weight → proportionally smaller priority → inclusion probability
    ~ weight; min-k partials merge as a semilattice exactly like
    ``sample_bottomk``, so any block layout yields the identical
    sample and re-runs/resumes are deterministic in (id, weight).

    Chosen over Efraimidis-Spirakis exponential keys (-ln(u)/w) on
    DETERMINISM grounds: the priority needs only int→double conversion
    (exact here: h < 2^32, w < 2^53) and ONE division — an IEEE basic
    op, correctly rounded and therefore bit-identical between numpy and
    the DuckDB oracle — whereas ``ln`` is libm-dependent and can flip a
    1-ulp boundary at the LIMIT cut (the quality_model lesson).

    Rows with weight <= 0 are excluded (they carry no sampling mass).
    Returns (id, weight, priority) sorted by id."""
    def partial(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        w = tbl.column(weight_col).to_numpy(zero_copy_only=False)
        pos = w > 0
        ids, w = ids[pos], w[pos]
        with np.errstate(over="ignore"):
            h = ((ids.astype(np.uint64) * _KNUTH) % _MOD32).astype(np.int64)
        pri = h.astype(np.float64) / w.astype(np.float64)
        if len(ids) > k:
            sel = np.lexsort((ids, pri))[:k]
            ids, w, pri = ids[sel], w[sel], pri[sel]
        return pa.table({id_col: pa.array(ids.astype(np.int64), pa.int64()),
                         "weight": pa.array(w.astype(np.int64), pa.int64()),
                         "priority": pa.array(pri, pa.float64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size)
    b_ids = np.array([], np.int64)
    b_w = np.array([], np.int64)
    b_pri = np.array([], np.float64)
    for b in parts.iter_batches(batch_format="pyarrow",
                                batch_size=batch_size):
        ids = np.concatenate([b_ids, b.column(id_col).to_numpy()])
        w = np.concatenate([b_w, b.column("weight").to_numpy()])
        pri = np.concatenate([b_pri, b.column("priority").to_numpy()])
        sel = np.lexsort((ids, pri))[:k]
        b_ids, b_w, b_pri = ids[sel], w[sel], pri[sel]
    o = np.argsort(b_ids)
    return pd.DataFrame({id_col: b_ids[o], "weight": b_w[o],
                         "priority": b_pri[o]})


def sample_per_group(ds, k: int, *, key_col: str, id_col: str = "doc_id"):
    """Exact-k uniform sample PER KEY — the per-source/per-domain cap
    every corpus-mixing recipe needs (don't let one crawl dominate):
    ``group_topk`` ascending over the stateless knuth hash, so the
    per-batch partial keeps ≤k rows per key per block (hot sources
    collapse map-side) and the hash exchange finishes each key exactly.
    Deterministic in ids alone; the SQL oracle is one window row_number
    over the same hash. Emits (key, id, h, rk)."""
    def add_h(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (ids.astype(np.uint64) * _KNUTH) % _MOD32
        return tbl.append_column("h", pa.array(h.astype(np.int64)))

    return group_topk(ds.map_batches(add_h, batch_format="pyarrow"),
                      key_col=key_col, order_col="h", k=k,
                      id_col=id_col, ascending=True)


def split_by_cluster(ds, *, train_frac: float = 0.8,
                     threshold: float = 0.9, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Leakage-safe train/val split: every document follows its
    near-dup CLUSTER representative's hash, so two near-duplicate docs
    can never straddle the split (the train/test-contamination failure
    a per-doc hash split allows). Returns (doc_id, rep, split) with
    split ∈ {'train', 'val'}; split = train iff
    knuth(rep) < train_frac·2^32 — the ``sample_stratified`` hash, so
    the SQL oracle replays it on top of the recursive-CTE cluster
    closure. Composition: dedup_cluster_reps (verified pairs →
    distributed min-label propagation) + one stateless map — no new
    exchange."""
    from .dedup import dedup_cluster_reps

    t = np.uint64(sample_threshold(train_frac))

    def tag(tbl: pa.Table) -> pa.Table:
        rep = tbl.column("rep").to_numpy(zero_copy_only=False)
        h = (rep.astype(np.uint64) * _KNUTH) % _MOD32
        split = np.where(h < t, "train", "val")
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         "rep": tbl.column("rep").cast(pa.int64()),
                         "split": pa.array(split.tolist(), pa.string())})

    return dedup_cluster_reps(ds, threshold=threshold,
                              text_col=text_col,
                              id_col=id_col).map_batches(
        tag, batch_format="pyarrow")


def sample_token_budget(ds, budget: int, *, id_col: str = "doc_id",
                        text_col: str = "text", bucket_bits: int = 12):
    """Token-budget subsampling — "give me a ~1B-token subset": keep the
    deterministic hash-ordered PREFIX of documents whose running token
    total stays under ``budget``. A doc is kept iff the sum of token
    counts of all docs BEFORE it (in ascending (knuth_hash(id), id)
    order — the ``sample_stratified`` hash, so re-runs and the SQL
    window-function oracle select the identical subset) is < budget;
    the straddling doc is included, so the subset reaches the budget
    with minimal overshoot. Token counts are the whitespace-split spec
    shared with ``token_counts``/``doc_pack``.

    No global sort: the cut point is found like ``source_quantiles``
    finds ranks — one slim (id, h, n) pass (24-byte rows, text never
    leaves the map side), per-batch partial SUMS over 2^bucket_bits
    hash buckets (≤4096 rows per partial), a driver fold (O(2^bits)
    ints) that locates the budget-crossing bucket, an exact in-order
    scan of THAT bucket only (expected corpus/2^bits rows — at larger
    scale raise ``bucket_bits`` or recurse the same refinement one
    level), then one stateless filter against the broadcast cut. Three
    passes over the materialized slim table, zero shuffles.

    Returns (id, h, n) for every kept doc. ``budget <= 0`` selects
    nothing; ``budget >= total`` selects everything.
    """
    assert 1 <= bucket_bits <= 20
    shift = np.uint64(32 - bucket_bits)
    n_buckets = 1 << bucket_bits

    def slim(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).to_numpy(zero_copy_only=False)
               .astype(np.uint64))
        with np.errstate(over="ignore"):
            h = (ids * _KNUTH) % _MOD32
        text = tbl.column(text_col)
        toks = pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+"))
        empty = pc.equal(pc.utf8_trim_whitespace(text), "")
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()),
                          pc.cast(toks, pa.int32()))
        return pa.table({
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            "h": pa.array(h.astype(np.int64), pa.int64()),
            "n": pc.cast(toks, pa.int64()),
        })

    slim_ds = ds.map_batches(slim, batch_format="pyarrow",
                             batch_size=65536).materialize()
    if budget <= 0:                                # typed empty result
        return slim_ds.map_batches(lambda t: t.slice(0, 0),
                                   batch_format="pyarrow")

    # pass 1: per-bucket token sums (partial rows bounded by n_buckets
    # per 64k-row batch — the pinned-batch-size partial pattern)
    def partial(tbl: pa.Table) -> pa.Table:
        h = tbl.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        s = np.zeros(n_buckets, np.int64)
        np.add.at(s, (h >> shift).astype(np.int64), n)
        nz = np.flatnonzero(s)
        return pa.table({"b": pa.array(nz, pa.int64()),
                         "s": pa.array(s[nz], pa.int64())})

    parts = slim_ds.map_batches(partial, batch_format="pyarrow",
                                batch_size=65536).to_pandas()
    sums = np.zeros(n_buckets, np.int64)
    if len(parts):
        np.add.at(sums, parts["b"].to_numpy(), parts["s"].to_numpy())
    cum = np.cumsum(sums)
    if cum[-1] < budget:                           # everything fits
        return slim_ds
    b_cross = int(np.searchsorted(cum, budget))    # first cum >= budget
    before_bucket = int(cum[b_cross] - sums[b_cross])

    # pass 2: exact in-order scan of the crossing bucket only
    lo, hi = b_cross << int(shift), (b_cross + 1) << int(shift)
    inb = slim_ds.map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t.column("h"), lo),
                                   pc.less(t.column("h"), hi))),
        batch_format="pyarrow").to_pandas()
    if len(inb) == 0:                              # all-empty loses cols
        inb = pd.DataFrame({id_col: [], "h": [], "n": []})
    inb = inb.sort_values(["h", id_col], kind="mergesort")
    before = before_bucket + inb["n"].cumsum().to_numpy() - \
        inb["n"].to_numpy()
    kept = np.flatnonzero(before < budget)
    if len(kept) == 0:                             # cut before bucket b
        cut_h, cut_id = lo - 1, np.iinfo(np.int64).max
    else:
        last = kept[-1]                            # prefix ⇒ contiguous
        cut_h = int(inb["h"].to_numpy()[last])
        cut_id = int(inb[id_col].to_numpy()[last])

    # pass 3: stateless filter against the broadcast cut
    def keep(tbl: pa.Table) -> pa.Table:
        h = tbl.column("h")
        ids = tbl.column(id_col)
        m = pc.or_(pc.less(h, cut_h),
                   pc.and_(pc.equal(h, cut_h),
                           pc.less_equal(ids, cut_id)))
        return tbl.filter(m)

    return slim_ds.map_batches(keep, batch_format="pyarrow")


def sample_token_budget_by_group(ds, budgets: dict[str, int], *,
                                 group_col: str = "lang",
                                 default_budget: int = 0,
                                 id_col: str = "doc_id",
                                 text_col: str = "text",
                                 bucket_bits: int = 12):
    """Per-group token quotas — the multilingual/source-balance staple
    ("2M tokens of each language, whatever the corpus skew"): within
    every ``group_col`` value independently, keep the hash-ordered doc
    prefix whose running token total stays under that group's budget
    (``sample_token_budget`` semantics per partition; the SQL oracle is
    the same window function PARTITION BY group). Groups without an
    entry get ``default_budget``; a budget <= 0 drops the group.

    Same shape as the global op, one level keyed by group: (group,
    bucket) token-sum partials fold on the driver (O(groups × 2^bits)),
    each group's budget-crossing bucket is scanned exactly once (all
    groups' crossing rows collected in ONE pass over the slim table),
    and the final filter applies the per-group cuts from a broadcast
    table. Three passes over materialized ~32-byte rows, zero shuffles.

    Returns (id, group, h, n) for every kept doc."""
    import ray
    import ray.data as rd

    assert 1 <= bucket_bits <= 20
    shift = np.uint64(32 - bucket_bits)

    def slim(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).to_numpy(zero_copy_only=False)
               .astype(np.uint64))
        with np.errstate(over="ignore"):
            h = (ids * _KNUTH) % _MOD32
        text = tbl.column(text_col)
        toks = pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+"))
        empty = pc.equal(pc.utf8_trim_whitespace(text), "")
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()),
                          pc.cast(toks, pa.int32()))
        return pa.table({
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            group_col: tbl.column(group_col).cast(pa.string()),
            "h": pa.array(h.astype(np.int64), pa.int64()),
            "n": pc.cast(toks, pa.int64()),
        })

    slim_ds = ds.map_batches(slim, batch_format="pyarrow",
                             batch_size=65536).materialize()
    out_schema = pa.schema([(id_col, pa.int64()),
                            (group_col, pa.string()),
                            ("h", pa.int64()), ("n", pa.int64())])

    # pass 1: (group, bucket) token sums
    def partial(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        df["b"] = (df["h"].to_numpy().astype(np.uint64)
                   >> shift).astype(np.int64)
        g = df.groupby([group_col, "b"], sort=False)["n"].sum()
        return pa.Table.from_pandas(g.reset_index(name="s"),
                                    preserve_index=False)

    parts = slim_ds.map_batches(partial, batch_format="pyarrow",
                                batch_size=65536).to_pandas()
    if len(parts) == 0:
        return rd.from_arrow(out_schema.empty_table())
    sums = (parts.groupby([group_col, "b"], sort=True)["s"].sum()
            .reset_index())

    # driver fold: per-group crossing bucket + tokens before it
    keep_whole: set[str] = set()
    crossing: dict[str, tuple[int, int]] = {}   # group -> (bucket, before)
    for grp, sub in sums.groupby(group_col, sort=False):
        budget = budgets.get(grp, default_budget)
        if budget <= 0:
            continue
        cum = sub["s"].cumsum().to_numpy()
        if cum[-1] < budget:
            keep_whole.add(grp)
            continue
        i = int(np.searchsorted(cum, budget))
        crossing[grp] = (int(sub["b"].to_numpy()[i]),
                         int(cum[i] - sub["s"].to_numpy()[i]))

    # pass 2: one pass collects every group's crossing-bucket rows
    cross_ref = ray.put({g: b for g, (b, _) in crossing.items()})

    def in_cross(tbl: pa.Table) -> pa.Table:
        cr = ray.get(cross_ref)
        df = tbl.to_pandas()
        b = (df["h"].to_numpy().astype(np.uint64)
             >> shift).astype(np.int64)
        want = df[group_col].map(cr).to_numpy()
        return pa.Table.from_pandas(df[b == want],
                                    preserve_index=False)

    cuts: dict[str, tuple[int, int]] = {}        # group -> (cut_h, cut_id)
    if crossing:
        inb = slim_ds.map_batches(in_cross,
                                  batch_format="pyarrow").to_pandas()
        for grp, sub in inb.groupby(group_col, sort=False):
            sub = sub.sort_values(["h", id_col], kind="mergesort")
            before = crossing[grp][1] + \
                sub["n"].cumsum().to_numpy() - sub["n"].to_numpy()
            kept = np.flatnonzero(before < budgets.get(grp, default_budget))
            last = kept[-1]                       # crossing ⇒ non-empty
            cuts[grp] = (int(sub["h"].to_numpy()[last]),
                         int(sub[id_col].to_numpy()[last]))

    # pass 3: per-group cut filter (whole-keep groups pass through)
    whole_ref = ray.put(keep_whole)
    cuts_ref = ray.put(cuts)

    def keep(tbl: pa.Table) -> pa.Table:
        whole, ct = ray.get(whole_ref), ray.get(cuts_ref)
        df = tbl.to_pandas()
        grp = df[group_col]
        m = grp.isin(whole).to_numpy()
        has_cut = grp.isin(ct.keys()).to_numpy()
        if has_cut.any():
            ch = grp.map({g: c[0] for g, c in ct.items()}).to_numpy()
            ci = grp.map({g: c[1] for g, c in ct.items()}).to_numpy()
            h = df["h"].to_numpy()
            ids = df[id_col].to_numpy()
            m = m | (has_cut & ((h < ch) | ((h == ch) & (ids <= ci))))
        out = df[m]
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    return slim_ds.map_batches(keep, batch_format="pyarrow")


# stage order IS the cascade: a doc is attributed to its FIRST failing
# stage (C4/Gopher-style filter funnels report attrition this way so
# downstream stages' counts are conditional on surviving earlier ones)
FUNNEL_STAGES = ("too_few_words", "word_len_out", "low_stopword",
                 "repetitive", "kept")


def filter_funnel(ds, *, text_col: str = "text",
                  group_col: str = "source",
                  min_words: int = 25,
                  stop_words: frozenset[str] | None = None):
    """Quality-filter cascade report: per (group, stage) document counts
    where stage = the first failing filter (or 'kept') — the attrition
    funnel every C4/Gopher/RefinedWeb-style curation run publishes.

    Filters (all EXACT integer predicates so the SQL oracle is
    operand-identical — no float ratios cross the comparison):

    1. too_few_words: n_words < min_words
    2. word_len_out:  mean word length outside [3.8, 5.1], tested as
                      5*sum_len < 19*n_words  OR  10*sum_len > 51*n_words
    3. low_stopword:  stopword fraction < 0.04: 25*n_stop < n_words
    4. repetitive:    top single-word share > 12.5%: 8*max_rep > n_words

    Words are the literal single-space split (``_split_flat`` ==
    DuckDB string_split(text, ' '), empty tokens kept). Stopword
    membership is counted on the 64-bit word hashes (the family hash
    stance). Map-side each batch emits one (group, stage) bincount
    partial — at most |groups|×5 rows per batch — and the driver folds
    the tiny partials; document rows never shuffle.
    """
    from .textstats import STOPWORDS, _gram_runs, _split_flat
    from ..exchange import hash_array_pure

    stops = sorted(stop_words if stop_words is not None
                   else STOPWORDS["en"])
    stop_h = np.sort(hash_array_pure(
        np.asarray(stops, dtype=object)).astype(np.uint64))

    def partial(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, _ = _split_flat(tbl, text_col)
        grp = tbl.column(group_col).to_numpy(zero_copy_only=False)
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        sum_len = np.bincount(doc_of, weights=wlen,
                              minlength=n_docs).astype(np.int64)
        i = np.searchsorted(stop_h, wh)
        is_stop = (i < len(stop_h)) & (
            stop_h[np.minimum(i, len(stop_h) - 1)] == wh)
        n_stop = np.bincount(doc_of, weights=is_stop,
                             minlength=n_docs).astype(np.int64)
        o, run_id, run_counts, first = _gram_runs(doc_of, wh)
        max_rep = np.zeros(n_docs, dtype=np.int64)
        np.maximum.at(max_rep, doc_of[o][first], run_counts)
        stage = np.full(n_docs, 4, dtype=np.int64)            # kept
        fail4 = 8 * max_rep > n_words
        stage[fail4] = 3
        fail3 = 25 * n_stop < n_words
        stage[fail3] = 2
        fail2 = (5 * sum_len < 19 * n_words) | (10 * sum_len
                                                > 51 * n_words)
        stage[fail2] = 1
        stage[n_words < min_words] = 0
        gs, gi = np.unique(grp, return_inverse=True)
        cnt = np.bincount(gi * 5 + stage,
                          minlength=len(gs) * 5).astype(np.int64)
        keep = cnt > 0
        cell = np.flatnonzero(keep)
        return pa.table({
            group_col: pa.array(gs[cell // 5]),
            "stage_idx": pa.array(cell % 5, pa.int64()),
            "n_docs": pa.array(cnt[keep]),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({group_col: pd.Series(dtype="object"),
                             "stage_idx": pd.Series(dtype="int64"),
                             "stage": pd.Series(dtype="object"),
                             "n_docs": pd.Series(dtype="int64")})
    out = (parts.groupby([group_col, "stage_idx"], sort=True)["n_docs"]
           .sum().reset_index())
    out["stage"] = out["stage_idx"].map(dict(enumerate(FUNNEL_STAGES)))
    out["n_docs"] = out["n_docs"].astype("int64")
    return out[[group_col, "stage_idx", "stage", "n_docs"]]


def _pseudo_token(kind: str, value: str) -> str:
    """kind + '_' + first 8 hex chars of md5(value) — shared spec with
    the SQL oracle's ``kind || '_' || substr(md5(value), 1, 8)``."""
    import hashlib

    return f"{kind}_{hashlib.md5(value.encode('utf-8')).hexdigest()[:8]}"


def pii_pseudonymize(ds, *, text_col: str = "text",
                     id_cols: list[str] | None = None,
                     patterns: list[tuple] | None = None):
    """Consistent pseudonymization — the de-identification step when a
    pipeline must keep REFERENTIAL structure that blanket redaction
    (``pii_redact``) destroys: every PII occurrence maps to a
    deterministic token (``email_3f2a9c01``), so the same address
    yields the same token corpus-wide and cross-document joins,
    frequency counts and co-occurrence analyses survive. Emits one row
    per occurrence: (*id_cols, kind, value, pseudonym). Extraction
    runs per kind on the ORIGINAL text (the SQL oracle's
    regexp_extract_all semantics); one compiled-regex pass per kind
    per batch over the NUL-joined flat buffer,
    md5 once per DISTINCT value per batch."""
    import re as _re

    pats = [(n, p) for n, p, _ in
            (PII_PATTERNS if patterns is None else patterns)]
    ids = id_cols or ["doc_id"]
    compiled = [(n, _re.compile(p)) for n, p in pats]

    def f(tbl: pa.Table) -> pa.Table:
        texts = [t or "" for t in
                 pc.cast(tbl.column(text_col), pa.string()).to_pylist()]
        joined = "\x00".join(texts)
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lens + 1)])[:-1]
        rows, kinds, values = [], [], []
        for kind, rx in compiled:
            pos, vals = [], []
            for m in rx.finditer(joined):
                pos.append(m.start())
                vals.append(m.group(0))
            if pos:
                r = np.searchsorted(starts, np.array(pos, np.int64),
                                    side="right") - 1
                rows.extend(r.tolist())
                kinds.extend([kind] * len(vals))
                values.extend(vals)
        memo: dict[tuple, str] = {}
        pseud = []
        for k, v in zip(kinds, values):
            t = memo.get((k, v))
            if t is None:
                t = memo[(k, v)] = _pseudo_token(k, v)
            pseud.append(t)
        out = {c: tbl.column(c).take(pa.array(rows, pa.int64()))
               for c in ids}
        out["kind"] = pa.array(kinds, pa.string())
        out["value"] = pa.array(values, pa.string())
        out["pseudonym"] = pa.array(pseud, pa.string())
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow")


def sample_balanced(ds, *, label_col: str = "label",
                    id_col: str = "vec_id", ds_counts=None):
    """Class-balanced downsampling — every label keeps exactly
    m = |smallest class| rows, chosen as the m smallest Knuth hashes
    of the id (the ``sample_stratified`` hash spec, so selection is a
    pure function of ids — resumable, blocking-independent, and
    SQL-replicable via row_number over (hash, id)). The label-skew
    equalizer a fine-tuning pipeline runs before training on
    classification data. Returns (label_col, id_col, h, rk) rows.

    Shape: one count pass (per-batch label partials, |labels|·blocks
    driver rows) finds m; the selection itself is ``group_topk``
    ascending on the hash — at most m rows per label per BLOCK cross
    the exchange. ``ds_counts`` supplies a second Dataset over the
    same input for the count pass (the branch-reexecution rule)."""

    def count_part(tbl: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(tbl.select([label_col]),
                            label_col).aggregate([([], "count_all")])
        return g.rename_columns([label_col, "n"])

    src = ds_counts if ds_counts is not None else ds
    counts = (src.map_batches(count_part, batch_format="pyarrow",
                              batch_size=65536).to_pandas()
              .groupby(label_col)["n"].sum())
    if counts.empty:
        import pandas as pd

        return pd.DataFrame({label_col: [], id_col: [], "h": [],
                             "rk": []})
    m = int(counts.min())

    def add_hash(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        h = (ids.astype(np.uint64) * _KNUTH) % _MOD32
        return pa.table({label_col: tbl.column(label_col),
                         id_col: tbl.column(id_col),
                         "h": pa.array(h.astype(np.int64), pa.int64())})

    withh = ds.map_batches(add_hash, batch_format="pyarrow",
                           batch_size=None)
    return group_topk(withh, key_col=label_col, order_col="h", k=m,
                      id_col=id_col, ascending=True)
