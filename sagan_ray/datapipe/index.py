"""Persistent inverted index: build term-partitioned postings parquet,
then answer BM25 top-k queries reading ONLY the buckets that can contain
the query terms.

``bm25_topk`` (search.py) rescans the corpus per query; this module is
the amortized path a real engine takes — tokenize once, write postings
``(term, doc_id, tf, dl)`` hash-partitioned by term into
``index_dir/bucket=<i>/...parquet`` (Ray Data ``write_parquet``
partition_cols — one directory per key range, so a failed build can be
resumed per-partition and a query prunes at the read), plus a tiny
``_meta`` parquet with the global (n_docs, n_words) BM25 constants.

Scale shape: the build is one vectorized tokenize pass + one
``write_parquet`` whose shuffle is the partitioned write itself; a query
reads |query-term buckets| directories with a ``term IN (...)`` row
filter pushed into the parquet scan, so the bytes touched are the query
terms' postings — independent of corpus size. Scoring accumulates terms
in the SAME fixed order over identical (tf, dl) integers as
``search.bm25_topk``, so scores (and the rounded ranking keys —
search.py docstring) are bit-identical to the rescan path.

dl is denormalized into the postings (impact-index style): queries never
join a doclens side table, at the cost of one int64 per posting.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa
import pyarrow.compute as pc

from .search import B, K1
from .textstats import _words_flat

_META = "_meta.json"


def _term_hash(terms) -> np.ndarray:
    return _hash_pure(
        np.array(list(terms), dtype=object)).astype(np.uint64)


def build_inverted_index(ds, index_dir: str, *, n_buckets: int = 32,
                         text_col: str = "text", id_col: str = "doc_id"):
    """Tokenize ``ds`` and write the postings index under ``index_dir``.
    Returns (n_docs, n_words). Idempotent re-runs overwrite."""
    def postings(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, words = _words_flat(tbl.column(text_col))
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        dl = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        # tf per (word, doc): lexsort then run-length over the sorted keys
        o = np.lexsort((doc_of, wh))
        whs, docs = wh[o], doc_of[o]
        new = np.empty(len(o), dtype=bool)
        if len(o):
            new[0] = True
            new[1:] = (whs[1:] != whs[:-1]) | (docs[1:] != docs[:-1])
        starts = np.flatnonzero(new)
        tf = np.diff(np.append(starts, len(o)))
        w = words[o[starts]]
        d = docs[starts]
        return pa.table({
            "term": pa.array(w, pa.string()),
            "doc_id": pa.array(ids[d], pa.int64()),
            "tf": pa.array(tf, pa.int64()),
            "dl": pa.array(dl[d], pa.int64()),
            "bucket": pa.array(
                (_hash_pure(w) % np.uint64(n_buckets)
                 ).astype(np.int64), pa.int64()),
        })

    ds.map_batches(postings, batch_format="pyarrow",
                   batch_size=65536).write_parquet(
        index_dir, partition_cols=["bucket"], mode="overwrite")

    # meta constants WITHOUT a second tokenize pass: every kept word of a
    # doc lands in exactly one posting, so n_words = Σ tf (a distributed
    # columnar read of just the written tf column); n_docs counts empty
    # docs too (the rescan oracle's `n`), and ds.count() on a parquet
    # read is metadata-only
    import ray.data as rd

    n_docs = int(ds.count())
    files = sorted(
        os.path.join(index_dir, ent, fn)
        for ent in os.listdir(index_dir) if ent.startswith("bucket=")
        for fn in os.listdir(os.path.join(index_dir, ent))
        if fn.endswith(".parquet"))
    n_words = int(rd.read_parquet(files, columns=["tf"]).sum("tf") or 0) \
        if files else 0
    with open(os.path.join(index_dir, _META), "w") as f:
        json.dump({"n_docs": n_docs, "n_words": n_words,
                   "n_buckets": n_buckets}, f)
    return n_docs, n_words


def search_index(index_dir: str, terms: list[str], *, k: int = 50,
                 id_col: str = "doc_id"):
    """BM25 top-``k`` over a built index. Reads only the buckets the
    query terms hash to, with the ``term IN terms`` predicate pushed
    into the scan; per-doc accumulation happens in a doc_id hash
    exchange whose input is just the query terms' postings. Returns a
    pandas DataFrame (doc_id, score) like ``bm25_topk``."""
    import ray.data as rd

    from ..exchange import hash_group_apply

    terms = [t.lower() for t in terms]
    nt = len(terms)
    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)
    n, total = meta["n_docs"], meta["n_words"]
    empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                          "score": pd.Series([], dtype="float64")})
    if n == 0 or nt == 0:
        return empty

    th = _term_hash(terms)
    dirs = sorted({os.path.join(index_dir, f"bucket={int(h) % meta['n_buckets']}")
                   for h in th})
    files = sorted(
        os.path.join(d, f) for d in dirs if os.path.isdir(d)
        for f in os.listdir(d) if f.endswith(".parquet"))
    if not files:
        return empty
    post = rd.read_parquet(files, columns=["term", "doc_id", "tf", "dl"],
                           filter=pc.field("term").isin(terms))

    # global df per term: postings for a term all carry distinct doc_ids,
    # so df = that term's row count; tiny per-batch partials, driver sum
    def df_partial(tbl: pa.Table) -> pa.Table:
        wh = _hash_pure(
            tbl.column("term").to_numpy(zero_copy_only=False)
            .astype(object)).astype(np.uint64)
        cnt = [int(np.count_nonzero(wh == th[i])) for i in range(nt)]
        return pa.table({"df": pa.array([cnt], pa.list_(pa.int64()))})

    parts = post.map_batches(df_partial, batch_format="pyarrow",
                             batch_size=65536).to_pandas()
    if parts.empty:
        return empty
    df = np.sum(np.vstack(parts["df"].to_numpy()), axis=0).astype(np.float64)
    avgdl = total / n
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy()
        docs, inv = np.unique(ids, return_inverse=True)
        wh = _hash_pure(
            b["term"].to_numpy().astype(object)).astype(np.uint64)
        dl = np.zeros(len(docs), np.float64)
        dl[inv] = b["dl"].to_numpy().astype(np.float64)
        norm = K1 * (1.0 - B + B * dl / avgdl)
        score = np.zeros(len(docs), np.float64)
        for i in range(nt):                      # fixed term order, as in
            m = wh == th[i]                      # search.bm25_topk
            tf = np.zeros(len(docs), np.float64)
            tf[inv[m]] = b["tf"].to_numpy()[m].astype(np.float64)
            score = score + idf[i] * (tf * (K1 + 1.0)) / (tf + norm)
        score = np.round(score, 6)
        keep = np.nonzero(score > 0)[0]
        if len(keep) > k:
            o = np.lexsort((docs[keep], -score[keep]))[:k]
            keep = keep[o]
        return pd.DataFrame({id_col: docs[keep], "score": score[keep]})

    schema = pa.schema([(id_col, pa.int64()), ("score", pa.float64())])
    local = hash_group_apply(post, [id_col], bucket,
                             out_schema=schema).to_pandas()
    if local.empty:
        return empty
    out = (local.sort_values(["score", id_col], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return out[[id_col, "score"]].astype({id_col: "int64",
                                          "score": "float64"})


def update_inverted_index(ds, index_dir: str, *, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Append a NEW shard's postings to an existing index (the arriving-
    data companion to ``dedup_against_prior``): postings parquet files
    append per bucket (no rewrite of existing partitions), the meta
    constants sum. Caller contract: ``ds`` holds doc_ids not already in
    the index (run the incremental dedup first) — appending keeps the
    per-(term, doc) uniqueness that df-by-row-count relies on. Search
    results after an update are BIT-identical to a full rebuild over the
    union: scores depend only on (tf, dl) integers and the (df, n_docs,
    n_words) constants, all of which are layout-independent. Returns the
    updated (n_docs, n_words)."""
    import shutil
    import tempfile

    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)

    # build the new shard's postings into a sibling temp dir with the
    # SAME bucket hash, then move the files in (append = new files per
    # bucket dir; a crashed update can be re-run after deleting the temp)
    tmp = tempfile.mkdtemp(prefix="idx_upd_", dir=os.path.dirname(
        index_dir.rstrip("/")) or ".")
    try:
        dn, dw = build_inverted_index(ds, tmp, n_buckets=meta["n_buckets"],
                                      text_col=text_col, id_col=id_col)
        for ent in os.listdir(tmp):
            if not ent.startswith("bucket="):
                continue
            dst = os.path.join(index_dir, ent)
            os.makedirs(dst, exist_ok=True)
            for fn in os.listdir(os.path.join(tmp, ent)):
                # unique name per update so appends never collide
                shutil.move(os.path.join(tmp, ent, fn),
                            os.path.join(dst, f"upd_{os.path.basename(tmp)}_{fn}"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    meta["n_docs"] += dn
    meta["n_words"] += dw
    with open(os.path.join(index_dir, _META), "w") as f:
        json.dump(meta, f)
    return meta["n_docs"], meta["n_words"]


def search_index_many(index_dir: str, queries: dict[int, list[str]], *,
                      k: int = 50, id_col: str = "doc_id"):
    """BM25 top-``k`` for a BATCH of queries in ONE pruned read + ONE
    doc_id exchange (the production shape: per-query ``search_index``
    calls pay the read/exchange floor per query; this pays it once for
    the batch). ``queries`` maps query_id → term list. Per-query scores
    are bit-identical to ``search_index`` (same per-term fixed-order
    accumulation over the same tf/dl integers; terms outside a query
    contribute exactly 0.0). Returns a pandas DataFrame
    (query_id, doc_id, score) with ≤ k rows per query, ordered by
    (query_id, score desc, doc_id)."""
    import ray
    import ray.data as rd

    from ..exchange import hash_group_apply

    qids = sorted(queries)
    qterms = {qi: [t.lower() for t in queries[qi]] for qi in qids}
    all_terms = sorted({t for ts in qterms.values() for t in ts})
    empty = pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                          id_col: pd.Series([], dtype="int64"),
                          "score": pd.Series([], dtype="float64")})
    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)
    n, total = meta["n_docs"], meta["n_words"]
    if n == 0 or not all_terms:
        return empty

    th = _term_hash(all_terms)
    dirs = sorted({os.path.join(index_dir,
                                f"bucket={int(h) % meta['n_buckets']}")
                   for h in th})
    files = sorted(
        os.path.join(d, f) for d in dirs if os.path.isdir(d)
        for f in os.listdir(d) if f.endswith(".parquet"))
    if not files:
        return empty
    post = rd.read_parquet(files, columns=["term", "doc_id", "tf", "dl"],
                           filter=pc.field("term").isin(all_terms))

    nt = len(all_terms)

    def df_partial(tbl: pa.Table) -> pa.Table:
        wh = _hash_pure(
            tbl.column("term").to_numpy(zero_copy_only=False)
            .astype(object)).astype(np.uint64)
        cnt = [int(np.count_nonzero(wh == th[i])) for i in range(nt)]
        return pa.table({"df": pa.array([cnt], pa.list_(pa.int64()))})

    parts = post.map_batches(df_partial, batch_format="pyarrow",
                             batch_size=65536).to_pandas()
    if parts.empty:
        return empty
    df = np.sum(np.vstack(parts["df"].to_numpy()), axis=0).astype(np.float64)
    avgdl = total / n
    idf_all = dict(zip(all_terms,
                       np.log(1.0 + (n - df + 0.5) / (df + 0.5))))

    # per-query (term, idf, term-hash) triples in the query's own fixed
    # term order — preserves bit-identity with search_index
    plan = [(qi,
             _term_hash(qterms[qi]),
             np.array([idf_all[t] for t in qterms[qi]], np.float64))
            for qi in qids if qterms[qi]]
    pref = ray.put(plan)

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        qplan = ray.get(pref)
        ids = b[id_col].to_numpy()
        docs, inv = np.unique(ids, return_inverse=True)
        wh = _hash_pure(
            b["term"].to_numpy().astype(object)).astype(np.uint64)
        dl = np.zeros(len(docs), np.float64)
        dl[inv] = b["dl"].to_numpy().astype(np.float64)
        norm = K1 * (1.0 - B + B * dl / avgdl)
        tf_all = b["tf"].to_numpy().astype(np.float64)
        frames = []
        for qi, qth, qidf in qplan:
            score = np.zeros(len(docs), np.float64)
            for i in range(len(qth)):            # fixed per-query order
                m = wh == qth[i]
                tf = np.zeros(len(docs), np.float64)
                tf[inv[m]] = tf_all[m]
                score = score + qidf[i] * (tf * (K1 + 1.0)) / (tf + norm)
            score = np.round(score, 6)
            keep = np.nonzero(score > 0)[0]
            if len(keep) > k:
                o = np.lexsort((docs[keep], -score[keep]))[:k]
                keep = keep[o]
            frames.append(pd.DataFrame({
                "query_id": np.full(len(keep), qi, np.int64),
                id_col: docs[keep], "score": score[keep]}))
        if not frames:
            return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    schema = pa.schema([("query_id", pa.int64()), (id_col, pa.int64()),
                        ("score", pa.float64())])
    local = hash_group_apply(post, [id_col], bucket,
                             out_schema=schema).to_pandas()
    if local.empty:
        return empty
    out = (local.sort_values(["query_id", "score", id_col],
                             ascending=[True, False, True])
           .groupby("query_id", sort=True).head(k).reset_index(drop=True))
    return out.astype({"query_id": "int64", id_col: "int64",
                       "score": "float64"})


def compact_inverted_index(index_dir: str) -> int:
    """Compact an updated postings index back to ONE parquet file per
    bucket (each ``update_inverted_index`` appends a file per touched
    bucket, so read-amplification grows with update count). Search is
    bit-identical before/after: scores depend only on the (term,
    doc_id, tf, dl) ROWS and the meta constants, never on file layout
    (the bucket reduce re-sorts on the rounded ranking key), and meta
    is untouched. Per-bucket Ray tasks rewrite into a sibling temp dir
    (same ``bucket=`` names), then each bucket dir swaps in via
    rmtree + os.replace — a crash between the two leaves the full
    temp dir on disk for manual recovery.
    Returns the number of buckets that had anything to compact."""
    import shutil
    import tempfile

    import ray

    @ray.remote
    def rewrite(bdir: str, out_dir: str) -> int:
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        files = sorted(fn for fn in os.listdir(bdir)
                       if fn.endswith(".parquet"))
        if len(files) <= 1:
            return 0
        tbl = _pa.concat_tables(
            [_pq.read_table(os.path.join(bdir, fn)) for fn in files])
        os.makedirs(out_dir, exist_ok=True)
        _pq.write_table(tbl, os.path.join(out_dir, "compacted.parquet"))
        return 1

    tmp = tempfile.mkdtemp(prefix="idx_cmp_", dir=os.path.dirname(
        index_dir.rstrip("/")) or ".")
    # build phase may clean up after itself; the SWAP phase must NOT —
    # once a bucket dir has been rmtree'd, the tmp copy is the only
    # surviving replica, and a finally-cleanup on the exception path
    # would destroy it (the recovery property the docstring promises)
    try:
        buckets = sorted(ent for ent in os.listdir(index_dir)
                         if ent.startswith("bucket="))
        done = ray.get([rewrite.remote(os.path.join(index_dir, ent),
                                       os.path.join(tmp, ent))
                        for ent in buckets])
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)     # nothing swapped yet
        raise
    n = 0
    for ent, d in zip(buckets, done):
        if not d:
            continue
        shutil.rmtree(os.path.join(index_dir, ent))
        os.replace(os.path.join(tmp, ent),
                   os.path.join(index_dir, ent))
        n += 1
    shutil.rmtree(tmp, ignore_errors=True)         # success: tmp is empty
    return n
