"""Keyword search over a documents table: distributed BM25 top-k.

The classic sparse-retrieval scorer (Robertson/Spärck Jones BM25, the
Lucene `k1`/`b` form with the always-positive idf) expressed as two
shuffle-free Ray Data passes:

1. **Corpus statistics** — one partial row per 64k-row batch carrying
   (n_docs, n_words, per-term document frequencies); the driver sums
   the tiny partial table and derives `avgdl` and per-term idf. At
   100 TB this pass moves O(batches × n_terms) integers, nothing else.
2. **Score + local top-k** — the idf/avgdl constants ride the closure
   (broadcast once per task, not per batch); each batch scores its
   docs fully vectorized over the flat word array and emits only its
   local top-k rows, so the driver's final merge sees
   O(k × batches) (doc_id, score) pairs — the standard distributed
   top-k with no all-to-all exchange anywhere.

Determinism: scores are plain f64 arithmetic on integer tf/dl with a
fixed term order, but the SQL oracle's per-doc SUM adds term
contributions in scan order — docs with an identical (tf vector, dl)
are bit-equal here yet may differ by a ulp there, and such groups are
large, so the top-k boundary would be decided by DuckDB's arbitrary
intra-group order. Ranking therefore uses the score ROUNDED to 6
decimals with a doc_id tiebreak on BOTH sides: ulp noise collapses into
the same rounded key, and ties order deterministically. (np.round is
half-even, DuckDB round is half-away — they could disagree only if a
log-derived score hit an exact 5e-7 decimal midpoint; accepted.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa

from .textstats import _words_flat

K1 = 1.2
B = 0.75


def bm25_topk(ds, terms: list[str], *, k: int = 50,
              text_col: str = "text", id_col: str = "doc_id"):
    """Top-``k`` documents by BM25 score for the (lowercased) query
    ``terms``. Returns a small pandas DataFrame (doc_id, score),
    ordered by (score desc, doc_id) — at most ``k`` rows, driver-side
    by construction (the distributed part only ever yields
    k rows per batch). Words are the ``[a-z0-9_]+`` runs the whole
    text family uses, so tf/df match the SQL oracles' tokenization."""
    terms = [t.lower() for t in terms]
    nt = len(terms)
    # match terms by the family's 64-bit word hash, not object-array
    # string compares (3 terms × 4 M words × 2 passes of PyUnicode eq
    # dominated the 100k-doc bench line; uint64 vector compares are
    # ~free). Shares the dedup family's documented collision stance.
    term_h = _hash_pure(
        np.array(terms, dtype=object)).astype(np.uint64)

    def stats_partial(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        df = np.zeros(nt, np.int64)
        for i in range(nt):
            hit = doc_of[wh == term_h[i]]
            df[i] = len(np.unique(hit))
        return pa.table({
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_words": pa.array([len(doc_of)], pa.int64()),
            "df": pa.array([df.tolist()], pa.list_(pa.int64()))})

    parts = ds.map_batches(stats_partial, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if parts.empty:        # empty input → no batches → column-less frame
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    n = int(parts["n_docs"].sum())
    total = int(parts["n_words"].sum())
    df = np.sum(np.vstack(parts["df"].to_numpy()), axis=0) \
        if len(parts) else np.zeros(nt, np.int64)
    if n == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    avgdl = total / n
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))     # Lucene form, > 0

    def score_local(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        dl = np.bincount(doc_of, minlength=n_docs).astype(np.float64)
        norm = K1 * (1.0 - B + B * dl / avgdl)
        score = np.zeros(n_docs, np.float64)
        for i in range(nt):                              # fixed term order
            tf = np.bincount(doc_of[wh == term_h[i]],
                             minlength=n_docs).astype(np.float64)
            score = score + idf[i] * (tf * (K1 + 1.0)) / (tf + norm)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        score = np.round(score, 6)
        keep = np.nonzero(score > 0)[0]
        if len(keep) > k:
            o = np.lexsort((ids[keep], -score[keep]))[:k]
            keep = keep[o]
        return pa.table({id_col: pa.array(ids[keep], pa.int64()),
                         "score": pa.array(score[keep], pa.float64())})

    local = ds.map_batches(score_local, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if local.empty:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    out = (local.sort_values(["score", id_col], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return out[[id_col, "score"]]


def tfidf_similar(ds, query_ids: list[int], *, k: int = 20,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Top-``k`` most similar documents to each query document by
    TF-IDF cosine — the sparse doc-to-doc companion of ``bm25_topk``
    (near-dup triage, "more like this" retrieval, mixture audits).
    With ``wt(d,w) = tf(d,w)·ln(N/df(w))``,

        cosine(q,d) = Σ_w wt(d,w)·wt(q,w) / (‖wt(d)‖·‖wt(q)‖)

    over all docs d ≠ q. Returns a small pandas DataFrame
    (qid, doc_id, cosine) with ≤ k rows per query, ranked by the
    ROUNDED score (6 decimals) + doc_id — the BM25 rounded-ranking-key
    stance (see module docstring).

    Distributed shape (no whole-corpus driver materialization):

    1. a cheap batch-partial pass sums N and the query-vocabulary
       document frequencies (query vocab is q docs' distinct words —
       broadcast-small), so each query's exact norm ‖wt(q)‖ is known
       driver-side before any wide work;
    2. word-keyed exchange of one (wh, doc, tf) row per distinct
       (doc, word): each bucket owns its words entirely, so
       df — and hence idf — is an in-bucket group size; the bucket
       emits per-doc LONG-FORM partials (doc, qj, v): qj=-1 rows carry
       Σ wt², qj≥0 rows carry Σ wt(d,w)·wt(q,w) against the broadcast
       query tf frame;
    3. doc-keyed exchange completes norms and numerators per doc,
       computes the rounded cosine (query norms ride the closure) and
       prunes to top-k per query PER BUCKET — the driver merge sees
       ≤ k·|queries|·buckets rows.

    Float contract: both sides compute wt as tf·ln(N/df) (identical
    IEEE expression); cross-bucket sum order differs from the SQL
    oracle's scan order by ~1e-15 relative, collapsed by the rounded
    ranking key."""
    from ..exchange import hash_group_apply

    qids = [int(x) for x in query_ids]
    nq = len(qids)
    empty = pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                          id_col: pd.Series([], dtype="int64"),
                          "cosine": pd.Series([], dtype="float64")})
    if not nq:
        return empty

    # --- query vectors: filtered collect of q rows (tiny by contract)
    qid_arr = np.array(sorted(qids), np.int64)

    def pick_queries(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(qid_arr, ids)
        pos[pos == len(qid_arr)] = 0
        mask = qid_arr[pos] == ids
        return tbl.select([id_col, text_col]).take(
            pa.array(np.nonzero(mask)[0]))

    qrows = (ds.map_batches(pick_queries, batch_format="pyarrow",
                            batch_size=65536).to_pandas())
    if len(qrows) != nq:
        raise ValueError(f"query ids {sorted(set(qids) - set(qrows[id_col].tolist()) if len(qrows) else qids)} not found")
    # per-query distinct-word tf over the shared tokenization
    q_tbl = pa.table({id_col: pa.array(qrows[id_col], pa.int64()),
                      text_col: pa.array(qrows[text_col].astype(object),
                                         pa.string())})
    _, qdoc_of, _, qwh, _ = _words_flat(q_tbl.column(text_col))
    q_ids_np = q_tbl.column(id_col).to_numpy(zero_copy_only=False)
    # map each query row to its position in the ORIGINAL qids order
    order_map = {int(q): j for j, q in enumerate(qids)}
    qj_row = np.array([order_map[int(x)] for x in q_ids_np], np.int64)
    qf = (pd.DataFrame({"wh": qwh, "qj": qj_row[qdoc_of]})
          .groupby(["wh", "qj"], sort=False).size().reset_index(name="tfq"))
    qvocab = np.unique(qf["wh"].to_numpy(np.uint64))

    # --- pass 1: N + df over the query vocabulary (batch partials)
    from .textstats import _gram_runs

    def stats_partial(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        dfv = np.zeros(len(qvocab), np.int64)
        if len(wh):
            pos = np.searchsorted(qvocab, wh)
            pos[pos == len(qvocab)] = 0
            mask = qvocab[pos] == wh
            if mask.any():
                o, _, _, first = _gram_runs(doc_of[mask], wh[mask])
                hit = wh[mask][o][first]
                dfv = np.bincount(np.searchsorted(qvocab, hit),
                                  minlength=len(qvocab))
        return pa.table({
            "n_docs": pa.array([n_docs], pa.int64()),
            "df": pa.array([dfv.tolist()], pa.list_(pa.int64()))})

    parts = ds.map_batches(stats_partial, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if parts.empty:
        return empty
    n_total = float(int(parts["n_docs"].sum()))
    dfq = np.sum(np.vstack(parts["df"].to_numpy()), axis=0).astype(np.int64)
    idf_q = np.log(n_total / dfq.astype(np.float64))
    # ‖wt(q)‖ per query, exact from the pre-pass
    qf_idf = idf_q[np.searchsorted(qvocab, qf["wh"].to_numpy(np.uint64))]
    qwt = qf["tfq"].to_numpy(np.float64) * qf_idf
    norm_q = np.sqrt(np.bincount(qf["qj"].to_numpy(), weights=qwt * qwt,
                                 minlength=nq))

    # --- pass 2: word-keyed exchange
    tf_schema = pa.schema([("wh", pa.uint64()), (id_col, pa.int64()),
                           ("tf", pa.int64())])

    def tf_rows(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        if not len(wh):
            return tf_schema.empty_table()
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        o, _, counts, first = _gram_runs(doc_of, wh)
        return pa.table({
            "wh": pa.array(wh[o][first], pa.uint64()),
            id_col: pa.array(ids[doc_of[o][first]], pa.int64()),
            "tf": pa.array(counts, pa.int64())})

    part_schema = pa.schema([(id_col, pa.int64()), ("qj", pa.int64()),
                             ("v", pa.float64())])
    qframe = qf[["wh", "qj", "tfq"]].copy()

    def word_bucket(df: pd.DataFrame) -> pd.DataFrame:
        dfc = df.groupby("wh", sort=False)["tf"].transform("size")
        idf = np.log(n_total / dfc.to_numpy(np.float64))
        wd = df["tf"].to_numpy(np.float64) * idf
        den = (pd.DataFrame({id_col: df[id_col], "v": wd * wd})
               .groupby(id_col, sort=False)["v"].sum().reset_index())
        den["qj"] = -1
        outs = [den[[id_col, "qj", "v"]]]
        m = df.assign(_wd=wd, _idf=idf).merge(qframe, on="wh",
                                              how="inner", sort=False)
        if len(m):
            v = m["_wd"].to_numpy() * (m["tfq"].to_numpy(np.float64)
                                       * m["_idf"].to_numpy())
            num = (pd.DataFrame({id_col: m[id_col], "qj": m["qj"], "v": v})
                   .groupby([id_col, "qj"], sort=False)["v"].sum()
                   .reset_index())
            outs.append(num[[id_col, "qj", "v"]])
        return pd.concat(outs, ignore_index=True)

    mid = hash_group_apply(
        ds.map_batches(tf_rows, batch_format="pyarrow", batch_size=65536),
        ["wh"], word_bucket, out_schema=part_schema)

    # --- pass 3: doc-keyed exchange → rounded cosine, per-bucket top-k
    out_schema = pa.schema([("qid", pa.int64()), (id_col, pa.int64()),
                            ("cosine", pa.float64())])
    qids_np = np.array(qids, np.int64)

    def doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([id_col, "qj"], sort=False)["v"].sum()
             .reset_index())
        den = g[g["qj"] == -1].set_index(id_col)["v"]
        num = g[g["qj"] >= 0]
        if num.empty:
            return pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        docs = num[id_col].to_numpy(np.int64)
        qj = num["qj"].to_numpy(np.int64)
        dnorm = np.sqrt(den.reindex(num[id_col]).to_numpy(np.float64))
        cos = np.round(num["v"].to_numpy() / (dnorm * norm_q[qj]), 6)
        keep = docs != qids_np[qj]            # exclude self-matches
        docs, qj, cos = docs[keep], qj[keep], cos[keep]
        sel = []
        for j in range(nq):                   # per-query local top-k
            i = np.nonzero(qj == j)[0]
            if len(i) > k:
                i = i[np.lexsort((docs[i], -cos[i]))[:k]]
            sel.append(i)
        i = np.concatenate(sel) if sel else np.empty(0, np.int64)
        return pd.DataFrame({"qid": qids_np[qj[i]], id_col: docs[i],
                             "cosine": cos[i]})

    local = hash_group_apply(mid, [id_col], doc_bucket,
                             out_schema=out_schema).to_pandas()
    if local.empty:
        return empty
    out = (local.sort_values(["qid", "cosine", id_col],
                             ascending=[True, False, True])
           .groupby("qid", sort=True).head(k).reset_index(drop=True))
    return out[["qid", id_col, "cosine"]]
