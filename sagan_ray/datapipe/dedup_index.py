"""Persistent MinHash-LSH near-duplicate index.

The in-line LSH path (``dedup.minhash_lsh_candidates`` +
``verify_pairs_jaccard``) re-shingles the whole corpus on every run; at
a 100-TB corpus the real workflow is *index once, probe forever*: new
document batches are checked against the standing corpus without ever
rescanning its text. This module persists the operator's OWN bucket
keys as the parquet partition key (the datapipe/index.py
discipline), so a search touches only the partitions its queries
hash into.

Layout under ``index_dir/``::

    bands/band=<b>/bucket=<key & 0xFF>/*.parquet   (key u64, doc id)
    shingles/bucket=<id & 0x3F>/*.parquet          (doc id, sh binary)
    _meta.json                                     params + doc count

Build is TWO passes but text is read exactly once: pass 1 shingles the
corpus text into the packed sorted-unique uint64 sets; pass 2 derives
minhash signatures and band keys FROM the stored shingle parquet
(8-byte hashes, no text). MinHash over the unique set equals minhash
over the raw shingle stream (min of a set ignores multiplicity), so the
band keys are bit-identical to the in-line path's by construction —
both call ``dedup._signature`` + ``dedup._band_keys_from_sigs``.

Search: per query, compute shingles + band keys driver-side (queries
are the small side by operator contract), read ONLY the matching
(band, bucket) partition dirs, keep exact key equality, dedup candidate
(query, doc) pairs through the exchange, then verify EXACT Jaccard in a
second exchange keyed by the shingle-partition bucket — each reduce
task reads only its own ``shingles/bucket=<n>`` dir, so corpus shingles
for non-candidate buckets never leave disk.

Append (``update_minhash_index``) lands identical rows as NEW FILES
inside the same content-keyed partition dirs; search unions a
partition's files, so post-append search is bit-equal to a full rebuild
over old ∪ new (the index.py append contract).

Reference parity: quadrantsec/sagan keeps no corpus index (it is a
streaming engine); this is a beyond-reference training-data operator.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import (_band_keys_from_sigs, _minhash_params,
                    _shingle_hashes_batch, _signature)
from ..exchange import hash_group_apply

N_KEY_BUCKETS = 256          # band-key partition fan-out per band
N_SH_BUCKETS = 64            # shingle-set partition fan-out


def _meta_path(index_dir: str) -> str:
    return os.path.join(index_dir, "_meta.json")


def build_minhash_index(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", k: int = 3,
                        n_perm: int = 64, bands: int = 16,
                        seed: int = 1234) -> int:
    """Build the index; returns the number of indexed docs. Existing
    contents of ``index_dir`` are replaced."""
    assert n_perm % bands == 0
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)

    def sh_rows(tbl: pa.Table) -> pa.Table:
        ids = [int(i) for i in tbl.column(id_col).to_pylist()]
        if ids and min(ids) < 0:
            raise ValueError("minhash index requires non-negative doc ids")
        texts = tbl.column(text_col).to_pylist()
        packed = [np.unique(sh).tobytes()
                  for sh in _shingle_hashes_batch(texts, k)]
        return pa.table({
            "bucket": pa.array([i & (N_SH_BUCKETS - 1) for i in ids],
                               pa.int32()),
            id_col: pa.array(ids, pa.int64()),
            "sh": pa.array(packed, pa.binary()),
        })

    # SORT by the partition key before the partitioned write: an
    # unsorted write emits one file per (partition × write task) —
    # measured 1.16M files for 1.6M band rows at 100k docs — while a
    # range-partitioned (sorted) stream touches each partition from
    # ~one task, giving ≈ partitions + blocks files. The sort is a
    # build-time shuffle of the SLIM rows only (no text).
    sh_dir = os.path.join(index_dir, "shingles")
    (ds.map_batches(sh_rows, batch_format="pyarrow")
     .sort("bucket")
     .write_parquet(sh_dir, partition_cols=["bucket"]))

    a_p, b_p = _minhash_params(n_perm, seed)
    n_docs = _write_band_rows(sh_dir, os.path.join(index_dir, "bands"),
                              id_col, a_p, b_p, bands)
    with open(_meta_path(index_dir), "w") as f:
        json.dump({"n_docs": int(n_docs), "k": k, "n_perm": n_perm,
                   "bands": bands, "seed": seed, "id_col": id_col}, f)
    return int(n_docs)


def _write_band_rows(sh_dir: str, bands_dir: str, id_col: str,
                     a_p: np.ndarray, b_p: np.ndarray, bands: int) -> int:
    """Pass 2: signatures + band keys from the stored shingle parquet
    (no text). Returns the doc count."""
    import ray.data as rd

    def band_rows(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col).to_pylist(), np.int64)
        packed = tbl.column("sh").to_pylist()
        n = len(ids)
        sigm = np.empty((n, len(a_p)), np.uint64)
        for i, blob in enumerate(packed):
            sigm[i] = _signature(np.frombuffer(blob, np.uint64), a_p, b_p)
        keys = _band_keys_from_sigs(sigm, bands)        # (n, bands)
        flat = keys.reshape(-1)
        return pa.table({
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n),
                             pa.int32()),
            "bucket": pa.array((flat & np.uint64(N_KEY_BUCKETS - 1))
                               .astype(np.int32), pa.int32()),
            "key": pa.array(flat, pa.uint64()),
            id_col: pa.array(np.repeat(ids, bands), pa.int64()),
        })

    src = rd.read_parquet(sh_dir)
    (src.map_batches(band_rows, batch_format="pyarrow")
     .sort(["band", "bucket"])          # see build_minhash_index: file
     .write_parquet(bands_dir,          # count ≈ partitions, not
                    partition_cols=["band", "bucket"]))  # parts × tasks
    return src.count()


def update_minhash_index(index_dir: str, new_ds, *,
                         text_col: str = "text") -> int:
    """Append new docs: identical rows land as new files inside the
    same content-keyed partition dirs (search unions a partition's
    files, so post-append search ≡ rebuild over old ∪ new). Returns the
    new total doc count. Caller guarantees new ids are disjoint from
    indexed ids."""
    with open(_meta_path(index_dir)) as f:
        meta = json.load(f)
    tmp = index_dir + ".append"
    built = build_minhash_index(
        new_ds, tmp, text_col=text_col, id_col=meta["id_col"],
        k=meta["k"], n_perm=meta["n_perm"], bands=meta["bands"],
        seed=meta["seed"])
    for sub in ("bands", "shingles"):
        _merge_partition_dirs(os.path.join(tmp, sub),
                              os.path.join(index_dir, sub))
    shutil.rmtree(tmp)
    meta["n_docs"] = int(meta["n_docs"]) + built
    with open(_meta_path(index_dir), "w") as f:
        json.dump(meta, f)
    return meta["n_docs"]


def _merge_partition_dirs(src: str, dst: str) -> None:
    """Move every parquet file under src's hive partition tree into the
    same partition dir under dst (prefixed so names can't collide)."""
    for root, _dirs, files in os.walk(src):
        rel = os.path.relpath(root, src)
        for fn in files:
            if not fn.endswith(".parquet"):
                continue
            ddir = os.path.join(dst, rel) if rel != "." else dst
            os.makedirs(ddir, exist_ok=True)
            os.replace(os.path.join(root, fn),
                       os.path.join(ddir, f"append-{fn}"))


def search_minhash_index(index_dir: str, query_ids, query_texts, *,
                         threshold: float = 0.8):
    """All indexed docs with exact word-k-shingle Jaccard ≥ ``threshold``
    against each query that share at least one LSH band with it (the
    same recall contract as the in-line ``minhash_lsh_dedup``: a true
    pair is missed only if every band key differs — prob (1−J^r)^b).
    Returns a Dataset (query_id, <id_col>, jaccard); self-matches are
    NOT excluded (a query whose id is indexed reports itself at 1.0)."""
    import ray
    import ray.data as rd

    with open(_meta_path(index_dir)) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    k, n_perm, bands = meta["k"], meta["n_perm"], meta["bands"]
    a_p, b_p = _minhash_params(n_perm, meta["seed"])

    qids = np.asarray(list(query_ids), np.int64)
    texts = list(query_texts)
    out_schema = pa.schema([("query_id", pa.int64()),
                            (id_col, pa.int64()),
                            ("jaccard", pa.float64())])
    if not len(qids):
        return rd.from_arrow(out_schema.empty_table())

    qsh = [np.unique(sh) for sh in _shingle_hashes_batch(texts, k)]
    sigm = np.empty((len(qids), n_perm), np.uint64)
    for i, sh in enumerate(qsh):
        sigm[i] = _signature(sh, a_p, b_p)
    qkeys = _band_keys_from_sigs(sigm, bands)           # (nq, bands)

    # per-band CSR over the SORTED query keys: uk (sorted unique keys),
    # offs (CSR offsets), qpos (query positions grouped by key) — so the
    # probe is one searchsorted + offset-arange expansion per band, no
    # per-(band, key) python loop (the 100k-doc soak's measured hot spot)
    per_band = {}
    dirs = set()
    for b in range(bands):
        col = qkeys[:, b]
        order = np.argsort(col, kind="stable")
        ks = col[order]
        uk, first = np.unique(ks, return_index=True)
        offs = np.concatenate([first, [len(ks)]]).astype(np.int64)
        per_band[b] = (uk, offs, order.astype(np.int64))
        for key in uk:
            dirs.add(os.path.join(
                index_dir, "bands", f"band={b}",
                f"bucket={int(key) & (N_KEY_BUCKETS - 1)}"))
    files = []
    for d in sorted(dirs):
        if os.path.isdir(d):
            files.extend(os.path.join(d, fn) for fn in sorted(os.listdir(d))
                         if fn.endswith(".parquet"))
    if not files:
        return rd.from_arrow(out_schema.empty_table())

    probe_ref = ray.put((qids, per_band))

    def probe(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qi, lut = ray.get(probe_ref)
        band = pc.cast(tbl.column("band"), pa.int64()).to_numpy(
            zero_copy_only=False)
        key = tbl.column("key").to_numpy(zero_copy_only=False
                                         ).astype(np.uint64)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        out_q, out_i = [], []
        for b in np.unique(band):
            uk, offs, qpos = lut[int(b)]
            if not len(uk):
                continue
            m = band == b
            kk, idm = key[m], ids[m]
            pos = np.searchsorted(uk, kk)
            pos[pos >= len(uk)] = 0
            hit = uk[pos] == kk
            if not hit.any():
                continue
            pos, idm = pos[hit], idm[hit]
            cnts = offs[pos + 1] - offs[pos]
            total = int(cnts.sum())
            cum = np.concatenate([[0], np.cumsum(cnts)[:-1]])
            idx = (np.repeat(offs[pos], cnts)
                   + np.arange(total) - np.repeat(cum, cnts))
            out_q.append(qi[qpos[idx]])
            out_i.append(np.repeat(idm, cnts))
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            id_col: pa.array(np.concatenate(out_i), pa.int64())})

    cand_schema = pa.schema([("query_id", pa.int64()),
                             (id_col, pa.int64())])
    cands = hash_group_apply(
        rd.read_parquet(files).map_batches(probe, batch_format="pyarrow"),
        ["query_id", id_col],
        lambda g: g.drop_duplicates(subset=["query_id", id_col]),
        out_schema=cand_schema)

    # exact verify: bucket candidates by the shingle PARTITION key so
    # each reduce task reads only its own shingles/bucket=<n> dir
    qset_ref = ray.put({int(q): s for q, s in zip(qids, qsh)})
    sh_root = os.path.join(index_dir, "shingles")

    def add_bucket(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "bucket", pa.array((ids & (N_SH_BUCKETS - 1)).astype(np.int32),
                               pa.int32()))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        qsets = ray.get(qset_ref)
        oq, oi, oj = [], [], []
        for bkt, sub in df.groupby("bucket", sort=True):
            d = os.path.join(sh_root, f"bucket={int(bkt)}")
            if not os.path.isdir(d):
                continue
            t = pq.read_table(d, columns=[id_col, "sh"])
            blob = dict(zip(t.column(id_col).to_pylist(),
                            t.column("sh").to_pylist()))
            for q, did in zip(sub["query_id"].to_numpy(),
                              sub[id_col].to_numpy()):
                raw = blob.get(int(did))
                if raw is None:
                    continue
                sb = np.frombuffer(raw, np.uint64)
                sa = qsets[int(q)]
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                jac = inter / max(1, sa.size + sb.size - inter)
                if jac >= threshold:
                    oq.append(int(q))
                    oi.append(int(did))
                    oj.append(float(jac))
        return pd.DataFrame({"query_id": pd.Series(oq, dtype="int64"),
                             id_col: pd.Series(oi, dtype="int64"),
                             "jaccard": pd.Series(oj, dtype="float64")})

    return hash_group_apply(
        cands.map_batches(add_bucket, batch_format="pyarrow"),
        ["bucket"], verify, out_schema=out_schema)


# ----------------------------------------------------------------------
# persistent SimHash index (pigeonhole-banded Hamming search)
# ----------------------------------------------------------------------

N_SIM_BANDS = 4              # 4 x 16-bit bands over the 64-bit sig


def build_simhash_index(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id") -> int:
    """Persist a SimHash near-dup index: one row per (doc × band) with
    the 16-bit band key as partition key and the full 64-bit signature
    inline — so search probes only the partitions its queries hash
    into AND verifies exact Hamming in the same pass (no second
    store; the sig is 8 bytes, unlike MinHash's shingle sets).
    Pigeonhole recall contract: with 4 bands, any pair at Hamming ≤ 3
    shares at least one exact band key — search at max_hamming ≤ 3 is
    EXACT, which is what lets the gate reuse the brute-force golden of
    the in-line ``dedup_simhash``. Returns the doc count."""
    from .dedup import _simhash64_batch

    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)

    def rows(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col).to_pylist(), np.int64)
        s = _simhash64_batch(tbl.column(text_col).to_pylist())
        n = len(ids)
        bands = np.arange(N_SIM_BANDS, dtype=np.uint64)
        s_rep = np.repeat(s, N_SIM_BANDS)
        keys = ((s_rep >> np.tile(bands, n) * np.uint64(16))
                & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table({
            "band": pa.array(np.tile(bands.astype(np.int32), n),
                             pa.int32()),
            "bucket": pa.array((keys & (N_KEY_BUCKETS - 1))
                               .astype(np.int32), pa.int32()),
            "key": pa.array(keys, pa.int64()),
            id_col: pa.array(np.repeat(ids, N_SIM_BANDS), pa.int64()),
            "sig": pa.array(s_rep, pa.uint64())})

    src = ds.map_batches(rows, batch_format="pyarrow")
    # sorted partitioned write — the measured 10x-files rule
    (src.sort(["band", "bucket"])
     .write_parquet(os.path.join(index_dir, "bands"),
                    partition_cols=["band", "bucket"]))
    n_docs = src.count() // N_SIM_BANDS
    with open(_meta_path(index_dir), "w") as f:
        json.dump({"n_docs": int(n_docs), "id_col": id_col,
                   "kind": "simhash"}, f)
    return int(n_docs)


def update_simhash_index(index_dir: str, new_ds, *,
                         text_col: str = "text") -> int:
    """Append new docs as new files inside the same content-keyed
    partition dirs (search unions a partition's files → post-append
    search ≡ rebuild over old ∪ new). Caller guarantees disjoint ids."""
    with open(_meta_path(index_dir)) as f:
        meta = json.load(f)
    tmp = index_dir + ".append"
    built = build_simhash_index(new_ds, tmp, text_col=text_col,
                                id_col=meta["id_col"])
    _merge_partition_dirs(os.path.join(tmp, "bands"),
                          os.path.join(index_dir, "bands"))
    shutil.rmtree(tmp)
    meta["n_docs"] = int(meta["n_docs"]) + built
    with open(_meta_path(index_dir), "w") as f:
        json.dump(meta, f)
    return meta["n_docs"]


def search_simhash_index(index_dir: str, query_ids, query_texts, *,
                         max_hamming: int = 3):
    """All indexed docs within Hamming ≤ ``max_hamming`` of each query
    signature — EXACT for max_hamming ≤ 3 (the 4-band pigeonhole).
    Queries hash driver-side (small side by contract); only matching
    (band, bucket) partition dirs are read; the probe pass verifies
    popcount inline; one exchange dedups (query, doc) pairs (a pair
    can hit several bands). Self-matches are NOT excluded. Returns a
    Dataset (query_id, <id_col>, hamming)."""
    import ray
    import ray.data as rd

    from .dedup import _popcount_u64, _simhash64_batch

    if max_hamming >= N_SIM_BANDS:
        raise ValueError("recall guarantee requires max_hamming < 4")
    with open(_meta_path(index_dir)) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    qids = np.asarray(list(query_ids), np.int64)
    out_schema = pa.schema([("query_id", pa.int64()),
                            (id_col, pa.int64()),
                            ("hamming", pa.int64())])
    if not len(qids):
        return rd.from_arrow(out_schema.empty_table())
    qsig = _simhash64_batch(list(query_texts))

    per_band = {}
    dirs = set()
    for b in range(N_SIM_BANDS):
        col = ((qsig >> np.uint64(16 * b)) & np.uint64(0xFFFF)
               ).astype(np.int64)
        order = np.argsort(col, kind="stable")
        ks = col[order]
        uk, first = np.unique(ks, return_index=True)
        offs = np.concatenate([first, [len(ks)]]).astype(np.int64)
        per_band[b] = (uk, offs, order.astype(np.int64))
        for key in uk:
            dirs.add(os.path.join(
                index_dir, "bands", f"band={b}",
                f"bucket={int(key) & (N_KEY_BUCKETS - 1)}"))
    files = []
    for d in sorted(dirs):
        if os.path.isdir(d):
            files.extend(os.path.join(d, fn) for fn in sorted(os.listdir(d))
                         if fn.endswith(".parquet"))
    if not files:
        return rd.from_arrow(out_schema.empty_table())

    probe_ref = ray.put((qids, qsig, per_band))

    def probe(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qi, qs, lut = ray.get(probe_ref)
        band = pc.cast(tbl.column("band"), pa.int64()).to_numpy(
            zero_copy_only=False)
        key = tbl.column("key").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        sig = tbl.column("sig").to_numpy(zero_copy_only=False
                                         ).astype(np.uint64)
        out_q, out_i, out_h = [], [], []
        for b in np.unique(band):
            uk, offs, qpos = lut[int(b)]
            m = band == b
            kk, idm, sgm = key[m], ids[m], sig[m]
            pos = np.searchsorted(uk, kk)
            pos[pos >= len(uk)] = 0
            hit = uk[pos] == kk
            if not hit.any():
                continue
            pos, idm, sgm = pos[hit], idm[hit], sgm[hit]
            cnts = offs[pos + 1] - offs[pos]
            total = int(cnts.sum())
            cum = np.concatenate([[0], np.cumsum(cnts)[:-1]])
            idx = (np.repeat(offs[pos], cnts)
                   + np.arange(total) - np.repeat(cum, cnts))
            qidx = qpos[idx]
            d = _popcount_u64(qs[qidx] ^ np.repeat(sgm, cnts))
            keep = d <= max_hamming
            out_q.append(qi[qidx[keep]])
            out_i.append(np.repeat(idm, cnts)[keep])
            out_h.append(d[keep].astype(np.int64))
        if not out_q:
            return out_schema.empty_table()
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            id_col: pa.array(np.concatenate(out_i), pa.int64()),
            "hamming": pa.array(np.concatenate(out_h), pa.int64())})

    return hash_group_apply(
        rd.read_parquet(files).map_batches(probe, batch_format="pyarrow"),
        ["query_id", id_col],
        lambda g: g.drop_duplicates(subset=["query_id", id_col]),
        out_schema=out_schema)


def compact_simhash_index(index_dir: str) -> int:
    """Rewrite the band partition tree into ~one file per partition
    (appends accumulate small files; search unions them, so this is
    pure layout maintenance — search is bit-equal before and after).
    Returns the file count after compaction. Same tmp + atomic swap
    stance as the corpus compactor."""
    import ray.data as rd

    bands_dir = os.path.join(index_dir, "bands")
    tmp = bands_dir + ".compact"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    (rd.read_parquet(bands_dir)
     .sort(["band", "bucket"])
     .write_parquet(tmp, partition_cols=["band", "bucket"]))
    old = bands_dir + ".old"
    os.replace(bands_dir, old)
    os.replace(tmp, bands_dir)
    shutil.rmtree(old)
    n = 0
    for _root, _dirs, files in os.walk(bands_dir):
        n += sum(1 for f in files if f.endswith(".parquet"))
    return n


def compact_minhash_index(index_dir: str) -> int:
    """Rewrite BOTH partition trees (shingles/bucket and
    bands/band,bucket) to ~one file per partition — appends accumulate
    one file set per update and search unions a partition's files, so
    this is pure layout maintenance: search is bit-equal before and
    after (the compact_simhash_index stance, applied to both trees).
    Same tmp + atomic-swap discipline; meta untouched. Returns the
    total parquet file count after compaction."""
    import ray.data as rd

    n = 0
    for sub, cols in (("shingles", ["bucket"]),
                      ("bands", ["band", "bucket"])):
        d = os.path.join(index_dir, sub)
        tmp = d + ".compact"
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        (rd.read_parquet(d)
         .sort(cols)
         .write_parquet(tmp, partition_cols=cols))
        old = d + ".old"
        os.replace(d, old)
        os.replace(tmp, d)
        shutil.rmtree(old)
        for _root, _dirs, files in os.walk(d):
            n += sum(1 for f in files if f.endswith(".parquet"))
    return n
