"""Approximate-nearest-neighbor search over an embedding column.

- brute_force_topk: the exact baseline — the query matrix is broadcast
  once (``ray.put``), every batch computes a (batch × queries) cosine
  matmul and emits its local top-k per query; a final tiny hash-exchange
  merge combines per-batch candidates. The shuffle carries only
  k·queries rows per batch.
- ivf_topk: the scale path — k-means centroids trained on a block-spread
  sample, batches assign vectors to cells, search visits the nprobe
  nearest cells only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _mat(tbl: pa.Table, vec_col: str, dtype=np.float32) -> np.ndarray:
    """(n, d) matrix from a list/fixed-size-list column without boxing
    every float through to_pylist (zero-copy flatten + reshape; requires
    uniform vector length, which an embedding column has). ``dtype``
    float64 when downstream must match a float64 oracle bit-for-bit at
    threshold boundaries."""
    col = tbl.column(vec_col).combine_chunks()
    if isinstance(col.type, pa.ExtensionType):
        col = col.storage        # e.g. Ray's ArrowTensorArray → its
        #                          fixed-size-list storage, zero-copy
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    if pa.types.is_fixed_size_list(col.type):
        flat = col.values
        d = col.type.list_size
    else:
        flat = col.flatten()
        d = len(flat) // n
        if d * n != len(flat):
            # ragged lists — fall back to the boxed path
            return np.asarray(col.to_pylist(), dtype=dtype)
    return (flat.to_numpy(zero_copy_only=False)
            .astype(dtype, copy=False).reshape(n, d))


def _ids(tbl: pa.Table, id_col: str) -> np.ndarray:
    return (tbl.column(id_col).combine_chunks()
            .to_numpy(zero_copy_only=False).astype(np.int64, copy=False))


def _local_topk_idx(s: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Deterministic local top-kk selection by (score desc, id asc).
    A bare ``argpartition`` keeps an ARBITRARY subset of rows whose score
    exactly ties the kk-th boundary (duplicate vectors, zero integer
    dots), which breaks golden/SQL hash parity because the oracles break
    ties by id. argpartition still does the heavy cut; only the
    boundary-tied slice pays a lexsort (the bm25_topk pattern,
    search.py)."""
    if kk >= len(s):
        return np.lexsort((ids, -s))[:kk]
    part = np.argpartition(-s, kk - 1)[:kk]
    thresh = s[part].min()
    cand = np.flatnonzero(s >= thresh)
    return cand[np.lexsort((ids[cand], -s[cand]))[:kk]]


def _emit_topk(qi, out_rows, id_col: str) -> pa.Table:
    out_q, out_v, out_s = [], [], []
    for qid, ids_c, sims_c in out_rows:
        out_q.extend([int(qid)] * len(ids_c))
        out_v.extend(ids_c.tolist())
        out_s.extend(sims_c.astype(np.float64).tolist())
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     id_col: pa.array(out_v, pa.int64()),
                     "cosine": pa.array(out_s, pa.float64())})


def _merge_topk(cands, k: int, id_col: str):
    """Shared per-query candidate merge: exact and approximate paths MUST
    rank identically (cosine desc, id asc) for recall comparisons to be
    meaningful. Runs through the bucketed hash exchange
    (``hash_group_apply``) — Ray Data's sort-based groupby costs a fixed
    ~10 s of shuffle overhead on this tiny k·queries-row stream (CLAUDE.md
    perf notes; the one bench regression of round 2)."""
    from .exchange import hash_group_apply

    schema = pa.schema([("query_id", pa.int64()), (id_col, pa.int64()),
                        ("cosine", pa.float64()), ("rank", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "cosine", id_col],
                            ascending=[True, False, True], kind="mergesort")
        g = df.groupby("query_id", sort=False)
        df = g.head(k).copy()
        df["rank"] = (df.groupby("query_id", sort=False).cumcount() + 1
                      ).astype(np.int64)
        return df

    return hash_group_apply(cands, ["query_id"], bucket, out_schema=schema)


def brute_force_topk(ds, queries: np.ndarray, *, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     query_ids: np.ndarray | None = None):
    """Exact cosine top-k for each query row. Returns a Dataset
    (query_id, vec_id, cosine, rank)."""
    import ray

    q = _unit(np.asarray(queries, dtype=np.float32))
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    q_ref = ray.put((q, qids))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qm, qi = ray.get(q_ref)
        ids = _ids(tbl, id_col)
        mat = _unit(_mat(tbl, vec_col))
        sims = mat @ qm.T                       # (batch, nq)
        kk = min(k, len(ids))
        rows = []
        for c in range(sims.shape[1]):
            sel = _local_topk_idx(sims[:, c], ids, kk)
            rows.append((qi[c], ids[sel], sims[sel, c]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k, id_col)


def hard_negative_topk(ds, queries: np.ndarray, query_labels: np.ndarray,
                       *, k: int = 10, vec_col: str = "embedding",
                       id_col: str = "vec_id", label_col: str = "label",
                       query_ids: np.ndarray | None = None):
    """Hard-negative mining for contrastive training: for each anchor
    query, the exact cosine top-k among vectors whose ``label_col``
    DIFFERS from the anchor's label (the per-query predicate
    ``embed_topk_filtered``'s fixed scan filter can't express). Same
    distributed shape as ``brute_force_topk`` — broadcast (queries,
    labels), per-batch dgemm + per-query masked local top-k, tiny
    candidate merge. Returns (query_id, vec_id, cosine, rank)."""
    import ray

    q = _unit(np.asarray(queries, dtype=np.float32))
    ql = np.asarray(query_labels)
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    q_ref = ray.put((q, ql, qids))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qm, qlab, qi = ray.get(q_ref)
        ids = _ids(tbl, id_col)
        if not len(ids):
            return _emit_topk(qi, [], id_col)
        labels = (tbl.column(label_col).combine_chunks()
                  .to_numpy(zero_copy_only=False))
        mat = _unit(_mat(tbl, vec_col))
        sims = mat @ qm.T                       # (batch, nq)
        rows = []
        for c in range(sims.shape[1]):
            m = labels != qlab[c]
            if not m.any():
                continue
            sub_ids = ids[m]
            sel = _local_topk_idx(sims[m, c], sub_ids,
                                  min(k, len(sub_ids)))
            rows.append((qi[c], sub_ids[sel], sims[m, c][sel]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k, id_col)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _sign_pack(mat: np.ndarray) -> np.ndarray:
    """Binarize an embedding matrix by coordinate SIGN — bit i is
    ``v_i > 0`` — packed little-endian into uint8 code words. The sign
    test is exact in IEEE and in SQL alike, which makes this the one
    ANN quantization whose oracle can be plain SQL over the raw floats
    (no fixed-point grid needed)."""
    return np.packbits(mat > 0, axis=1, bitorder="little")


def sign_hamming_topk(ds, queries: np.ndarray, *, k: int = 10,
                      vec_col: str = "embedding", id_col: str = "vec_id",
                      query_ids: np.ndarray | None = None):
    """Binarized-embedding search: per query, the k corpus vectors with
    the smallest sign-bit Hamming distance (ties broken by id asc) —
    the 32×-memory-compression retrieval baseline (64-dim float → 8
    bytes/vector). Same distributed shape as ``brute_force_topk``:
    queries packed once and broadcast, each batch XORs its packed codes
    against every query word and popcounts via a 256-entry table (all
    vectorized), emits its local top-k, and a tiny candidate exchange
    merges. Returns (query_id, vec_id, hamming, rank)."""
    import ray

    from .exchange import hash_group_apply

    qb = _sign_pack(np.asarray(queries, dtype=np.float32))
    qids = (np.arange(len(qb)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    q_ref = ray.put((qb, qids))

    schema = pa.schema([("query_id", pa.int64()), (id_col, pa.int64()),
                        ("hamming", pa.int64()), ("rank", pa.int64())])
    cand_schema = pa.schema([("query_id", pa.int64()),
                             (id_col, pa.int64()),
                             ("hamming", pa.int64())])

    def local_topk(tbl: pa.Table) -> pa.Table:
        qw, qi = ray.get(q_ref)
        ids = _ids(tbl, id_col)
        if not len(ids):
            return cand_schema.empty_table()
        codes = _sign_pack(_mat(tbl, vec_col))
        kk = min(k, len(ids))
        out_q, out_v, out_h = [], [], []
        for c in range(len(qw)):
            ham = _POP8[codes ^ qw[c]].sum(axis=1, dtype=np.int64)
            # _local_topk_idx ranks score DESC; negate (small ints are
            # exact in float64 far beyond any plausible dimension)
            sel = _local_topk_idx(-ham.astype(np.float64), ids, kk)
            out_q.extend([int(qi[c])] * len(sel))
            out_v.extend(ids[sel].tolist())
            out_h.extend(ham[sel].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         id_col: pa.array(out_v, pa.int64()),
                         "hamming": pa.array(out_h, pa.int64())})

    cands = ds.map_batches(local_topk, batch_format="pyarrow")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "hamming", id_col],
                            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(k).copy()
        df["rank"] = (df.groupby("query_id", sort=False).cumcount() + 1
                      ).astype(np.int64)
        return df

    return hash_group_apply(cands, ["query_id"], bucket,
                            out_schema=schema)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array — the deterministic
    per-id ordering hash behind blocking-independent sampling (the same
    spec the golden oracle replays sequentially)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


IVF_FIX = float(1 << 14)


def _unit_grid(mat: np.ndarray) -> np.ndarray:
    """Fixed-point UNIT-vector grid — the cluster.py determinism trick
    adapted to spherical/cosine ops. Per row: ``g = rint(x * 2^14)``
    (exact integer in float64), ``ss = Σ g²`` accumulated exactly in
    int64, ``u = rint(g / sqrt(ss) * 2^14)``. Every op is elementwise
    IEEE (bit-identical between a sequential per-row loop and this
    vectorized broadcast), and every downstream dot of two grid rows is
    an exact integer ≤ d·2^28 ≪ 2^53 — identical under any BLAS
    blocking, batch split or summation order. This is what makes the
    golden-parquet gate for IVF deterministic BY CONSTRUCTION (the
    round-3 kmeans/PCA/quantized pattern) instead of by float luck."""
    g = np.rint(mat.astype(np.float64, copy=False) * IVF_FIX)
    gi = g.astype(np.int64)
    ss = (gi * gi).sum(axis=1)                  # exact int64
    norm = np.sqrt(ss.astype(np.float64))
    norm[norm == 0] = 1.0
    return np.rint(g / norm[:, None] * IVF_FIX)


def _kmeans(sample: np.ndarray, n_cells: int, iters: int = 8):
    """Spherical Lloyd's over a pre-ordered UNIT-GRID sample (integer-
    valued float64 rows from ``_unit_grid``). Init is the FIRST n_cells
    sample rows (the caller orders the sample by the id-hash, so init is
    a deterministic pseudo-random subset independent of block layout);
    empty cells keep their previous centroid. All dots are exact
    integers; centroid updates re-land on the grid via
    ``rint(S / ||S|| · 2^14)`` with ``||S||²`` summed exactly in int64 —
    so the sequential golden's per-row loops produce bit-identical
    centroids (ties in argmax → lowest cell, same as the golden's ``>``
    scan)."""
    cent = sample[:min(n_cells, len(sample))].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)   # exact int dots
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                S = sample[m].sum(axis=0)             # exact ints ≤ n·2^14
                Si = S.astype(np.int64)
                ss = int((Si * Si).sum())             # exact in int64
                if ss > 0:
                    cent[c] = np.rint(S / np.sqrt(float(ss)) * IVF_FIX)
    return cent


def _sample_smallest(ds, *, sample_size: int, seed: int,
                     vec_col: str, id_col: str) -> np.ndarray:
    """Deterministic training sample shared by the IVF paths: the
    ``sample_size`` rows with the SMALLEST SplitMix64(id ^ seed) —
    identical under any block layout — returned as ``_unit_grid``
    fixed-point unit vectors ordered by (hash, id). Per-batch partial
    smallest-k + a bounded driver merge keep driver memory at
    O(sample_size) rows regardless of corpus size."""
    def local_smallest(tbl: pa.Table) -> pa.Table:
        ids = _ids(tbl, id_col)
        h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        if len(ids) > sample_size:
            keep = np.argpartition(h, sample_size - 1)[:sample_size]
            tbl, h = tbl.take(pa.array(np.sort(keep), pa.int64())), None
            ids = _ids(tbl, id_col)
            h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        return pa.table({"__h": pa.array(h, pa.uint64()),
                         id_col: pa.array(ids, pa.int64()),
                         vec_col: tbl.column(vec_col)})

    # batch_size must exceed sample_size or the per-batch prune never
    # fires and EVERY row (with its vector payload) streams through the
    # driver merge — measured 10.6 s of a 17.5 s run at 500 k rows with
    # the 1024-row default; 4 s total with 16×sample_size batches
    best: pa.Table | None = None
    for part in (ds.map_batches(local_smallest, batch_format="pyarrow",
                                batch_size=16 * sample_size)
                   .iter_batches(batch_format="pyarrow")):
        best = part if best is None else pa.concat_tables(
            [best, part]).combine_chunks()
        if best.num_rows > sample_size:
            order = np.lexsort((_ids(best, id_col),
                                best.column("__h").to_numpy()))
            best = best.take(pa.array(order[:sample_size], pa.int64()))
    if best is None or best.num_rows == 0:
        return np.empty((0, 0))          # empty corpus → empty sample
    order = np.lexsort((_ids(best, id_col), best.column("__h").to_numpy()))
    best = best.take(pa.array(order, pa.int64()))
    return _unit_grid(_mat(best, vec_col, dtype=np.float64))


def _train_centroids(ds, *, n_cells: int, sample_size: int, seed: int,
                     vec_col: str, id_col: str) -> np.ndarray:
    """IVF centroid training (``ivf_topk`` / ``build_ivf_index``):
    fixed-point spherical kmeans over the deterministic
    ``_sample_smallest`` sample (see ivf_topk docstring for why this
    makes the whole operator a pure function of (input, parameters))."""
    sample = _sample_smallest(ds, sample_size=sample_size, seed=seed,
                              vec_col=vec_col, id_col=id_col)
    return _kmeans(sample, n_cells)


def ivf_topk(ds, queries: np.ndarray, *, k: int = 10, n_cells: int = 16,
             nprobe: int = 4, vec_col: str = "embedding", id_col: str = "vec_id",
             sample_size: int = 4096, seed: int = 5,
             query_ids: np.ndarray | None = None):
    """IVF: restrict each query to its nprobe nearest centroid cells.
    Centroids train on the ``sample_size`` rows with the SMALLEST
    SplitMix64(id ^ seed) — a deterministic pseudo-random subset that is
    identical under any block layout / parallelism (a per-block RNG
    sample or ``limit(sample_size)`` both change with blocking), so the
    whole operator is a pure function of (input, parameters) and the
    golden sequential oracle (oracle/golden.py) can hash-verify it.
    Per-batch partial smallest-k + a bounded driver merge keep driver
    memory at O(sample_size) rows regardless of corpus size. All
    similarity arithmetic runs on the ``_unit_grid`` fixed-point unit
    vectors: every dot (training, assignment, probing, scoring) is an
    EXACT integer in float64, so the distributed run and the sequential
    golden are bit-identical by construction under any blocking/BLAS —
    not merely "usually agree". Scores the merge ranks on are those
    integer dots (monotone in quantized cosine). Approximate by design —
    recall measured against brute_force_topk in tests."""
    import ray

    q = _unit_grid(np.asarray(queries, dtype=np.float64))
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    cent = _train_centroids(ds, n_cells=n_cells, sample_size=sample_size,
                            seed=seed, vec_col=vec_col, id_col=id_col)

    # query → nprobe candidate cells: exact integer dots + STABLE argsort,
    # so equal-dot ties keep the lowest cell index — the golden's
    # (-sim, cell) sort by construction
    q_cells = np.argsort(-(q @ cent.T), axis=1, kind="stable")[:, :nprobe]
    ref = ray.put((q, qids, cent, q_cells))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qm, qi, cm, qc = ray.get(ref)
        ids = _ids(tbl, id_col)
        mat = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
        cell = np.argmax(mat @ cm.T, axis=1)
        rows = []
        for c in range(len(qm)):
            m = np.isin(cell, qc[c])
            if not m.any():
                continue
            sims = mat[m] @ qm[c]               # exact integer dots
            sub_ids = ids[m]
            sel = _local_topk_idx(sims, sub_ids, min(k, len(sub_ids)))
            rows.append((qi[c], sub_ids[sel], sims[sel]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k, id_col)


def _quantize_rows(mat: np.ndarray):
    """Per-vector symmetric int8 quantization of unit-normalized rows:
    scale = max|x|/127, code = rint(x/scale) ∈ [-127, 127] (zero vector
    → all-zero codes, scale 0). rint is half-even in both numpy and the
    sequential golden spec, so codes are bit-identical."""
    mat = _unit(mat.astype(np.float64, copy=False))
    scale = np.abs(mat).max(axis=1) / 127.0
    safe = np.where(scale == 0, 1.0, scale)
    codes = np.clip(np.rint(mat / safe[:, None]), -127, 127).astype(np.int8)
    return codes, scale


def quantize_embeddings(ds, *, vec_col: str = "embedding",
                        id_col: str = "vec_id"):
    """4×-smaller embedding table for the 100-TB memory path: returns a
    Dataset (vec_id, code: binary(d), scale: float64) — codes are the
    int8 quantization of the UNIT vector, so `idot·scale_a·scale_b`
    reconstructs approximate cosine exactly (integer dot = exact)."""

    def f(tbl: pa.Table) -> pa.Table:
        ids = _ids(tbl, id_col)
        mat = _mat(tbl, vec_col, dtype=np.float64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "code": pa.array([], pa.binary()),
                             "scale": pa.array([], pa.float64())})
        codes, scale = _quantize_rows(mat)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "code": pa.array([c.tobytes() for c in codes], pa.binary()),
            "scale": pa.array(scale, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")


def quantized_topk(ds, queries: np.ndarray, *, k: int = 10,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   query_ids: np.ndarray | None = None):
    """Brute-force top-k over int8-quantized vectors — the
    memory-bandwidth scale path (4× less data touched per batch than
    f32, 8× than f64). Both sides quantize: the per-pair score is

        score = int32_dot(code_v, code_q) · scale_v · scale_q

    The dot is EXACT integer arithmetic (d·127² ≪ 2^31), so the only
    float work is two multiplies per pair — bit-identical under any
    block layout / BLAS, which is what lets the sequential golden
    oracle (oracle/golden.py::write_golden_quantized) hash-verify a
    distributed approximate-ANN operator. Approximation error vs true
    cosine is the quantization error only; recall measured vs
    brute_force_topk in tests."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qcodes, qscale = _quantize_rows(q)
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    ref = ray.put((qcodes.astype(np.int32), qscale, qids))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qc, qs, qi = ray.get(ref)
        ids = _ids(tbl, id_col)
        if len(ids) == 0:
            return _emit_topk(qi, [], id_col)
        codes, scale = _quantize_rows(_mat(tbl, vec_col, dtype=np.float64))
        d = codes.shape[1]
        if d * 127 * 127 < 1 << 24:
            # int8 dots fit exactly in f32 (every partial sum is an
            # integer < 2^24), so a BLAS sgemm returns the EXACT integer
            # dot at BLAS speed — numpy's int32 matmul has no BLAS path
            # and measured 2.4× slower at 500 k × 64-d
            idot = (codes.astype(np.float32) @ qc.astype(np.float32).T
                    ).astype(np.int64)
        else:
            idot = codes.astype(np.int32) @ qc.T       # exact (batch, nq)
        sims = idot.astype(np.float64) * scale[:, None] * qs[None, :]
        kk = min(k, len(ids))
        rows = []
        for c in range(sims.shape[1]):
            sel = _local_topk_idx(sims[:, c], ids, kk)
            rows.append((qi[c], ids[sel], sims[sel, c]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k, id_col)


# ----------------------------------------------------------------------
# Johnson–Lindenstrauss ±1 random projection
# ----------------------------------------------------------------------

def _rp_signs(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Deterministic ±1 JL sign matrix: bit 0 of
    ``SplitMix64(seed·2^32 + i·d_out + j)``. float64 entries (exact ±1),
    recomputed anywhere from (d_in, d_out, seed) — never shipped."""
    idx = (np.uint64(seed) * np.uint64(1 << 32)
           + np.arange(d_in * d_out, dtype=np.uint64))
    bits = (_splitmix64(idx) & np.uint64(1)).astype(np.int64)
    return (2 * bits - 1).reshape(d_in, d_out).astype(np.float64)


def _rp_grid(mat: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Unit-grid rows projected by the ±1 matrix, re-normalized onto the
    2^14 grid in projected space. ``p = u @ signs`` is an exact integer
    (|p| ≤ d_in·2^14 ≪ 2^53 — every BLAS partial sum is integral), and
    the re-normalization is the same elementwise `_unit_grid` IEEE
    arithmetic, so a per-row golden loop and this blocked dgemm produce
    identical grid vectors."""
    u = _unit_grid(mat)
    p = u @ signs                        # exact integers in float64
    pi = p.astype(np.int64)
    ss = (pi * pi).sum(axis=1)           # exact int64
    norm = np.sqrt(ss.astype(np.float64))
    norm[norm == 0] = 1.0
    return np.rint(p / norm[:, None] * IVF_FIX)


def rp_topk(ds, queries: np.ndarray, *, k: int = 10, d_out: int = 16,
            seed: int = 5, vec_col: str = "embedding",
            id_col: str = "vec_id"):
    """Approximate cosine top-k in a Johnson–Lindenstrauss ±1 random
    projection (query_id, vec_id, cosine, rank — cosine is the PROJECTED
    cosine). At 100 TB the projection is the BYTES lever: only
    d_out/d_in of each vector's bytes enter the scoring stage (project
    once at the read, cache the short grid vectors), and the scoring
    dgemm shrinks by the same factor — the standard first stage before
    an exact rerank. Both sides land on the shared `_rp_grid`, so every
    score is an exact integer dot ≤ d_out·2^28 over 2^28 — the
    sequential golden (oracle/golden.py::write_golden_rp) verifies the
    distributed run bit-exactly, making an APPROXIMATE operator
    hash-gateable (the round-3 int8 pattern)."""
    import ray

    qm = np.asarray(queries, dtype=np.float64)
    signs = _rp_signs(qm.shape[1], d_out, seed)
    qg = _rp_grid(qm, signs)
    qids = np.arange(len(qg), dtype=np.int64)
    q_ref = ray.put((qg, signs, qids))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qgm, sg, qi = ray.get(q_ref)
        ids = _ids(tbl, id_col)
        pg = _rp_grid(_mat(tbl, vec_col, dtype=np.float64), sg)
        sims = (pg @ qgm.T) / (IVF_FIX * IVF_FIX)   # exact-int quotients
        kk = min(k, len(ids))
        rows = []
        for c in range(sims.shape[1]):
            sel = _local_topk_idx(sims[:, c], ids, kk)
            rows.append((qi[c], ids[sel], sims[sel, c]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k, id_col)


def _exact_rerank_pairs(ds, q: np.ndarray, qids: np.ndarray,
                        short: "pd.DataFrame", *, k: int, vec_col: str,
                        id_col: str):
    """Exact-rerank pass behind ``rp_rerank_topk``: the
    global shortlist becomes flat (vec_id, query_pos) pair arrays
    sorted by vec_id, and each corpus batch pays ONE sorted
    intersection (searchsorted) + one row-wise einsum of exact integer
    grid dots — a per-query np.isin loop at 10k queries was the
    measured pass-2 killer. Only shortlist rows score at all; the
    merge ranks by (cosine desc, id asc)."""
    import ray

    qpos = {int(v): i for i, v in enumerate(qids)}
    pair_v = short[id_col].to_numpy().astype(np.int64)
    pair_q = np.asarray([qpos[int(v)] for v in short["query_id"]],
                        np.int64)
    o = np.lexsort((pair_q, pair_v))
    pair_v, pair_q = pair_v[o], pair_q[o]
    sref = ray.put((q, qids, pair_v, pair_q))

    def local_exact(tbl: pa.Table) -> pa.Table:
        qm, qi, pv, pq_ = ray.get(sref)
        ids = _ids(tbl, id_col)
        if len(ids):
            # pairs whose vec_id lives in this batch (ids may be in any
            # order): membership via searchsorted on the sorted batch ids
            so = np.argsort(ids, kind="stable")
            sid = ids[so]
            pos = np.searchsorted(sid, pv)
            pos[pos >= len(sid)] = len(sid) - 1
            hit = sid[pos] == pv
            if hit.any():
                rows_in_batch = so[pos[hit]]
                qs = pq_[hit]
                mat = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
                sims = np.einsum("ij,ij->i", mat[rows_in_batch], qm[qs])
                return pa.table(
                    {"query_id": pa.array(qi[qs], pa.int64()),
                     id_col: pa.array(ids[rows_in_batch], pa.int64()),
                     "cosine": pa.array(sims.astype(np.float64),
                                        pa.float64())})
        return _emit_topk(qi, [], id_col)

    return _merge_topk(ds.map_batches(local_exact, batch_format="pyarrow",
                                      batch_size=None),
                       k, id_col)


def rp_rerank_topk(ds, queries: np.ndarray, *, k: int = 10,
                   shortlist: int = 50, d_out: int = 16, seed: int = 5,
                   vec_col: str = "embedding", id_col: str = "vec_id"):
    """Two-stage JL search: projected shortlist (`rp_topk`, pays
    d_out/d_in of the scoring bytes/flops) → exact unit-grid cosine
    rerank of ONLY the shortlisted (query, vec) pairs
    (`_exact_rerank_pairs` — one searchsorted + einsum per batch).
    Final ranking is exact cosine over the shortlist, so recall@k equals
    shortlist recall by construction; both stages are exact-int grid
    arithmetic — bit-deterministic under any layout."""
    short = rp_topk(ds, queries, k=shortlist, d_out=d_out, seed=seed,
                    vec_col=vec_col, id_col=id_col).to_pandas()
    qm = _unit_grid(np.asarray(queries, dtype=np.float64))
    qids = np.arange(len(qm), dtype=np.int64)
    return _exact_rerank_pairs(ds, qm, qids, short, k=k, vec_col=vec_col,
                               id_col=id_col)


# ----------------------------------------------------------------------
# persistent IVF index: build cell-partitioned vectors, search reads
# only the probed cells
# ----------------------------------------------------------------------

def build_ivf_index(ds, index_dir: str, *, n_cells: int = 16,
                    sample_size: int = 4096, seed: int = 5,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    centroids: np.ndarray | None = None):
    """Persist an IVF index: train centroids (the same deterministic
    sample + fixed-point kmeans as ``ivf_topk``), assign every vector
    to its argmax-integer-dot cell, and write (id, vector) parquet
    cell-partitioned into ``index_dir/cell=<i>/`` via
    ``write_parquet(partition_cols)`` — the ANN mirror of the inverted
    index (datapipe/index.py): per-cell dirs make the build resumable
    and let a query read ONLY its nprobe probed cells. Centroids (exact
    ``_unit_grid`` float64 values — parquet roundtrips them exactly)
    land in ``_centroids.parquet``; n_cells in ``_meta.json``. Returns
    n_cells. Pass ``centroids`` (exact-grid rows, e.g. read back from
    another index) to SKIP training and assign against a fixed matrix —
    the rebuild/compact path and the equivalence baseline for
    ``update_ivf_index``."""
    import json
    import os

    import ray.data as rd

    if centroids is not None:
        cent = np.asarray(centroids, dtype=np.float64)
        n_cells = len(cent)
    else:
        cent = _train_centroids(ds, n_cells=n_cells,
                                sample_size=sample_size,
                                seed=seed, vec_col=vec_col, id_col=id_col)
    import ray
    cref = ray.put(cent)

    def assign(tbl: pa.Table) -> pa.Table:
        cm = ray.get(cref)
        mat = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
        cell = np.argmax(mat @ cm.T, axis=1).astype(np.int64) \
            if len(mat) else np.array([], np.int64)
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         vec_col: tbl.column(vec_col),
                         "cell": pa.array(cell, pa.int64())})

    # route through the cell-keyed exchange BEFORE the partitioned
    # write: without it every (block × cell) pair becomes its own tiny
    # file (measured 8k files / ~25 rows each at 200k vectors × 128
    # cells — the search-side read paid 18× for it); after it each
    # cell's rows live in exactly one block, so the write emits ONE
    # compact file per cell
    from .exchange import hash_group_apply

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    schema = pa.schema([(id_col, pa.int64()),
                        (vec_col, pa.list_(pa.float32())),
                        ("cell", pa.int64())])
    hash_group_apply(assigned, ["cell"], lambda df: df,
                     out_schema=schema).write_parquet(
        index_dir, partition_cols=["cell"], mode="overwrite")
    rd.from_arrow(pa.table({
        "cell": pa.array(np.arange(n_cells), pa.int64()),
        "centroid": pa.array(cent.tolist(), pa.list_(pa.float64())),
    })).repartition(1).write_parquet(os.path.join(index_dir, "_centroids"),
                                     mode="overwrite")
    with open(os.path.join(index_dir, "_meta.json"), "w") as f:
        json.dump({"n_cells": n_cells}, f)
    return n_cells


def update_ivf_index(ds, index_dir: str, *, vec_col: str = "embedding",
                     id_col: str = "vec_id"):
    """Append NEW vectors to a persistent IVF index WITHOUT retraining
    (the ANN mirror of ``update_inverted_index``): assignments use the
    STORED centroid matrix, the new shard builds into a sibling temp
    dir through the same cell exchange, and its one-file-per-cell
    output moves into the existing ``cell=<i>/`` dirs under
    update-unique names (append = new files; a crashed update re-runs
    after deleting the temp). Search after an update is BIT-identical
    to ``build_ivf_index(union, centroids=stored)`` + search: cell
    routing depends only on the unchanged centroid matrix and scoring
    is exact integer dots, both layout-independent. Caller contract:
    ``ds`` holds ids not already in the index."""
    import os
    import shutil
    import tempfile

    import ray.data as rd

    ct = rd.read_parquet(os.path.join(index_dir, "_centroids")).to_pandas()
    cent = np.asarray(ct.sort_values("cell")["centroid"].tolist(),
                      dtype=np.float64)
    tmp = tempfile.mkdtemp(prefix="ivf_upd_", dir=os.path.dirname(
        index_dir.rstrip("/")) or ".")
    try:
        build_ivf_index(ds, tmp, centroids=cent, vec_col=vec_col,
                        id_col=id_col)
        for ent in os.listdir(tmp):
            if not ent.startswith("cell="):
                continue
            dst = os.path.join(index_dir, ent)
            os.makedirs(dst, exist_ok=True)
            for fn in os.listdir(os.path.join(tmp, ent)):
                shutil.move(
                    os.path.join(tmp, ent, fn),
                    os.path.join(dst,
                                 f"upd_{os.path.basename(tmp)}_{fn}"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return len(cent)


def compact_ivf_index(index_dir: str, *, vec_col: str = "embedding",
                      id_col: str = "vec_id") -> int:
    """Compact an updated IVF index back to one file per cell: read the
    stored rows, rebuild into a sibling temp dir against the STORED
    centroids (assignment and search are bit-identical by the
    ``update_ivf_index`` argument), atomically swap. Bounds the
    read-amplification of repeated appends (each update adds one file
    per touched cell)."""
    import os
    import shutil
    import tempfile

    import ray.data as rd

    ct = rd.read_parquet(os.path.join(index_dir, "_centroids")).to_pandas()
    cent = np.asarray(ct.sort_values("cell")["centroid"].tolist(),
                      dtype=np.float64)
    files = sorted(
        os.path.join(index_dir, ent, fn)
        for ent in os.listdir(index_dir) if ent.startswith("cell=")
        for fn in os.listdir(os.path.join(index_dir, ent))
        if fn.endswith(".parquet"))
    rows = rd.read_parquet(files, columns=[id_col, vec_col])
    tmp = tempfile.mkdtemp(prefix="ivf_cmp_", dir=os.path.dirname(
        index_dir.rstrip("/")) or ".")
    try:
        build_ivf_index(rows, tmp, centroids=cent, vec_col=vec_col,
                        id_col=id_col)
        for ent in os.listdir(index_dir):
            if ent.startswith("cell="):
                shutil.rmtree(os.path.join(index_dir, ent))
        for ent in os.listdir(tmp):
            if ent.startswith("cell="):
                os.replace(os.path.join(tmp, ent),
                           os.path.join(index_dir, ent))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return len(cent)


def search_ivf_index(index_dir: str, queries: np.ndarray, *, k: int = 10,
                     nprobe: int = 4, vec_col: str = "embedding",
                     id_col: str = "vec_id",
                     query_ids: np.ndarray | None = None):
    """IVF top-k over a built index, reading ONLY the probed cells'
    partitions — result is BIT-identical to ``ivf_topk`` with the same
    training parameters (same centroids by determinism of the training;
    cell restriction by np.isin against the same assignment; identical
    integer-dot scoring and merge). Bytes touched scale with
    nprobe/n_cells of the corpus, not the corpus."""
    import json
    import os

    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    ct = rd.read_parquet(os.path.join(index_dir, "_centroids")).to_pandas()
    ct = ct.sort_values("cell")
    cent = np.asarray(ct["centroid"].tolist(), dtype=np.float64)

    q = _unit_grid(np.asarray(queries, dtype=np.float64))
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    q_cells = np.argsort(-(q @ cent.T), axis=1, kind="stable")[:, :nprobe]

    need = sorted({int(c) for row in q_cells for c in row})
    files = sorted(
        os.path.join(index_dir, f"cell={c}", fn)
        for c in need if os.path.isdir(os.path.join(index_dir, f"cell={c}"))
        for fn in os.listdir(os.path.join(index_dir, f"cell={c}"))
        if fn.endswith(".parquet"))
    schema = pa.schema([("query_id", pa.int64()), (id_col, pa.int64()),
                        ("cosine", pa.float64()), ("rank", pa.int64())])
    if not files:
        return rd.from_arrow(schema.empty_table())
    sub = rd.read_parquet(files, columns=[id_col, vec_col])

    # CELL-GROUPED scoring — the routing win a cell-pure index layout
    # buys: batches hold few distinct cells (one file per cell after the
    # build-side exchange), so scoring loops over (cells in batch ×
    # queries probing that cell) instead of every query per batch. The
    # per-(query, cell) top-k candidates are a superset of the per-batch
    # top-k and every dot is the same exact integer, so the merged
    # result is identical to ivf_topk's. (The in-line ivf_topk keeps
    # the per-query np.isin form: its full-scan batches contain ~all
    # cells, where cell-grouping only adds Python overhead.)
    c2q: dict[int, list[int]] = {}
    for qpos, row in enumerate(q_cells):
        for c in row:
            c2q.setdefault(int(c), []).append(qpos)
    ref = ray.put((q, qids, cent,
                   {c: np.asarray(v, np.int64) for c, v in c2q.items()}))

    def local_topk(tbl: pa.Table) -> pa.Table:
        qm, qi, cm, cq = ray.get(ref)
        ids = _ids(tbl, id_col)
        mat = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
        cell = np.argmax(mat @ cm.T, axis=1)    # == the stored partition
        rows = []
        for c in np.unique(cell):
            qlist = cq.get(int(c))
            if qlist is None:
                continue
            m = cell == c
            sub_ids = ids[m]
            sims = mat[m] @ qm[qlist].T          # exact integer dots
            kk = min(k, len(sub_ids))
            for j in range(len(qlist)):
                sel = _local_topk_idx(sims[:, j], sub_ids, kk)
                rows.append((qi[qlist[j]], sub_ids[sel], sims[sel, j]))
        return _emit_topk(qi, rows, id_col)

    return _merge_topk(sub.map_batches(local_topk, batch_format="pyarrow",
                                       batch_size=16384),
                       k, id_col)


def mmr_topk(ds, queries: np.ndarray, *, k: int = 10, shortlist: int = 64,
             vec_col: str = "embedding", id_col: str = "vec_id",
             query_ids: np.ndarray | None = None):
    """Maximal-marginal-relevance diversified top-k (Carbonell/Goldstein)
    at λ = 1/2 over the fixed-point unit grid: greedy selection where
    step t picks the candidate maximizing

        key(d) = rel(d) - max_{s ∈ S} sim(d, s)        (ties: id asc;
        the first pick maximizes rel alone)

    with rel/sim the EXACT INTEGER grid dots (``_unit_grid``), so the
    whole greedy is bit-deterministic under any block layout — the
    quantized-topk stance that makes an approximate/iterative operator
    hash-verifiable against a sequential golden. λ = 1/2 is what makes
    the key integer (λ·a - (1-λ)·b rank-equals a - b).

    Distributed shape: per-batch exact-int scoring against the broadcast
    query grid + local top-``shortlist`` per query (boundary ties by id,
    ``_local_topk_idx``), SHIPPING each candidate's int32 grid row — a
    partial-emitting stage, so ``batch_size`` is pinned (the round-3
    audit rule); the driver merges to the global shortlist (identical to
    a full-scan top-m by construction) and runs the O(m·k) greedy on
    int64. Returns pandas (query_id, vec_id, rank, relevance, mmr) with
    relevance/mmr = integer dots / 2^28 (exact binary divisions)."""
    import ray

    q = _unit_grid(np.asarray(queries, dtype=np.float64))
    qids = (np.arange(len(q)) if query_ids is None
            else np.asarray(query_ids)).astype(np.int64)
    if not len(q):
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             id_col: pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64"),
                             "relevance": pd.Series([], dtype="float64"),
                             "mmr": pd.Series([], dtype="float64")})
    q_ref = ray.put(q)
    m = int(shortlist)
    scale = float(1 << 28)           # (2^14)^2: grid-dot → cosine units

    def local(tbl: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = _ids(tbl, id_col)
        g = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
        d = g.shape[1]
        sims = g @ qm.T                         # exact ints in float64
        kk = min(m, len(ids))
        gi32 = g.astype(np.int32)
        qs, vs, dots, grids = [], [], [], []
        for c in range(sims.shape[1]):
            sel = _local_topk_idx(sims[:, c], ids, kk)
            qs.append(np.full(len(sel), qids[c], np.int64))
            vs.append(ids[sel])
            dots.append(sims[sel, c].astype(np.int64))
            grids.append(gi32[sel])
        gg = np.vstack(grids) if grids else np.empty((0, d), np.int32)
        n = len(gg)
        grid_col = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1) * d, pa.int32()),
            pa.array(gg.ravel(), pa.int32()))
        return pa.table({"query_id": pa.array(np.concatenate(qs) if qs
                                              else [], pa.int64()),
                         id_col: pa.array(np.concatenate(vs) if vs
                                          else [], pa.int64()),
                         "dot": pa.array(np.concatenate(dots) if dots
                                         else [], pa.int64()),
                         "grid": grid_col})

    cand = (ds.map_batches(local, batch_format="pyarrow",
                           batch_size=65536).to_pandas())
    out_rows = []
    for c in range(len(qids)):
        sub = cand[cand["query_id"] == qids[c]]
        if sub.empty:
            continue
        ids_c = sub[id_col].to_numpy(np.int64)
        rel = sub["dot"].to_numpy(np.int64)
        order = np.lexsort((ids_c, -rel))[:m]   # global shortlist
        ids_c, rel = ids_c[order], rel[order]
        grid = np.asarray(sub["grid"].to_numpy()[order].tolist(),
                          np.int64)
        picked = np.zeros(len(ids_c), bool)
        maxsim = np.zeros(len(ids_c), np.int64)   # irrelevant pre-pick-1
        for rank in range(1, min(k, len(ids_c)) + 1):
            if rank == 1:
                key = rel.copy()
            else:
                key = rel - maxsim
            rem = np.flatnonzero(~picked)
            best = rem[np.lexsort((ids_c[rem], -key[rem]))[0]]
            picked[best] = True
            out_rows.append((int(qids[c]), int(ids_c[best]), rank,
                             rel[best] / scale, key[best] / scale))
            sim_new = grid @ grid[best]           # exact int64 dots
            maxsim = (sim_new if rank == 1
                      else np.maximum(maxsim, sim_new))
    return pd.DataFrame(out_rows, columns=["query_id", id_col, "rank",
                                           "relevance", "mmr"]).astype(
        {"query_id": "int64", id_col: "int64", "rank": "int64",
         "relevance": "float64", "mmr": "float64"})


def pair_cosine_histogram(ds, *, rate: float = 0.5, n_bins: int = 64,
                          vec_col: str = "embedding",
                          id_col: str = "vec_id", n_blocks: int = 8):
    """Distribution of pairwise cosine similarity over a deterministic
    hash-sampled subset — the threshold-tuning profile a dedup/ANN
    pipeline reads before picking an eps/threshold. Returns one row per
    NON-EMPTY bin: (bin, cos_lo, n_pairs), bins uniform over the GRID
    dot range (cos_lo = bin·2/n_bins − 1, an exact dyadic on both
    sides).

    Exactness: all similarity arithmetic runs on the ``_unit_grid``
    fixed-point sphere, so every pair's dot is an exact int64 and the
    bin index ``clip((dot + 2^28)·n_bins // 2^29, 0, n_bins−1)`` is pure
    integer arithmetic — the distributed run matches the sequential
    golden (oracle/golden.py::write_golden_pair_hist) bit-for-bit under
    any block layout / BLAS. (A real SQL oracle is impossible here:
    DuckDB's list_cosine_similarity carries float32-level error ~3e-7,
    enough to flip ~1e-5 of pairs across bin edges at n_bins=64.)

    Shape: the ``embedding_near_dup_exact`` block-pair exchange
    (sample map-side by the Knuth hash, ship each sampled unit-grid
    vector to its n_blocks block-pair buckets, chunked dgemm per
    bucket), but each bucket emits only its n_bins-row bincount PARTIAL
    — the driver folds buckets × n_bins rows, never pairs."""
    from .exchange import hash_group_apply

    knuth = np.uint64(2654435761)
    mod32 = np.uint64(1) << np.uint64(32)
    thr = np.uint64(int(min(max(rate, 0.0), 1.0) * float(mod32)))
    mix = np.uint64(0x9E3779B97F4A7C15)
    nb = int(n_blocks)
    grid2 = np.int64(1) << np.int64(28)          # (2^14)^2
    span = np.int64(1) << np.int64(29)

    def fan_out(tbl: pa.Table) -> pa.Table:
        ids = _ids(tbl, id_col)
        keep = ((ids.astype(np.uint64) * knuth) % mod32) < thr
        ids = ids[keep]
        n = len(ids)
        if n == 0:
            return pa.table({"bkt": pa.array([], pa.int32()),
                             "did": pa.array([], pa.int64()),
                             "blk": pa.array([], pa.int32()),
                             "unit": pa.array([], pa.binary())})
        unit = _unit_grid(_mat(tbl, vec_col,
                               dtype=np.float64)[keep]).astype(np.int64)
        blk = (((ids.astype(np.uint64) * mix) >> np.uint64(32))
               % np.uint64(nb)).astype(np.int64)
        packed = np.empty(n, dtype=object)
        for r in range(n):
            packed[r] = unit[r].tobytes()
        q = np.arange(nb, dtype=np.int64)
        p_rep = np.repeat(blk, nb)
        q_rep = np.tile(q, n)
        lo = np.minimum(p_rep, q_rep)
        hi = np.maximum(p_rep, q_rep)
        bkt = (lo * nb + hi).astype(np.int32)
        return pa.table({"bkt": pa.array(bkt, pa.int32()),
                         "did": pa.array(np.repeat(ids, nb), pa.int64()),
                         "blk": pa.array(p_rep.astype(np.int32),
                                         pa.int32()),
                         "unit": pa.array(np.repeat(packed, nb),
                                          pa.binary())})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(n_bins, dtype=np.int64)
        for bkt_val in df["bkt"].unique():
            sub = df[df["bkt"] == bkt_val]
            i, j = int(bkt_val) // nb, int(bkt_val) % nb
            units = sub["unit"].to_numpy()
            flat = np.frombuffer(b"".join(units.tolist()), dtype=np.int64)
            dim = len(flat) // len(sub)
            mat = flat.reshape(len(sub), dim).astype(np.float64)
            ids = sub["did"].to_numpy()
            blk = sub["blk"].to_numpy()
            if i == j:
                order = np.argsort(ids, kind="stable")
                m, gid = mat[order], ids[order]
                for s in range(0, len(gid), 2048):
                    d = (m[s:s + 2048] @ m.T)           # exact ints ≤ 2^34
                    ii, jj = np.nonzero(
                        gid[s:s + 2048, None] < gid[None, :])
                    dots = d[ii, jj].astype(np.int64)
                    b = np.clip((dots + grid2) * np.int64(n_bins) // span,
                                0, n_bins - 1)
                    counts += np.bincount(b, minlength=n_bins)
            else:
                ma = blk == i
                a_m, b_m = mat[ma], mat[~ma]
                if len(a_m) and len(b_m):
                    for s in range(0, len(a_m), 2048):
                        d = (a_m[s:s + 2048] @ b_m.T)
                        dots = d.ravel().astype(np.int64)
                        b = np.clip(
                            (dots + grid2) * np.int64(n_bins) // span,
                            0, n_bins - 1)
                        counts += np.bincount(b, minlength=n_bins)
        return pd.DataFrame({"bin": np.arange(n_bins, dtype=np.int64),
                             "n_pairs": counts})

    schema = pa.schema([("bin", pa.int64()), ("n_pairs", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(fan_out, batch_format="pyarrow",
                       batch_size=65536),
        ["bkt"], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                             "cos_lo": pd.Series([], dtype="float64"),
                             "n_pairs": pd.Series([], dtype="int64")})
    out = (parts.groupby("bin", as_index=False)["n_pairs"].sum()
           .astype({"bin": "int64", "n_pairs": "int64"}))
    out = out[out["n_pairs"] > 0].copy()
    out["cos_lo"] = out["bin"].to_numpy(np.float64) * (2.0 / n_bins) - 1.0
    return (out[["bin", "cos_lo", "n_pairs"]]
            .sort_values("bin").reset_index(drop=True))


def knn_graph(ds, *, k: int = 8, n_blocks: int = 4,
              vec_col: str = "embedding", id_col: str = "vec_id"):
    """Mutual k-nearest-neighbor graph over an embedding column — the
    edge set behind graph-based dedup clustering, label propagation and
    coreset/diversity heuristics: edge (src, dst) kept iff each endpoint
    ranks in the OTHER's cosine top-k. Returns (src, dst, dot) with
    src < dst and ``dot`` the exact int64 unit-grid dot (cosine =
    dot / 2^28, an exact dyadic).

    Exactness: neighbors rank on ``_unit_grid`` integer dots with ties
    by id asc, so a sequential per-row golden
    (oracle/golden.py::write_golden_knn_graph) matches bit-for-bit under
    any block layout / BLAS.

    Shape (the ``embedding_near_dup_exact`` block-pair exchange, top-k
    flavored): each vector ships its int16-packed grid row to its
    n_blocks block-pair buckets; each bucket emits per-src top-k
    CANDIDATES against only that bucket's complement rows (per-src
    global candidate volume k·n_blocks, never the corpus); a src-keyed
    exchange keeps the global top-k; an unordered-pair exchange keeps
    edges present in both directions. Rows never materialize
    driver-side. Brute-force all-pairs underneath — n_blocks bounds
    task memory, not work; for corpus scale, restrict candidates first
    (IVF cells / LSH buckets) and feed the per-cell subset here."""
    from .exchange import hash_group_apply

    nb = int(n_blocks)
    mix = np.uint64(0x9E3779B97F4A7C15)

    def fan_out(tbl: pa.Table) -> pa.Table:
        ids = _ids(tbl, id_col)
        n = len(ids)
        if n == 0:
            return pa.table({"bkt": pa.array([], pa.int32()),
                             "did": pa.array([], pa.int64()),
                             "blk": pa.array([], pa.int32()),
                             "unit": pa.array([], pa.binary())})
        unit = _unit_grid(_mat(tbl, vec_col,
                               dtype=np.float64)).astype(np.int16)
        blk = (((ids.astype(np.uint64) * mix) >> np.uint64(32))
               % np.uint64(nb)).astype(np.int64)
        packed = np.empty(n, dtype=object)
        for r in range(n):
            packed[r] = unit[r].tobytes()
        q = np.arange(nb, dtype=np.int64)
        p_rep = np.repeat(blk, nb)
        q_rep = np.tile(q, n)
        lo = np.minimum(p_rep, q_rep)
        hi = np.maximum(p_rep, q_rep)
        bkt = (lo * nb + hi).astype(np.int32)
        return pa.table({"bkt": pa.array(bkt, pa.int32()),
                         "did": pa.array(np.repeat(ids, nb), pa.int64()),
                         "blk": pa.array(p_rep.astype(np.int32),
                                         pa.int32()),
                         "unit": pa.array(np.repeat(packed, nb),
                                          pa.binary())})

    def cand_bucket(df: pd.DataFrame) -> pd.DataFrame:
        osrc, odst, odot = [], [], []

        def emit(src_ids, src_m, dst_ids, dst_m, exclude_self):
            # exact int dots in float64 (grid coords ≤ 2^14)
            sims = src_m @ dst_m.T
            kk = min(k + (1 if exclude_self else 0), sims.shape[1])
            for r in range(len(src_ids)):
                sel = _local_topk_idx(sims[r], dst_ids, kk)
                if exclude_self:
                    sel = sel[dst_ids[sel] != src_ids[r]][:k]
                osrc.extend([int(src_ids[r])] * len(sel))
                odst.extend(dst_ids[sel].tolist())
                odot.extend(sims[r][sel].astype(np.int64).tolist())

        for bkt_val in df["bkt"].unique():
            sub = df[df["bkt"] == bkt_val]
            i, j = int(bkt_val) // nb, int(bkt_val) % nb
            units = sub["unit"].to_numpy()
            flat = np.frombuffer(b"".join(units.tolist()), dtype=np.int16)
            dim = len(flat) // len(sub)
            mat = flat.reshape(len(sub), dim).astype(np.float64)
            ids = sub["did"].to_numpy()
            blk = sub["blk"].to_numpy()
            if i == j:
                emit(ids, mat, ids, mat, True)
            else:
                ma = blk == i
                a_ids, b_ids = ids[ma], ids[~ma]
                a_m, b_m = mat[ma], mat[~ma]
                if len(a_ids) and len(b_ids):
                    emit(a_ids, a_m, b_ids, b_m, False)
                    emit(b_ids, b_m, a_ids, a_m, False)
        return pd.DataFrame({"src": np.asarray(osrc, np.int64),
                             "dst": np.asarray(odst, np.int64),
                             "dot": np.asarray(odot, np.int64)})

    cand_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                             ("dot", pa.int64())])
    cands = hash_group_apply(
        ds.map_batches(fan_out, batch_format="pyarrow",
                       batch_size=65536),
        ["bkt"], cand_bucket, out_schema=cand_schema)

    def topk_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["src", "dot", "dst"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby("src", sort=False).head(k)

    directed = hash_group_apply(cands, ["src"], topk_bucket,
                                out_schema=cand_schema)

    def pair_part(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lo = pc.min_element_wise(tbl.column("src"), tbl.column("dst"))
        hi = pc.max_element_wise(tbl.column("src"), tbl.column("dst"))
        return pa.table({"a": lo, "b": hi, "dot": tbl.column("dot")})

    def mutual_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], sort=False).agg(
            n=("dot", "size"), dot=("dot", "first")).reset_index()
        g = g[g["n"] == 2]
        return (g[["a", "b", "dot"]]
                .rename(columns={"a": "src", "b": "dst"})
                .astype({"src": "int64", "dst": "int64", "dot": "int64"}))

    pairs = directed.map_batches(pair_part, batch_format="pyarrow",
                                 batch_size=None)
    return hash_group_apply(pairs, ["a", "b"], mutual_bucket,
                            out_schema=cand_schema)


def knn_graph_ivf(ds, *, k: int = 8, n_cells: int = 16,
                  sample_size: int = 4096, seed: int = 5,
                  vec_col: str = "embedding", id_col: str = "vec_id",
                  max_cell: int = 65536):
    """Cell-restricted mutual k-NN graph — ``knn_graph``'s documented
    scale path made concrete: vectors first partition into IVF cells
    (the ``ivf_topk`` trained centroids, same SplitMix64 sample spec),
    then the mutual top-k runs WITHIN each cell. One exchange row per
    vector (no block-pair replication), per-cell work m_cell², so total
    work drops by ~n_cells vs brute at the cost of missing cross-cell
    edges — approximate by design, recall measured in tests. All
    ranking is exact unit-grid integer dots; ties by id asc; a
    sequential golden (oracle/golden.py::write_golden_knn_graph_ivf)
    matches bit-for-bit. A cell larger than ``max_cell`` raises (the
    skew guard every candidate-bucket operator carries — raise n_cells
    rather than silently doing m² on a mega-cell). Returns
    (src, dst, dot) with src < dst, both endpoints in each other's
    within-cell top-k."""
    import ray

    from .exchange import hash_group_apply

    cent = _train_centroids(ds, n_cells=n_cells, sample_size=sample_size,
                            seed=seed, vec_col=vec_col, id_col=id_col)
    cent_ref = ray.put(cent)

    def fan_out(tbl: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        ids = _ids(tbl, id_col)
        n = len(ids)
        if n == 0:
            return pa.table({"cell": pa.array([], pa.int32()),
                             "did": pa.array([], pa.int64()),
                             "unit": pa.array([], pa.binary())})
        unit = _unit_grid(_mat(tbl, vec_col, dtype=np.float64))
        cell = np.argmax(unit @ cm.T, axis=1).astype(np.int32)
        packed = np.empty(n, dtype=object)
        u16 = unit.astype(np.int16)
        for r in range(n):
            packed[r] = u16[r].tobytes()
        return pa.table({"cell": pa.array(cell, pa.int32()),
                         "did": pa.array(ids, pa.int64()),
                         "unit": pa.array(packed, pa.binary())})

    def cell_bucket(df: pd.DataFrame) -> pd.DataFrame:
        osrc, odst, odot = [], [], []
        for cv in df["cell"].unique():
            sub = df[df["cell"] == cv]
            m = len(sub)
            if m > max_cell:
                raise ValueError(
                    f"cell {cv} holds {m} vectors (> max_cell="
                    f"{max_cell}); raise n_cells")
            if m < 2:
                continue
            flat = np.frombuffer(b"".join(sub["unit"].to_numpy().tolist()),
                                 dtype=np.int16)
            mat = flat.reshape(m, len(flat) // m).astype(np.float64)
            ids = sub["did"].to_numpy()
            sims = mat @ mat.T
            kk = min(k + 1, m)
            nbrs = {}
            for r in range(m):
                sel = _local_topk_idx(sims[r], ids, kk)
                sel = sel[ids[sel] != ids[r]][:k]
                nbrs[int(ids[r])] = (ids[sel], sims[r][sel])
            for r in range(m):
                a = int(ids[r])
                a_ids, a_dots = nbrs[a]
                for b, d in zip(a_ids.tolist(), a_dots.tolist()):
                    if a < b and (nbrs[b][0] == a).any():
                        osrc.append(a)
                        odst.append(b)
                        odot.append(int(d))
        return pd.DataFrame({"src": np.asarray(osrc, np.int64),
                             "dst": np.asarray(odst, np.int64),
                             "dot": np.asarray(odot, np.int64)})

    schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                        ("dot", pa.int64())])
    parts = ds.map_batches(fan_out, batch_format="pyarrow",
                           batch_size=65536)
    return hash_group_apply(parts, ["cell"], cell_bucket,
                            out_schema=schema)


def ivf_index_stats(index_dir: str):
    """Cell-balance report over a persisted IVF index — (cell, n_vecs,
    n_files) per cell dir, read from parquet FOOTERS only (the
    io/compact.py::file_stats discipline): the skew audit that tells
    you when a mega-cell is eating your probe latency and it's time to
    re-train with more cells (or that a compact is due — n_files grows
    with appends). One metadata read per file, fanned out as a Dataset
    over the file list."""
    import glob as _glob
    import os
    import re as _re

    import ray.data as rd

    files = []
    for d in sorted(_glob.glob(os.path.join(index_dir, "cell=*"))):
        m = _re.match(r".*cell=(\d+)$", d)
        if not m:
            continue
        for fn in sorted(os.listdir(d)):
            if fn.endswith(".parquet"):
                files.append((int(m.group(1)), os.path.join(d, fn)))

    def part(batch: dict) -> pa.Table:
        import pyarrow.parquet as pq

        cells, rows = [], []
        for cell, f in batch["item"]:
            cells.append(cell)
            rows.append(pq.read_metadata(f).num_rows)
        return pa.table({"cell": pa.array(cells, pa.int64()),
                         "n": pa.array(rows, pa.int64()),
                         "f": pa.array(np.ones(len(cells), np.int64))})

    parts = (rd.from_items(files).map_batches(part, batch_size=64)
             .to_pandas())
    out = (parts.groupby("cell", as_index=False)
           .agg(n_vecs=("n", "sum"), n_files=("f", "sum"))
           .astype({"cell": "int64", "n_vecs": "int64",
                    "n_files": "int64"}))
    return out.sort_values("cell").reset_index(drop=True)
