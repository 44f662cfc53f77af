"""Deduplication operators over a documents table (doc_id, text, ...).

Shapes (ray_guide 'Aggregation at scale' / MinHash-LSH pattern):
- exact: content-hash per batch (one vectorized hash_array pass) →
  groupby(hash) → keep first. Only the 8-byte hash partitions the
  shuffle; in-bucket exact compare keeps it collision-safe.
- MinHash-LSH: shingle→minhash signature per batch → explode to
  (band, band_hash, doc_id) rows → groupby bands → candidate pairs →
  verify true Jaccard. Signature math is vectorized numpy universal
  hashing; determinism comes from fixed seeds. This is the one
  near-dup detector: clusters, keep-best, the source report and the
  fuzzy joins all build on it.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np
import pandas as pd

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa

_MERSENNE = (1 << 61) - 1

def _group_pairs_idx(counts: np.ndarray, keep=None):
    """Row-index pairs (i, j) with i < j within consecutive groups of
    the given sizes (rows 0..counts.sum()-1, groups back to back) —
    one repeat + one offset-arange gather, no per-group Python; groups
    with ``keep``=False contribute no pairs (the stop-bucket skew
    guard). The pair construction behind the minhash-band and
    vocab-edit candidate buckets."""
    counts = counts.astype(np.int64)
    ends = np.cumsum(counts)
    n_after = np.repeat(ends, counts) - np.arange(int(counts.sum())) - 1
    if keep is not None:
        n_after[~np.repeat(keep, counts)] = 0
    lead = np.flatnonzero(n_after > 0)
    if not len(lead):
        z = np.empty(0, np.int64)
        return z, z
    na = n_after[lead]
    ai = np.repeat(lead, na)
    off = np.concatenate([[0], np.cumsum(na)[:-1]])
    bi = np.arange(na.sum()) - np.repeat(off, na) + np.repeat(lead + 1, na)
    return ai, bi


# ----------------------------------------------------------------------
# exact dedup
# ----------------------------------------------------------------------

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the smallest id per distinct text. Returns the surviving rows
    (all original columns). An 8-byte content hash (ONE vectorized
    hash_array pass, no per-row hashlib) only PARTITIONS the exchange —
    within a bucket texts are exact-compared, so a hash collision merely
    co-locates two distinct texts, never merges them."""
    from ..exchange import hash_group_apply

    def add_hash(tbl: pa.Table) -> pa.Table:
        texts = tbl.column(text_col).to_numpy(zero_copy_only=False)
        h = _hash_pure(texts.astype(object, copy=False))
        return tbl.append_column("__h", pa.array(h, pa.uint64()))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        return (g.drop_duplicates(subset=[text_col], keep="first")
                 .drop(columns=["__h"]))

    return hash_group_apply(ds.map_batches(add_hash, batch_format="pyarrow"),
                            ["__h"], keep_first)


def dedup_against_prior(new, prior, *, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Incremental exact dedup: drop rows of ``new`` whose text already
    appears in the ``prior`` corpus (content anti-join) — the
    arriving-shard shape for a continuously ingested corpus, composing
    with the resumable-output manifest. Same exchange/collision stance
    as exact_dedup: the 8-byte hash only partitions; the in-bucket
    check compares exact texts, so collisions never drop a survivor.
    Returns the surviving ``new`` rows as (id_col, text_col)."""
    from ..exchange import hash_group_apply

    def tag(side):
        def f(tbl: pa.Table) -> pa.Table:
            texts = tbl.column(text_col).to_numpy(zero_copy_only=False)
            h = _hash_pure(texts.astype(object, copy=False))
            return pa.table({
                "__h": pa.array(h, pa.uint64()),
                "side": pa.array(np.full(len(h), side, np.int8)),
                id_col: tbl.column(id_col),
                text_col: tbl.column(text_col),
            })
        return f

    both = (new.map_batches(tag(0), batch_format="pyarrow")
            .union(prior.map_batches(tag(1), batch_format="pyarrow")))

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        prior_texts = set(df.loc[df["side"] == 1, text_col])
        keep = df[(df["side"] == 0) & ~df[text_col].isin(prior_texts)]
        return keep[[id_col, text_col]]

    out_schema = pa.schema([(id_col, pa.int64()),
                            (text_col, pa.large_string())])
    return hash_group_apply(both, ["__h"], bucket, out_schema=out_schema)


# ----------------------------------------------------------------------
# shingling + minhash
# ----------------------------------------------------------------------

_HORNER = np.uint64(1099511628211)
_EMPTY_WORD_HASH: int | None = None


def _empty_shingle() -> np.ndarray:
    global _EMPTY_WORD_HASH
    if _EMPTY_WORD_HASH is None:
        _EMPTY_WORD_HASH = int(
            _hash_pure(np.array([""], dtype=object))[0]) % (1 << 61)
    return np.array([_EMPTY_WORD_HASH], dtype=np.uint64)


def _shingle_hashes_batch(texts: list[str], k: int = 3) -> list[np.ndarray]:
    """Deterministic 61-bit word-k-shingle hashes for a whole batch: one
    Arrow lower+split pass, ONE pandas hash_array pass over every word,
    and a shifted-Horner combine over the flat word-hash array (shingle
    windows never cross doc boundaries because only in-doc positions are
    sliced). <k words → one shingle of the whole word sequence; empty →
    the empty-sequence shingle. This is the hot kernel of every dedup
    operator — no per-word python."""
    import pyarrow.compute as pc_

    n = len(texts)
    if n == 0:
        return []
    col = pc_.utf8_lower(pa.array(texts, pa.large_string()))
    la = pc_.split_pattern_regex(col, r"\s+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.values
    offs = np.asarray(la.offsets, dtype=np.int64)
    wlen = pc_.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = wlen > 0                     # split can yield empty edge tokens
    words = flat.to_numpy(zero_copy_only=False)[keep]
    keep_cum = np.concatenate([[0], np.cumsum(keep)])
    starts = keep_cum[offs[:-1]]
    ends = keep_cum[offs[1:]]
    wh = _hash_pure(words.astype(object)).astype(np.uint64)
    m = len(wh)
    if m >= k:
        acc = wh[: m - k + 1].copy()
        for j in range(1, k):
            acc = acc * _HORNER + wh[j: m - k + 1 + j]  # uint64 wrap = mod
        acc %= np.uint64(_MERSENNE)
    else:
        acc = np.empty(0, np.uint64)
    out: list[np.ndarray] = []
    for d in range(n):
        s, e = int(starts[d]), int(ends[d])
        c = e - s
        if c >= k:
            out.append(acc[s: e - k + 1])
        elif c > 0:
            a = int(wh[s])
            for j in range(s + 1, e):   # python ints: explicit 2^64 wrap
                a = (a * 1099511628211 + int(wh[j])) & 0xFFFFFFFFFFFFFFFF
            out.append(np.array([a % _MERSENNE], np.uint64))
        else:
            out.append(_empty_shingle())
    return out


_SHINGLE_CACHE: dict = {}


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Single-text wrapper over the batch kernel (ONE definition of the
    shingle identity for candidates, verification and tests), memoized —
    brute-force test oracles call it O(n²) times over few texts."""
    key = (text, k)
    v = _SHINGLE_CACHE.get(key)
    if v is None:
        if len(_SHINGLE_CACHE) > 100_000:
            _SHINGLE_CACHE.clear()
        v = _SHINGLE_CACHE[key] = _shingle_hashes_batch([text], k)[0]
    return v


def _minhash_params(n_perm: int, seed: int = 1234):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.uint64)
    return a, b


def _signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(shingles) == 0:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    # (n_perm, n_shingles) universal hash, min per row — vectorized
    x = shingles.astype(np.uint64)
    h = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE
    return h.min(axis=1)


def _band_keys_from_sigs(sigm: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint64 band keys from an (n, n_perm) signature matrix:
    a vectorized Horner-combine + fmix64 avalanche over each band's
    signature chunk — one numpy pass over the whole batch (the previous
    per-(doc, band) blake2b loop was the stage's hot spot). Keys only
    BUCKET candidates; verification is exact, so the key function needs
    mixing quality, not cryptographic strength. Shared verbatim by the
    in-line LSH path and the minhash calibration golden
    (oracle/golden.py), so the two produce identical buckets by
    construction."""
    n, n_perm = sigm.shape
    rows_per_band = n_perm // bands
    view = sigm.reshape(n, bands, rows_per_band)
    acc = view[..., 0].copy()
    for j in range(1, rows_per_band):
        acc = acc * _HORNER + view[..., j]          # uint64 wrap
    acc ^= acc >> np.uint64(33)
    acc *= np.uint64(0xFF51AFD7ED558CCD)
    acc ^= acc >> np.uint64(33)
    return acc


def minhash_lsh_candidates(ds, *, text_col: str = "text", id_col: str = "doc_id",
                           k: int = 3, n_perm: int = 64, bands: int = 16,
                           seed: int = 1234, max_band: int = 8192):
    """Candidate pair Dataset (a, b) with a < b from LSH band collisions."""
    assert n_perm % bands == 0
    a_p, b_p = _minhash_params(n_perm, seed)

    def sig_batch(tbl: pa.Table) -> pa.Table:
        """(doc, band, band_key) rows via the shared band-key kernel."""
        ids = np.asarray(tbl.column(id_col).to_pylist(), dtype=np.int64)
        texts = tbl.column(text_col).to_pylist()
        all_sh = _shingle_hashes_batch(texts, k)
        n = len(ids)
        sigm = np.empty((n, n_perm), np.uint64)
        for i, sh in enumerate(all_sh):
            sigm[i] = _signature(sh, a_p, b_p)
        acc = _band_keys_from_sigs(sigm, bands)
        return pa.table({id_col: pa.array(np.repeat(ids, bands), pa.int64()),
                         "band": pa.array(np.tile(
                             np.arange(bands, dtype=np.int32), n), pa.int32()),
                         "key": pa.array(acc.reshape(-1), pa.uint64())})

    def pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # all rows of each (band, key) group are in this bucket: sort,
        # boundary-scan the numeric keys, pair within groups via the
        # shared offset-arange construction ((doc, band) rows are
        # globally unique, so ids ascend uniquely within a group)
        df = df.sort_values(["band", "key", id_col], kind="mergesort")
        band = df["band"].to_numpy()
        key = df["key"].to_numpy()
        ids = df[id_col].to_numpy()
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        bnd = np.flatnonzero((band[1:] != band[:-1]) | (key[1:] != key[:-1]))
        counts = np.diff(np.concatenate([[0], bnd + 1, [len(df)]]))
        keep = counts <= max_band
        dropped = int((~keep).sum())
        if dropped:
            # stop-band skew guard (the max_posting analog): a band
            # bucket of m docs yields m(m-1)/2 pairs — one hot bucket
            # (near-identical boilerplate corpora) would go quadratic.
            # A true pair is lost only if EVERY shared band overflows.
            logging.getLogger(__name__).warning(
                "minhash_lsh_candidates: dropped %d band buckets "
                "(> %d docs) from candidate generation", dropped, max_band)
        ai, bi = _group_pairs_idx(counts, keep)
        return pd.DataFrame({"a": ids[ai].astype(np.int64),
                             "b": ids[bi].astype(np.int64)})

    from ..exchange import hash_group_apply

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    cands = hash_group_apply(ds.map_batches(sig_batch, batch_format="pyarrow"),
                             ["band", "key"], pairs_bucket,
                             out_schema=pair_schema)
    # distinct pairs (a pair can collide in several bands)
    return hash_group_apply(cands, ["a", "b"],
                            lambda g: g.drop_duplicates(),
                            out_schema=pair_schema)


def _jaccard(t1: str, t2: str, k: int = 3) -> float:
    s1 = set(_shingle_hashes(t1, k).tolist())
    s2 = set(_shingle_hashes(t2, k).tolist())
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / max(1, len(s1 | s2))


# candidate-pair verification join: (did, a, b, sh) — corpus rows carry
# packed shingles with a/b null, request rows carry the pair with sh null
_VERIFY_SCHEMA = pa.schema([("did", pa.int64()), ("a", pa.int64()),
                            ("b", pa.int64()), ("sh", pa.binary())])
_PAIR_J_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("jaccard", pa.float64())])


def verify_pairs_jaccard(ds, cands, *, threshold: float,
                         text_col: str = "text", id_col: str = "doc_id",
                         k: int = 3):
    """Exact word-k-shingle Jaccard over candidate ``(a, b)`` pairs via a
    two-stage hash-exchange join against the corpus by id — nothing ever
    materializes on the driver:

      stage 1 (bucket by doc id): corpus rows carry their packed
        sorted-unique shingle-hash set; each pair requests both sides'
        sets; the per-bucket join attaches sets to requests;
      stage 2 (bucket by pair): the two sides of each pair meet, the
        intersection/union sizes give the exact Jaccard.

    Only candidate-sized data crosses the second exchange; the corpus
    crosses the first once, as packed uint64 shingles (no text)."""
    from ..exchange import hash_group_apply

    def corpus_rows(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_pylist()
        texts = tbl.column(text_col).to_pylist()
        packed = [np.unique(sh).tobytes()
                  for sh in _shingle_hashes_batch(texts, k)]
        n = len(ids)
        # corpus rows use a = b = -1 rather than nulls so the int64 id
        # columns never round-trip through pandas float64 (which would
        # corrupt ids above 2^53); requires non-negative doc ids
        ids = [int(i) for i in ids]
        if ids and min(ids) < 0:
            raise ValueError(
                "verify_pairs_jaccard requires non-negative doc ids "
                "(-1 is the corpus-row sentinel)")
        return pa.table({
            "did": pa.array(ids, pa.int64()),
            "a": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "b": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "sh": pa.array(packed, pa.binary()),
        }, schema=_VERIFY_SCHEMA)

    def request_rows(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").combine_chunks().cast(pa.int64())
        b = tbl.column("b").combine_chunks().cast(pa.int64())
        n = len(tbl)
        did = pa.chunked_array([a, b]).combine_chunks()
        aa = pa.chunked_array([a, a]).combine_chunks()
        bb = pa.chunked_array([b, b]).combine_chunks()
        return pa.table({"did": did, "a": aa, "b": bb,
                         "sh": pa.array([b""] * (2 * n), pa.binary())},
                        schema=_VERIFY_SCHEMA)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        is_corpus = df["a"].to_numpy() < 0
        lut = dict(zip(df.loc[is_corpus, "did"], df.loc[is_corpus, "sh"]))
        req = df.loc[~is_corpus]
        sh = req["did"].map(lut)
        out = pd.DataFrame({
            "did": req["did"].astype("int64"),
            "a": req["a"].astype("int64"),
            "b": req["b"].astype("int64"),
            "sh": sh,
        })
        return out[out["sh"].notna()]

    def pair_jaccard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["a", "b", "did"], kind="mergesort")
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        did = df["did"].to_numpy()
        sh = df["sh"].to_numpy()
        oa, ob, oj = [], [], []
        start = 0
        for i in range(1, len(df) + 1):
            if i == len(df) or a[i] != a[start] or b[i] != b[start]:
                sa = sb = None
                for j in range(start, i):
                    if did[j] == a[start]:
                        sa = np.frombuffer(sh[j], dtype=np.uint64)
                    elif did[j] == b[start]:
                        sb = np.frombuffer(sh[j], dtype=np.uint64)
                if sa is not None and sb is not None:
                    inter = np.intersect1d(sa, sb, assume_unique=True).size
                    jac = inter / max(1, sa.size + sb.size - inter)
                    if jac >= threshold:
                        oa.append(int(a[start]))
                        ob.append(int(b[start]))
                        oj.append(float(jac))
                start = i
        return pd.DataFrame({"a": pd.Series(oa, dtype="int64"),
                             "b": pd.Series(ob, dtype="int64"),
                             "jaccard": pd.Series(oj, dtype="float64")})

    sides = ds.map_batches(corpus_rows, batch_format="pyarrow").union(
        cands.map_batches(request_rows, batch_format="pyarrow"))
    joined = hash_group_apply(sides, ["did"], attach,
                              out_schema=pa.schema(
                                  [("did", pa.int64()), ("a", pa.int64()),
                                   ("b", pa.int64()), ("sh", pa.binary())]))
    return hash_group_apply(joined, ["a", "b"], pair_jaccard,
                            out_schema=_PAIR_J_SCHEMA)


def minhash_lsh_dedup(ds, *, threshold: float = 0.8, text_col: str = "text",
                      id_col: str = "doc_id", k: int = 3, n_perm: int = 64,
                      bands: int = 16):
    """Verified near-dup pairs (a, b, jaccard): LSH candidates whose TRUE
    word-k-shingle Jaccard ≥ threshold. Verification is a hash-exchange
    join of candidate pairs against the corpus by id
    (``verify_pairs_jaccard``) — two streaming passes over the input, no
    driver-side materialization. With n_perm=64 / bands=16 a J≥0.9 pair
    misses every band with probability (1-0.9⁴)¹⁶ ≈ 4e-8, so on fixture
    data the output equals the exact-Jaccard pair set (the DuckDB oracle
    exploits this)."""
    cands = minhash_lsh_candidates(ds, text_col=text_col, id_col=id_col,
                                   k=k, n_perm=n_perm, bands=bands)
    return verify_pairs_jaccard(ds, cands, threshold=threshold,
                                text_col=text_col, id_col=id_col, k=k)


# ----------------------------------------------------------------------
# dedup clusters (connected components over verified near-dup pairs)
# ----------------------------------------------------------------------

def connected_components(pairs, *, max_iters: int = 50):
    """(node, label) for every node appearing in ``pairs`` (a, b) —
    label = min id of the node's connected component. Distributed
    min-label propagation: each round, every edge (u, v) forwards u's
    current label to v through the hash exchange and nodes keep the
    minimum; a round is two streaming exchanges and labels only ever
    decrease, so the monotone label sum gives a cheap fixpoint test.
    Near-dup clusters are near-cliques, so 1-3 rounds converge; the
    worst case is the pair-graph diameter (``max_iters`` bounds it)."""
    import pyarrow.compute as pc_

    from ..exchange import hash_group_apply

    label_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    join_schema = pa.schema([("key", pa.int64()), ("v", pa.int64()),
                             ("label", pa.int64())])

    def to_edges(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").combine_chunks().cast(pa.int64())
        b = tbl.column("b").combine_chunks().cast(pa.int64())
        return pa.table({"u": pa.chunked_array([a, b]).combine_chunks(),
                         "v": pa.chunked_array([b, a]).combine_chunks()})

    # edges are re-read every round — materialize once (pairs-sized)
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    def min_per_node(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("node", sort=False)["label"].min()
                  .reset_index())

    init = edges.map_batches(
        lambda t: pa.table({
            "node": t.column("u"),
            "label": pc_.min_element_wise(t.column("u"), t.column("v"))}),
        batch_format="pyarrow")
    labels = hash_group_apply(init, ["node"], min_per_node,
                              out_schema=label_schema).materialize()
    prev = labels.sum("label")

    def edge_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"key": t.column("u"), "v": t.column("v"),
                         "label": pa.array(np.full(n, -1, np.int64))},
                        schema=join_schema)

    def label_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"key": t.column("node"),
                         "v": pa.array(np.full(n, -1, np.int64)),
                         "label": t.column("label")}, schema=join_schema)

    def forward(df: pd.DataFrame) -> pd.DataFrame:
        """Per key (= node u): forward u's label along each outgoing edge
        and keep u's own label row."""
        is_lab = df["label"].to_numpy() >= 0
        lut = dict(zip(df.loc[is_lab, "key"], df.loc[is_lab, "label"]))
        e = df.loc[~is_lab]
        fwd = e["key"].map(lut)
        return pd.DataFrame({
            "node": pd.concat([e["v"], df.loc[is_lab, "key"]],
                              ignore_index=True).astype("int64"),
            "label": pd.concat([fwd, df.loc[is_lab, "label"]],
                               ignore_index=True).astype("int64"),
        })

    for _ in range(max_iters):
        sides = edges.map_batches(edge_rows, batch_format="pyarrow").union(
            labels.map_batches(label_rows, batch_format="pyarrow"))
        sent = hash_group_apply(sides, ["key"], forward,
                                out_schema=label_schema)
        labels = hash_group_apply(sent, ["node"], min_per_node,
                                  out_schema=label_schema).materialize()
        cur = labels.sum("label")
        if cur == prev:         # labels only decrease → sum is a fixpoint
            break
        prev = cur
    return labels


def dedup_cluster_reps(ds, *, threshold: float = 0.9, text_col: str = "text",
                       id_col: str = "doc_id", k: int = 3, n_perm: int = 64,
                       bands: int = 16):
    """(doc_id, rep) for EVERY document: rep = the smallest doc id in the
    document's transitive near-duplicate cluster (verified MinHash-LSH
    pairs at ``threshold``), or the doc itself when it has no near-dup —
    the keep-one-per-cluster step of a training-data dedup pipeline.
    The rep attach is an exchange join of the corpus ids against the
    component labels (ids only — text never moves), so nothing
    materializes on the driver at any corpus size."""
    from ..exchange import hash_group_apply

    pairs = minhash_lsh_dedup(ds, threshold=threshold, text_col=text_col,
                              id_col=id_col, k=k, n_perm=n_perm, bands=bands)
    comp = connected_components(pairs)

    out_schema = pa.schema([(id_col, pa.int64()), ("rep", pa.int64())])
    join_schema = pa.schema([("key", pa.int64()), ("label", pa.int64())])

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks().cast(pa.int64())
        return pa.table({"key": ids,
                         "label": pa.array(np.full(len(t), -1, np.int64))},
                        schema=join_schema)

    def comp_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("node"), "label": t.column("label")},
                        schema=join_schema)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        is_lab = df["label"].to_numpy() >= 0
        lut = dict(zip(df.loc[is_lab, "key"], df.loc[is_lab, "label"]))
        docs = df.loc[~is_lab, "key"]
        return pd.DataFrame({
            id_col: docs.astype("int64"),
            "rep": docs.map(lambda x: lut.get(x, x)).astype("int64"),
        })

    slim = ds.map_batches(doc_rows, batch_format="pyarrow")
    sides = slim.union(comp.map_batches(comp_rows, batch_format="pyarrow"))
    return hash_group_apply(sides, ["key"], attach, out_schema=out_schema)


def dedup_cluster_best(ds, *, threshold: float = 0.9, text_col: str = "text",
                       id_col: str = "doc_id", k: int = 3, n_perm: int = 64,
                       bands: int = 16, quality_col: str | None = None):
    """Quality-aware dedup ACTION: one (doc_id, quality) row per near-dup
    cluster, keeping the HIGHEST-quality member (ties → lowest doc id)
    instead of ``dedup_cluster_reps``'s lowest-id convention — what a
    curation pipeline actually wants when duplicates differ in quality
    (the canonical copy of a boilerplate page is usually not the one
    with the smallest id). Quality is ``quality_col`` if given (an
    int64 column already on ``ds``), else the exact utf-8 char count of
    ``text_col`` — an exact-integer key, so the argmax is tie-stable
    under any block layout.

    Shape: cluster labels from the pairs exchange (ids only), one
    exchange join to attach quality, then ``group_topk(k=1)`` per
    cluster — its per-batch partial keeps at most one row per cluster
    per block, so the final exchange carries ≤ one row per (cluster ×
    block) no matter how large the clusters are. Text never moves."""
    import pyarrow.compute as pc

    from .curate import group_topk
    from .joins import hash_join

    reps = dedup_cluster_reps(ds, threshold=threshold, text_col=text_col,
                              id_col=id_col, k=k, n_perm=n_perm, bands=bands)

    def qual(t: pa.Table) -> pa.Table:
        q = (t.column(quality_col).combine_chunks().cast(pa.int64())
             if quality_col is not None else
             pc.cast(pc.utf8_length(t.column(text_col)), pa.int64()))
        return pa.table({id_col: t.column(id_col).combine_chunks()
                         .cast(pa.int64()), "q": q})

    j = hash_join(reps, ds.map_batches(qual, batch_format="pyarrow"),
                  on=id_col, left_cols=["rep"], right_cols=["q"])
    best = group_topk(j, key_col="rep", order_col="r_q", k=1, id_col=id_col)
    return best.map_batches(
        lambda t: pa.table({id_col: t.column(id_col),
                            "quality": t.column("r_q")}),
        batch_format="pyarrow")


# ----------------------------------------------------------------------
# Content-defined chunking (CDC): sub-document dedup at byte granularity
# ----------------------------------------------------------------------
#
# Gear-hash CDC (the FastCDC/LBFS family): boundaries move WITH content,
# so an insertion early in a document only re-chunks the surrounding
# window instead of shifting every fixed-size block — the property that
# makes chunk-hash dedup robust where fixed windows are not. Spec
# (replayed per byte by oracle/golden.py::write_golden_cdc):
#   GEAR[b]  = SplitMix64(b + 1)                      (256 constants)
#   h_j      = (h_{j-1} * 2 + GEAR[byte_j]) mod 2^64  (h starts 0/doc)
#   candidate cut AFTER byte j  iff  h_j & (2^bits - 1) == 0
#   walk: cut at a candidate only if the chunk reaches min_size; force
#   a cut whenever a chunk would exceed max_size; the final partial
#   chunk is kept regardless of min_size.
#   chunk id = pd.util.hash_array of the chunk's raw bytes.

CDC_PAD = 32     # >= bits-1 zero-gear bytes between docs in the flat pass


def _gear_table() -> np.ndarray:
    from .hashing import _splitmix64

    return _splitmix64(np.arange(1, 257, dtype=np.uint64))


def _utf8_flat(col: pa.ChunkedArray):
    """Zero-copy view of a string column as one flat uint8 array plus
    per-row int64 [start, end) offsets."""
    arr = col.combine_chunks().cast(pa.large_utf8())
    offs = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    return data, offs


def _cdc_cuts(cand_local: np.ndarray, n: int, min_size: int,
              max_size: int) -> list[int]:
    """Cut positions (exclusive ends) for one doc of n bytes given its
    sorted candidate cut positions — the sequential min/max walk of the
    spec (cheap: it visits CANDIDATES, not bytes)."""
    cuts: list[int] = []
    start = 0
    for c in cand_local:
        while c - start > max_size:
            start += max_size
            cuts.append(start)
        if c - start >= min_size:
            start = c
            cuts.append(start)
    while n - start > max_size:
        start += max_size
        cuts.append(start)
    if n > start:
        cuts.append(n)
    return cuts


def _cdc_occurrences(bits: int, min_size: int, max_size: int,
                     text_col: str, id_col: str):
    """Factory for the shared CDC batch kernel: returns (occ_schema,
    chunks) where ``chunks`` maps a batch to one row per DISTINCT
    (chunk_hash, doc) with in-doc position count + byte sum. Candidate
    cuts come from ``bits`` shifted-add passes over the batch's flat
    utf-8 buffer (h mod 2^bits needs only the low ``bits`` gear terms;
    docs are isolated by CDC_PAD zero-gear bytes so the windowed sum
    never crosses a doc start); the per-doc min/max walk visits
    CANDIDATES, not bytes. Text never leaves the task."""
    if not (0 < bits <= CDC_PAD):
        raise ValueError(f"bits must be in (0, {CDC_PAD}]")
    if not (0 < min_size <= max_size):
        raise ValueError("need 0 < min_size <= max_size")
    gear = _gear_table()
    mask = np.uint64((1 << bits) - 1)
    occ_schema = pa.schema([("g", pa.uint64()), (id_col, pa.int64()),
                            ("npos", pa.int64()), ("bsum", pa.int64())])

    def chunks(tbl: pa.Table) -> pa.Table:
        data, offs = _utf8_flat(tbl.column(text_col))
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        nd = len(offs) - 1
        lens = np.diff(offs)
        if nd == 0 or lens.sum() == 0:
            return occ_schema.empty_table()
        # padded flat gear array: doc d starts at offs[d] + CDC_PAD*(d+1)
        tot = int(offs[-1]) + CDC_PAD * nd
        G = np.zeros(tot, np.uint64)
        ppos = (np.arange(len(data))
                + np.repeat(CDC_PAD * (np.arange(nd) + 1), lens))
        G[ppos] = gear[data]
        hm = np.zeros(tot, np.uint64)
        with np.errstate(over="ignore"):
            for s in range(bits):
                hm[s:] += G[:tot - s] << np.uint64(s)
        cand = np.nonzero((hm & mask) == 0)[0]
        # keep only candidates inside docs, map to (doc, local cut pos)
        starts = offs[:-1] + CDC_PAD * (np.arange(nd) + 1)
        d_of = np.searchsorted(starts, cand, side="right") - 1
        ok = d_of >= 0
        local = cand[ok] - starts[d_of[ok]] + 1        # cut AFTER byte
        d_of = d_of[ok]
        ok2 = local <= lens[d_of]                      # not in the pad
        local, d_of = local[ok2], d_of[ok2]
        per_doc = np.split(local, np.searchsorted(d_of, np.arange(1, nd)))
        blobs, bdoc, blen = [], [], []
        for d in range(nd):
            n = int(lens[d])
            if n == 0:
                continue
            s0 = int(offs[d])
            prev = 0
            for c in _cdc_cuts(per_doc[d], n, min_size, max_size):
                blobs.append(data[s0 + prev:s0 + c].tobytes())
                bdoc.append(ids[d])
                blen.append(c - prev)
                prev = c
        gh = _hash_pure(np.array(blobs, dtype=object))
        df = (pd.DataFrame({"g": gh.astype(np.uint64),
                            id_col: np.array(bdoc, np.int64),
                            "npos": 1,
                            "bsum": np.array(blen, np.int64)})
              .groupby(["g", id_col], sort=False, as_index=False)
              .agg(npos=("npos", "sum"), bsum=("bsum", "sum")))
        return pa.Table.from_pandas(
            df, schema=occ_schema,
            preserve_index=False).replace_schema_metadata(None)

    return occ_schema, chunks


def cdc_chunk_stats(ds, *, bits: int = 6, min_size: int = 32,
                    max_size: int = 256, text_col: str = "text",
                    id_col: str = "doc_id"):
    """Per-document duplicated-CHUNK stats under content-defined
    chunking: (doc_id, n_chunks, n_bytes, n_dup_chunks, n_dup_bytes),
    a chunk counting as duplicated iff its byte hash occurs in >= 2
    DISTINCT documents (the cross_doc_dup stance, at byte granularity).

    Distributed shape: the shared ``_cdc_occurrences`` kernel emits one
    32-byte row per DISTINCT (chunk_hash, doc); one exchange on
    chunk_hash marks cross-doc survivors while forwarding every row's
    totals, one exchange on doc sums — the cross_doc_dup two-exchange
    shape. Totals need no extra text pass: chunks partition the doc,
    so n_bytes = sum of chunk lengths."""
    from ..exchange import hash_group_apply

    occ_schema, chunks = _cdc_occurrences(bits, min_size, max_size,
                                          text_col, id_col)
    stat_schema = pa.schema([(id_col, pa.int64()),
                             ("n_chunks", pa.int64()),
                             ("n_bytes", pa.int64()),
                             ("n_dup_chunks", pa.int64()),
                             ("n_dup_bytes", pa.int64())])

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.groupby("g", sort=False)[id_col].transform("nunique")
        dup = (nd >= 2).to_numpy()
        return pd.DataFrame({
            id_col: df[id_col],
            "n_chunks": df["npos"],
            "n_bytes": df["bsum"],
            "n_dup_chunks": np.where(dup, df["npos"], 0),
            "n_dup_bytes": np.where(dup, df["bsum"], 0)})

    occ = ds.map_batches(chunks, batch_format="pyarrow", batch_size=4096)
    marked = hash_group_apply(occ, ["g"], mark, out_schema=stat_schema)

    def zeros(tbl: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(len(tbl), np.int64))
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         "n_chunks": z, "n_bytes": z,
                         "n_dup_chunks": z, "n_dup_bytes": z})

    z = ds.map_batches(zeros, batch_format="pyarrow")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False, as_index=False).sum()
        return g

    return hash_group_apply(marked.union(z), [id_col], combine,
                            out_schema=stat_schema)


def cdc_chunk_hashes(ds, *, bits: int = 6, min_size: int = 32,
                     max_size: int = 256, text_col: str = "text",
                     id_col: str = "doc_id"):
    """DISTINCT CDC chunk hashes of a corpus, as a Dataset with one
    uint64 ``g`` column — the prior-corpus snapshot
    ``cdc_coverage_vs_prior`` consumes (write it with ``write_parquet``
    between crawls; 8 bytes per distinct chunk, no text)."""
    from ..exchange import hash_group_apply

    _, chunks = _cdc_occurrences(bits, min_size, max_size,
                                 text_col, id_col)
    g_schema = pa.schema([("g", pa.uint64())])
    occ = ds.map_batches(chunks, batch_format="pyarrow", batch_size=4096)
    return hash_group_apply(
        occ.map_batches(lambda t: t.select(["g"]), batch_format="pyarrow"),
        ["g"], lambda df: df.drop_duplicates(), out_schema=g_schema)


def cdc_coverage_vs_prior(ds, prior, *, bits: int = 6, min_size: int = 32,
                          max_size: int = 256, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Incremental-crawl coverage at sub-document granularity: for each
    NEW document, (doc_id, n_chunks, n_bytes, cov_chunks, cov_bytes)
    where a chunk is covered iff its CDC hash exists in the PRIOR
    corpus's chunk-hash set — ``dedup_against_prior`` generalized below
    whole-doc identity: a re-crawled page with one new paragraph shows
    ~90% covered bytes instead of "not a duplicate". Filter on
    cov_bytes/n_bytes for the keep/drop ACTION.

    ``prior`` is a Dataset with a uint64 ``g`` column
    (``cdc_chunk_hashes`` output, usually ``read_parquet`` of a saved
    snapshot). Shape: new docs' (g, doc, npos, bsum) rows union
    prior (g, id=-1) rows through ONE exchange on g (the prior side is
    ids-only — 8 bytes/chunk, deduped map-side); covered new rows
    forward their totals, a second exchange on doc sums. The prior set
    never broadcasts and never sits on the driver — the scale path for
    a prior corpus with billions of distinct chunks."""
    from ..exchange import hash_group_apply

    occ_schema, chunks = _cdc_occurrences(bits, min_size, max_size,
                                          text_col, id_col)

    def prior_rows(tbl: pa.Table) -> pa.Table:
        g = tbl.column("g").combine_chunks().cast(pa.uint64())
        import pyarrow.compute as pac
        g = pac.unique(g)
        n = len(g)
        return pa.table({"g": g,
                         id_col: pa.array(np.full(n, -1, np.int64)),
                         "npos": pa.array(np.zeros(n, np.int64)),
                         "bsum": pa.array(np.zeros(n, np.int64))},
                        schema=occ_schema)

    cov_schema = pa.schema([(id_col, pa.int64()),
                            ("n_chunks", pa.int64()),
                            ("n_bytes", pa.int64()),
                            ("cov_chunks", pa.int64()),
                            ("cov_bytes", pa.int64())])

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        in_prior = df.loc[ids < 0, "g"]
        prior_set = set(in_prior.tolist())
        new = df.loc[ids >= 0]
        cov = new["g"].isin(prior_set).to_numpy()
        return pd.DataFrame({
            id_col: new[id_col],
            "n_chunks": new["npos"],
            "n_bytes": new["bsum"],
            "cov_chunks": np.where(cov, new["npos"], 0),
            "cov_bytes": np.where(cov, new["bsum"], 0)})

    occ = ds.map_batches(chunks, batch_format="pyarrow", batch_size=4096)
    sides = occ.union(prior.map_batches(prior_rows,
                                        batch_format="pyarrow"))
    marked = hash_group_apply(sides, ["g"], mark, out_schema=cov_schema)

    def zeros(tbl: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(len(tbl), np.int64))
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         "n_chunks": z, "n_bytes": z,
                         "cov_chunks": z, "cov_bytes": z})

    z = ds.map_batches(zeros, batch_format="pyarrow")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(id_col, sort=False, as_index=False).sum()

    return hash_group_apply(marked.union(z), [id_col], combine,
                            out_schema=cov_schema)


def minhash_join(ds_a, ds_b, *, threshold: float = 0.8,
                 text_col: str = "text", id_col: str = "doc_id",
                 k: int = 3, n_perm: int = 64, bands: int = 16,
                 seed: int = 1234, max_band: int = 8192):
    """Bipartite verified near-dup JOIN: pairs (a ∈ ds_a, b ∈ ds_b,
    jaccard ≥ threshold) — fuzzy decontamination / cross-corpus
    contamination audit (``decontaminate`` catches exact shingle
    overlap; this catches paraphrase-level near-dups between a corpus
    and an eval set or between two crawls). Ids must be disjoint
    across the two inputs (the verify join keys on id).

    Shape: both sides run the ``minhash_lsh_candidates`` signature
    stage with a side tag; candidates come ONLY from cross-side band
    collisions (within-side pairs never materialize — on two mostly
    self-similar corpora that is the bulk of the quadratic work
    avoided), built with the offset-arange construction and the
    ``max_band`` skew guard; exact verification reuses the
    two-exchange ``verify_pairs_jaccard`` over the tagged union."""
    assert n_perm % bands == 0
    rows_per_band = n_perm // bands
    a_p, b_p = _minhash_params(n_perm, seed)

    def make_sig(side: int):
        def sig_batch(tbl: pa.Table) -> pa.Table:
            ids = np.asarray(tbl.column(id_col).to_pylist(),
                             dtype=np.int64)
            texts = tbl.column(text_col).to_pylist()
            all_sh = _shingle_hashes_batch(texts, k)
            n = len(ids)
            sigm = np.empty((n, n_perm), np.uint64)
            for i, sh in enumerate(all_sh):
                sigm[i] = _signature(sh, a_p, b_p)
            view = sigm.reshape(n, bands, rows_per_band)
            with np.errstate(over="ignore"):
                acc = view[..., 0].copy()
                for j in range(1, rows_per_band):
                    acc = acc * _HORNER + view[..., j]
                acc ^= acc >> np.uint64(33)
                acc *= np.uint64(0xFF51AFD7ED558CCD)
                acc ^= acc >> np.uint64(33)
            return pa.table({
                id_col: pa.array(np.repeat(ids, bands), pa.int64()),
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                         n), pa.int32()),
                "key": pa.array(acc.reshape(-1), pa.uint64()),
                "side": pa.array(np.full(n * bands, side, np.int8))})
        return sig_batch

    def pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # cross-side pairs only: sort (band, key, side, id); per group
        # the side-0 prefix drives one repeat + offset-arange gather
        # into the side-1 suffix
        df = df.sort_values(["band", "key", "side", id_col],
                            kind="mergesort")
        band = df["band"].to_numpy()
        key = df["key"].to_numpy()
        side = df["side"].to_numpy()
        ids = df[id_col].to_numpy()
        empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        bnd = np.flatnonzero((band[1:] != band[:-1]) | (key[1:] != key[:-1]))
        counts = np.diff(np.concatenate([[0], bnd + 1, [len(df)]]))
        starts = np.concatenate([[0], bnd + 1])
        n0 = np.add.reduceat((side == 0).astype(np.int64), starts)
        n1 = counts - n0
        keep = counts <= max_band
        dropped = int((~keep).sum())
        if dropped:
            logging.getLogger(__name__).warning(
                "minhash_join: dropped %d band buckets (> %d docs) "
                "from candidate generation", dropped, max_band)
        gid = np.repeat(np.arange(len(starts)), counts)
        row_ok = keep[gid] & (side == 0) & (n1[gid] > 0)
        pr = np.flatnonzero(row_ok)
        if not len(pr):
            return empty
        nb = n1[gid[pr]]
        a = np.repeat(ids[pr], nb)
        off = np.concatenate([[0], np.cumsum(nb)[:-1]])
        b_idx = (np.arange(nb.sum()) - np.repeat(off, nb)
                 + np.repeat(starts[gid[pr]] + n0[gid[pr]], nb))
        return pd.DataFrame({"a": a.astype(np.int64),
                             "b": ids[b_idx].astype(np.int64)})

    from ..exchange import hash_group_apply

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    sides = ds_a.map_batches(make_sig(0), batch_format="pyarrow").union(
        ds_b.map_batches(make_sig(1), batch_format="pyarrow"))
    cands = hash_group_apply(sides, ["band", "key"], pairs_bucket,
                             out_schema=pair_schema)
    cands = hash_group_apply(cands, ["a", "b"],
                             lambda g: g.drop_duplicates(),
                             out_schema=pair_schema)
    return verify_pairs_jaccard(ds_a.union(ds_b), cands,
                                threshold=threshold, text_col=text_col,
                                id_col=id_col, k=k)


def normalize_text_col(ds, *, text_col: str = "text",
                       out_col: str = "norm_text"):
    """Append a normalized-text column: NFC → lowercase → collapse
    whitespace runs to one space → trim, all as vectorized Arrow/RE2
    kernels (utf8proc under the hood). The canonicalization step in
    front of exact dedup so case/whitespace/unicode-composition
    variants collapse. KNOWN utf8proc-vs-DuckDB divergence: lowercase
    of dotted capital I (U+0130) — utf8proc yields i + combining dot,
    DuckDB bare i; the SQL-oracle gate holds on the fixture corpus and
    the divergence is pinned by a test."""
    import pyarrow.compute as pc_

    def f(tbl: pa.Table) -> pa.Table:
        col = tbl.column(text_col).cast(pa.large_string())
        n = pc_.utf8_trim_whitespace(pc_.replace_substring_regex(
            pc_.utf8_lower(pc_.utf8_normalize(col, form="NFC")),
            r"\s+", " "))
        return tbl.append_column(out_col, n)

    return ds.map_batches(f, batch_format="pyarrow")


def exact_dedup_normalized(ds, *, text_col: str = "text",
                           id_col: str = "doc_id"):
    """Exact dedup on NORMALIZED text: keep the smallest id per
    distinct canonical form (``normalize_text_col`` ∘ ``exact_dedup``)
    — catches the case/whitespace/composition near-variants plain
    exact dedup misses, at exact-dedup cost (the normalized hash
    partitions the exchange; in-bucket compares are exact on the
    normalized strings)."""
    out = exact_dedup(normalize_text_col(ds, text_col=text_col),
                      text_col="norm_text", id_col=id_col)
    return out.map_batches(lambda t: t.drop_columns(["norm_text"]),
                           batch_format="pyarrow")


def fuzzy_dedup_against_prior(new, prior, *, threshold: float = 0.9,
                              text_col: str = "text",
                              id_col: str = "doc_id"):
    """Incremental FUZZY dedup for a crawl: drop new docs that are
    near-duplicates (verified Jaccard ≥ threshold) of ANY prior-corpus
    doc — the minhash analog of ``dedup_against_prior``'s exact hash
    anti-join. Cross-side-only candidates via ``minhash_join`` (within-
    side pairs never materialize), then one id-keyed anti-join exchange:
    survivors are new ids with no verified prior match. Returns a
    Dataset (id_col) of surviving NEW ids."""
    from ..exchange import hash_group_apply

    pairs = minhash_join(prior, new, threshold=threshold,
                         text_col=text_col, id_col=id_col)

    def new_ids(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         "side": pa.array([0] * tbl.num_rows, pa.int8())})

    def dropped_ids(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column("b").cast(pa.int64()),
                         "side": pa.array([1] * tbl.num_rows, pa.int8())})

    tagged = new.map_batches(new_ids, batch_format="pyarrow").union(
        pairs.map_batches(dropped_ids, batch_format="pyarrow"))

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False)["side"].max().reset_index()
        return g[g["side"] == 0][[id_col]]

    schema = pa.schema([(id_col, pa.int64())])
    return hash_group_apply(tagged, [id_col], bucket, out_schema=schema)


def _lev_block(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distances for aligned word arrays — full DP
    with the PAIR axis vectorized (the classic j-recurrence is
    inherently sequential, so pairs are the wide numpy axis and the
    cell loops are over max word lengths only). Distances are over
    UTF-8 bytes, which equals character edit distance for the ASCII
    ``[a-z0-9_]`` vocabulary feeding it (mirrors DuckDB levenshtein)."""
    P = len(wa)
    if P == 0:
        return np.empty(0, np.int64)
    la = np.array([len(w) for w in wa], np.int64)
    lb = np.array([len(w) for w in wb], np.int64)
    maxa, maxb = int(la.max()), int(lb.max())
    A = np.zeros((P, max(maxa, 1)), np.uint8)
    B = np.zeros((P, max(maxb, 1)), np.uint8)
    if maxa:
        A[:] = wa.astype(f"S{maxa}")[:, None].view(np.uint8)
    if maxb:
        B[:] = wb.astype(f"S{maxb}")[:, None].view(np.uint8)
    dist = np.where(la == 0, lb, np.int64(-1))
    prev = np.tile(np.arange(maxb + 1, dtype=np.int64), (P, 1))
    cur = np.empty_like(prev)
    for i in range(1, maxa + 1):
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, maxb + 1):
            sub = prev[:, j - 1] + (ai != B[:, j - 1])
            np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1, out=cur[:, j])
            np.minimum(cur[:, j], sub, out=cur[:, j])
        done = la == i
        if done.any():
            dist[done] = cur[done, lb[done]]
        prev, cur = cur, prev
    return dist


def _del_variant_rows(words: np.ndarray, k: int, max_word: int):
    """SymSpell deletion-neighborhood keys, vectorized per length
    group: every word emits the uint64 hash of each distinct string
    reachable by deleting ≤ k characters (itself included; ≤ 1 + L +
    L(L-1)/2 keys at k=2). Words longer than ``max_word`` skip the
    deletion fan-out (quadratic in L) and instead post LENGTH-bucket
    keys ℓ-k..ℓ; every word with L ≥ max_word - k + 1 posts them too,
    so any pair with a long side still shares a key (|Δlen| ≤ k is
    implied by lev ≤ k). Returns (key_hash uint64, word_idx int64) —
    candidate keys only ever bucket; verification is exact."""
    from ..exchange import hash_array_pure

    lens = np.array([len(w) for w in words], np.int64)
    out_h: list[np.ndarray] = []
    out_i: list[np.ndarray] = []

    def emit(byte_arr: np.ndarray, idx: np.ndarray):
        out_h.append(hash_array_pure(byte_arr.astype(object))
                     .astype(np.uint64))
        out_i.append(idx)

    for L in np.unique(lens):
        L = int(L)
        sel = np.flatnonzero(lens == L)
        grp = words[sel].astype(f"S{max(L, 1)}")
        emit(grp, sel)                                   # d = 0
        if L == 0 or L > max_word:
            continue
        mat = grp[:, None].view(np.uint8).reshape(len(sel), -1)[:, :L]
        cols = np.arange(L)
        for d in range(1, min(k, L) + 1):
            width = L - d
            for drop in itertools.combinations(range(L), d):
                keep_cols = np.delete(cols, list(drop))
                if width == 0:
                    emit(np.full(len(sel), b"", object), sel)
                    continue
                sub = np.ascontiguousarray(mat[:, keep_cols])
                emit(sub.view(f"S{width}").ravel(), sel)
    # length-bucket keys for the long-word path (\xff prefix cannot
    # collide with a variant of the ASCII tokenizer alphabet)
    near_long = np.flatnonzero(lens >= max(max_word - k + 1, 1))
    for off in range(k + 1):
        lk = np.array([b"\xff" + int(v).to_bytes(8, "big")
                       for v in np.maximum(lens[near_long] - off, 0)],
                      object)
        emit(lk, near_long)
    h = np.concatenate(out_h) if out_h else np.empty(0, np.uint64)
    i = np.concatenate(out_i).astype(np.int64) if out_i else \
        np.empty(0, np.int64)
    # dedupe (key, word): repeated-char deletions and clipped length
    # buckets produce duplicate postings of one word
    order = np.lexsort((i, h))
    hh, ii = h[order], i[order]
    keep = np.ones(len(hh), bool)
    keep[1:] = (hh[1:] != hh[:-1]) | (ii[1:] != ii[:-1])
    return hh[keep], ii[keep]


def vocab_edit_pairs(ds, *, k: int = 2, text_col: str = "text",
                     max_word: int = 48, max_posting: int = 4096):
    """Edit-distance similarity self-join over the corpus VOCABULARY:
    every distinct-word pair (w1 < w2 bytewise) at Levenshtein distance
    ≤ ``k``, with the exact distance. The spell-cluster / typo-merge
    primitive (SymSpell deletion neighborhoods, Navarro 2001 survey
    shapes): if lev(a,b) = d ≤ k, the aligned non-matched characters
    give a common string reachable by ≤ d deletions from EACH side, so
    grouping by ≤k-deletion variants is a strict candidate superset and
    the in-bucket DP verify makes the result exact.

    Scale shape: stage 1 reduces the corpus to its vocabulary (per-batch
    distinct (hash, word) rows through the word-keyed exchange — one row
    per distinct word per batch, never per occurrence); stage 2 is
    vocabulary-sized: ~(1 + L + L²/2) 8-byte keys per word cross the
    variant exchange, candidate buckets pair via the shared
    offset-arange construction under the ``max_posting`` skew cap, and
    the exact DP runs vectorized across each bucket's pair axis. A
    final pair-keyed exchange dedups multi-variant hits. Nothing is
    corpus-sized past stage 1; nothing materializes on the driver."""
    from ..exchange import hash_group_apply

    def vocab_parts(tbl: pa.Table) -> pa.Table:
        from .textstats import _words_flat

        _, _, _, wh, ws = _words_flat(tbl.column(text_col))
        if len(wh):
            order = np.argsort(wh, kind="mergesort")
            first = np.ones(len(wh), bool)
            first[1:] = wh[order][1:] != wh[order][:-1]
            sel = order[first]
            return pa.table({"h": pa.array(wh[sel], pa.uint64()),
                             "w": pa.array(ws[sel], pa.large_string())})
        return pa.table({"h": pa.array([], pa.uint64()),
                         "w": pa.array([], pa.large_string())})

    vocab_schema = pa.schema([("w", pa.large_string())])

    def vocab_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["w"])[["w"]]

    vocab = hash_group_apply(
        ds.map_batches(vocab_parts, batch_format="pyarrow",
                       batch_size=65536),
        ["h"], vocab_bucket, out_schema=vocab_schema)

    def variant_rows(tbl: pa.Table) -> pa.Table:
        ws = tbl.column("w").to_numpy(zero_copy_only=False).astype(object)
        hh, ii = _del_variant_rows(ws, k, max_word)
        return pa.table({"kh": pa.array(hh, pa.uint64()),
                         "w": pa.array(ws[ii], pa.large_string())})

    pair_schema = pa.schema([("w1", pa.large_string()),
                             ("w2", pa.large_string()),
                             ("dist", pa.int64())])

    def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"w1": pd.Series([], dtype=object),
                              "w2": pd.Series([], dtype=object),
                              "dist": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        df = df.sort_values(["kh", "w"], kind="mergesort")
        kh = df["kh"].to_numpy()
        ws = df["w"].to_numpy()
        bnd = np.flatnonzero(kh[1:] != kh[:-1])
        counts = np.diff(np.concatenate([[0], bnd + 1, [len(df)]]))
        keep = counts <= max_posting
        dropped = int((~keep).sum())
        if dropped:
            logging.getLogger(__name__).warning(
                "vocab_edit_pairs: dropped %d variant buckets (> %d "
                "words) from candidate generation", dropped, max_posting)
        ai, bi = _group_pairs_idx(counts, keep)
        if not len(ai):
            return empty
        wa, wb = ws[ai], ws[bi]
        lens_a = np.array([len(x) for x in wa], np.int64)
        lens_b = np.array([len(x) for x in wb], np.int64)
        near = (np.abs(lens_a - lens_b) <= k) & (wa != wb)
        wa, wb = wa[near], wb[near]
        if not len(wa):
            return empty
        dist = _lev_block(wa, wb)
        ok = dist <= k
        # in-group sort is ascending by w, so ai < bi gives w1 < w2
        return pd.DataFrame({"w1": wa[ok], "w2": wb[ok],
                             "dist": dist[ok]})

    cands = hash_group_apply(
        vocab.map_batches(variant_rows, batch_format="pyarrow"),
        ["kh"], verify_bucket, out_schema=pair_schema)
    return hash_group_apply(
        cands, ["w1", "w2"], lambda g: g.drop_duplicates(
            subset=["w1", "w2"]),
        out_schema=pair_schema)


def source_dup_report(ds, *, threshold: float = 0.9,
                      text_col: str = "text", id_col: str = "doc_id",
                      source_col: str = "source"):
    """Per-source near-duplicate contamination report: every doc's
    transitive near-dup cluster rep (``dedup_cluster_reps``) joins its
    source, and each source reports (source, n_docs, n_dup, dup_ratio)
    where n_dup = docs that are NOT their cluster's representative —
    exactly the rows the keep-one-per-cluster ACTION would drop, so
    dup_ratio is the fraction of the source a dedup pass deletes (the
    which-source-is-polluted audit that decides mixing weights).
    dup_ratio = one int/int IEEE division.

    Shape: the rep attach and the source attach are both id-keyed
    exchanges (ids only — text crosses once, inside the minhash
    candidate stage); per-batch partial counts per source fold
    driver-side (≤ |sources| rows per batch)."""
    import pandas as pd

    from .joins import hash_join

    reps = dedup_cluster_reps(ds, threshold=threshold, text_col=text_col,
                              id_col=id_col)

    def src_rows(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column(id_col).combine_chunks()
                         .cast(pa.int64()),
                         source_col: tbl.column(source_col)})

    src = ds.map_batches(src_rows, batch_format="pyarrow")
    j = hash_join(reps, src, on=id_col, left_cols=["rep"],
                  right_cols=[source_col])
    scol = "r_" + source_col

    def part(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        dup = (df[id_col] != df["rep"]).astype(np.int64)
        g = (pd.DataFrame({source_col: df[scol], "dup": dup})
             .groupby(source_col, sort=False)
             .agg(n_docs=("dup", "size"), n_dup=("dup", "sum"))
             .reset_index())
        return pa.table({source_col: pa.array(g[source_col], pa.string()),
                         "n_docs": pa.array(g["n_docs"].to_numpy(np.int64)),
                         "n_dup": pa.array(g["n_dup"].to_numpy(np.int64))})

    parts = (j.map_batches(part, batch_format="pyarrow",
                           batch_size=65536).to_pandas())
    if parts.empty:
        return pd.DataFrame({source_col: pd.Series([], dtype="object"),
                             "n_docs": pd.Series([], dtype="int64"),
                             "n_dup": pd.Series([], dtype="int64"),
                             "dup_ratio": pd.Series([], dtype="float64")})
    out = (parts.groupby(source_col, as_index=False)
           .agg(n_docs=("n_docs", "sum"), n_dup=("n_dup", "sum"))
           .astype({"n_docs": "int64", "n_dup": "int64"}))
    out["dup_ratio"] = out["n_dup"].to_numpy(np.float64) \
        / out["n_docs"].to_numpy(np.float64)
    return out.sort_values(source_col).reset_index(drop=True)


def dup_growth(ds, edges, *, text_col: str = "text",
               id_col: str = "doc_id", ids_ds=None):
    """Dedup ROI curve: for each id checkpoint ``edges[i]`` (ascending
    int64), how many of the docs with id ≤ edge are exact duplicates of
    an earlier-id doc — the "how fast does duplication accumulate as
    the corpus grows" diagnostic that sizes a dedup stage's win before
    running it. Returns (i, edge, n_docs, n_unique, n_dups).

    Shape: the exact_dedup exchange (8-byte content hash partitions,
    within-bucket exact text compare) reduced per bucket to ONE
    |edges|-sized row of cumulative first-occurrence counts (sorted
    min-ids searchsorted against the edge vector); a separate id-only
    column scan histograms total docs per edge. Both folds are
    |edges| × buckets tables — text crosses the wire exactly once, the
    driver never sees ids. Pass ``ids_ds`` (an id-only scan of the
    same table) so the totals pass reads one int column instead of
    re-executing the text read."""
    from ..exchange import hash_group_apply

    edges = np.asarray(edges, dtype=np.int64)
    assert (np.diff(edges) >= 0).all()
    n_e = len(edges)

    def add_hash(tbl: pa.Table) -> pa.Table:
        texts = tbl.column(text_col).to_numpy(zero_copy_only=False)
        h = _hash_pure(texts.astype(object, copy=False))
        return pa.table({id_col: tbl.column(id_col),
                         text_col: tbl.column(text_col),
                         "__h": pa.array(h, pa.uint64())})

    schema = pa.schema([("i", pa.int64()), ("n_unique", pa.int64())])

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        fid = (g.groupby(text_col, sort=False)[id_col].min()
               .to_numpy(np.int64))
        fid.sort()
        return pd.DataFrame({
            "i": np.arange(n_e, dtype=np.int64),
            "n_unique": np.searchsorted(fid, edges, side="right")
                          .astype(np.int64)})

    uniq = hash_group_apply(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        ["__h"], bucket, out_schema=schema).to_pandas()

    def totals(tbl: pa.Table) -> pa.Table:
        ids = np.sort(tbl.column(id_col).to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({
            "i": pa.array(np.arange(n_e, dtype=np.int64)),
            "n_docs": pa.array(np.searchsorted(ids, edges, side="right")
                               .astype(np.int64))})

    id_source = ids_ds if ids_ds is not None else ds.map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow")
    tot = (id_source
           .map_batches(totals, batch_format="pyarrow", batch_size=65536)
           .to_pandas())

    base = pd.DataFrame({"i": np.arange(n_e, dtype=np.int64),
                         "edge": edges})
    u = (uniq.groupby("i", as_index=False)["n_unique"].sum()
         if len(uniq) else
         pd.DataFrame({"i": base["i"], "n_unique": 0}))
    t = (tot.groupby("i", as_index=False)["n_docs"].sum()
         if len(tot) else
         pd.DataFrame({"i": base["i"], "n_docs": 0}))
    out = base.merge(t, on="i", how="left").merge(u, on="i", how="left")
    out[["n_docs", "n_unique"]] = (out[["n_docs", "n_unique"]]
                                   .fillna(0).astype("int64"))
    out["n_dups"] = out["n_docs"] - out["n_unique"]
    return out.sort_values("i").reset_index(drop=True)


def minhash_calibration(ds_factory, *, text_col: str = "text",
                        id_col: str = "doc_id", k: int = 3,
                        n_perm: int = 64, bands: int = 16,
                        seed: int = 1234, max_band: int = 8192):
    """Estimate-vs-exact calibration of the MinHash family — for every
    banded CANDIDATE pair, the signature agreement count
    (``matches`` of ``n_perm`` — E[matches]/n_perm = Jaccard) next to
    the EXACT shingle Jaccard: the report that tells you where to set
    ``threshold``/``bands`` before trusting the dedup at corpus scale.
    ``ds_factory`` is a zero-arg callable returning a fresh Dataset per
    pass (the branch-reexecution rule — three passes read the text).

    Shape: the candidate pairs come from the in-line banding; one
    doc-keyed exchange attaches each candidate doc's signature AND
    packed shingle set to its pair rows; one pair-keyed exchange folds
    the two sides into (matches, jaccard) — a single int/int division
    in lockstep with the SQL's i/(sa+sb−i). Driver holds only the
    pairs-sized report. Returns (a, b, matches, jaccard) sorted."""
    from ..exchange import hash_group_apply

    a_p, b_p = _minhash_params(n_perm, seed)
    cands = minhash_lsh_candidates(
        ds_factory(), text_col=text_col, id_col=id_col, k=k,
        n_perm=n_perm, bands=bands, seed=seed,
        max_band=max_band).materialize()

    side_schema = pa.schema([("key", pa.int64()), ("a", pa.int64()),
                             ("b", pa.int64()), ("sig", pa.binary()),
                             ("sh", pa.binary())])

    def doc_rows(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column(id_col).to_pylist(), np.int64)
        texts = tbl.column(text_col).to_pylist()
        all_sh = _shingle_hashes_batch(texts, k)
        sigs, shs = [], []
        n = len(ids)
        for i in range(n):
            sigs.append(_signature(all_sh[i], a_p, b_p).tobytes())
            shs.append(np.unique(all_sh[i]).tobytes())
        return pa.table({"key": pa.array(ids, pa.int64()),
                         "a": pa.array(np.full(n, -1, np.int64)),
                         "b": pa.array(np.full(n, -1, np.int64)),
                         "sig": pa.array(sigs, pa.binary()),
                         "sh": pa.array(shs, pa.binary())})

    def pair_rows(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        key = np.concatenate([a, b])
        return pa.table({"key": pa.array(key, pa.int64()),
                         "a": pa.array(np.concatenate([a, a]), pa.int64()),
                         "b": pa.array(np.concatenate([b, b]), pa.int64()),
                         "sig": pa.array([None] * len(key), pa.binary()),
                         "sh": pa.array([None] * len(key), pa.binary())})

    sides = (ds_factory().map_batches(doc_rows, batch_format="pyarrow",
                                      batch_size=None)
             .union(cands.map_batches(pair_rows, batch_format="pyarrow",
                                      batch_size=None)))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        docs = df[df["a"] < 0].set_index("key")
        pairs = df[df["a"] >= 0]
        if not len(pairs):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "sig": pd.Series([], dtype="object"),
                                 "sh": pd.Series([], dtype="object")})
        sig = docs["sig"].reindex(pairs["key"]).to_numpy(object)
        sh = docs["sh"].reindex(pairs["key"]).to_numpy(object)
        return pd.DataFrame({"a": pairs["a"].to_numpy(np.int64),
                             "b": pairs["b"].to_numpy(np.int64),
                             "sig": sig, "sh": sh})

    att_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("sig", pa.binary()), ("sh", pa.binary())])
    attached = hash_group_apply(sides, ["key"], attach,
                                out_schema=att_schema)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["a", "b"], kind="mergesort")
        aa = df["a"].to_numpy(np.int64)
        bb = df["b"].to_numpy(np.int64)
        if len(df) % 2 or not (np.array_equal(aa[0::2], aa[1::2])
                               and np.array_equal(bb[0::2], bb[1::2])):
            raise ValueError("calibration fold: a pair is missing a side")
        # matches: one reshape + vectorized compare over all pairs
        S = np.frombuffer(b"".join(df["sig"].tolist()),
                          np.uint64).reshape(len(df), n_perm)
        matches = (S[0::2] == S[1::2]).sum(axis=1).astype(np.int64)
        # exact Jaccard: the per-pair sorted-array intersect stays a
        # loop (variable-length sets — verify_pairs_jaccard cost class)
        sh = df["sh"].tolist()
        jac = np.empty(len(df) // 2, np.float64)
        for i in range(0, len(df), 2):
            h1 = np.frombuffer(sh[i], np.uint64)
            h2 = np.frombuffer(sh[i + 1], np.uint64)
            inter = len(np.intersect1d(h1, h2, assume_unique=True))
            denom = len(h1) + len(h2) - inter
            jac[i // 2] = inter / denom if denom else 1.0
        return pd.DataFrame({"a": aa[0::2], "b": bb[0::2],
                             "matches": matches, "jaccard": jac})

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("matches", pa.int64()),
                            ("jaccard", pa.float64())])
    out = hash_group_apply(attached, ["a", "b"], fold,
                           out_schema=out_schema).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                             "b": pd.Series([], dtype="int64"),
                             "matches": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return out.sort_values(["a", "b"]).reset_index(drop=True)
