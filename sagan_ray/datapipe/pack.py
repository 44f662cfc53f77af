"""Sequence packing: lay documents end-to-end (in dataset order) into
fixed-capacity training sequences, GPT-style — each doc gets the
(seq_id, seq_offset) where its tokens start; docs may straddle sequence
boundaries (the concatenate-then-chunk regime, not bin packing).

This is the distributed PREFIX-SUM shape, the one ordered global
computation the Dataset API can't express as a batch transform — so it
drops to raw Ray tasks by design (the documented last-resort tier):
pass 1 computes each block's token total (one tiny int per block),
the driver prefix-sums that list (O(blocks), scalar work), pass 2
re-maps every block with its start offset. Data passes twice, nothing
but per-block integers ever reach the driver.

Ordering contract: packing order is ascending ``id_col``. Ray's
streaming executor materializes blocks in COMPLETION order, so the
driver re-orders the block list by each block's min id and ASSERTS the
blocks form non-overlapping id ranges — true whenever the input is
id-sorted storage (the documents table is written sorted by doc_id),
and a loud error rather than a silent mis-pack when an upstream
shuffle destroyed that (re-sort or re-read before packing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pack_sequences(ds, *, capacity: int, count_col: str,
                   id_col: str = "doc_id"):
    """Returns a Dataset of (id_col, seq_id, seq_offset): the sequence
    index and in-sequence token offset where each doc begins, under
    cumulative layout ``before = Σ counts of prior docs``;
    ``seq_id = before // capacity``, ``seq_offset = before % capacity``.
    Zero-count docs sit at the current cursor."""
    import ray
    import ray.data as rd

    assert capacity > 0
    ds = ds.materialize()

    @ray.remote
    def block_stats(tbl: pa.Table):
        if len(tbl) == 0:
            return None
        s = pc.sum(tbl.column(count_col)).as_py()
        mm = pc.min_max(tbl.column(id_col))
        return (int(mm["min"].as_py()), int(mm["max"].as_py()),
                int(s or 0))

    @ray.remote
    def emit(tbl: pa.Table, start: int) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        n = (tbl.column(count_col).combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.int64))
        order = np.argsort(ids, kind="stable")   # in-block id order
        ids, n = ids[order], n[order]
        before = start + np.cumsum(n) - n
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "seq_id": pa.array(before // capacity, pa.int64()),
            "seq_offset": pa.array(before % capacity, pa.int64()),
        })

    refs = [b for bundle in ds.iter_internal_ref_bundles()
            for b in bundle.block_refs]
    stats = ray.get([block_stats.remote(r) for r in refs])
    keep = [(st, r) for st, r in zip(stats, refs) if st is not None]
    keep.sort(key=lambda x: x[0][0])              # by block min id
    for (_, hi, _), (lo2, _, _) in zip([k[0] for k in keep],
                                       [k[0] for k in keep][1:]):
        if lo2 <= hi:
            raise ValueError(
                "pack_sequences: blocks are not disjoint id ranges — "
                "input is not id-sorted storage; sort by the id column "
                "before packing")
    sums = [st[2] for st, _ in keep]
    starts = np.concatenate(([0], np.cumsum(sums)[:-1])) if keep else []
    return rd.from_arrow_refs(
        [emit.remote(r, int(s)) for (_, r), s in zip(keep, starts)])


def chunk_documents(ds, *, size: int, overlap: int = 0,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Split each document into overlapping fixed-token windows — the
    long-document training-window op (the HF ``return_overflowing_tokens``
    convention): tokens are the ``\\s+`` splits of the trimmed text,
    chunk ``i`` covers tokens ``[i*stride, i*stride+size)`` with
    ``stride = size - overlap``, and the LAST chunk is the first one
    whose window reaches the end (``k = 1 + ceil((n-size)/stride)`` for
    ``n > size``, else 1) — no tail chunk fully contained in its
    predecessor. Zero-token documents emit zero chunks. Chunk text is
    the space-join of its tokens (whitespace normalizes; byte-exact
    reconstruction is not the contract, window identity is).

    Fully vectorized and embarrassingly parallel (one map_batches, no
    shuffle): Arrow regex split → numpy window index arithmetic → one
    flat ``take`` of the token values → ``ListArray`` rebuild →
    ``pc.binary_join``. Per-batch output is O(input tokens × dup
    factor); overlap duplicates only the overlapped token bytes.
    32-bit list offsets (``binary_join`` has no large-list kernel in
    pyarrow 16), so ``batch_size`` stays pinned well under the 2 GB
    per-batch text bound."""
    if not (0 <= overlap < size):
        raise ValueError("need 0 <= overlap < size")
    stride = size - overlap

    def f(tbl: pa.Table) -> pa.Table:
        col = tbl.column(text_col).cast(pa.string())
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        la = pc.split_pattern_regex(pc.utf8_trim_whitespace(col), r"\s+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = la.values
        offs = np.asarray(la.offsets, dtype=np.int64)
        n = np.diff(offs)
        # trim('') splits to [''] — a zero-token doc, not a one-token one
        one = n == 1
        if one.any():
            first_tok = pc.utf8_length(flat).to_numpy(
                zero_copy_only=False)[offs[:-1][one]]
            n = n.copy()
            n[np.flatnonzero(one)[first_tok == 0]] = 0
        k = np.where(n == 0, 0,
                     1 + np.maximum(n - size + stride - 1, 0) // stride)
        doc_of = np.repeat(np.arange(len(n)), k)
        chunk_idx = np.arange(len(doc_of)) - np.repeat(
            np.concatenate(([0], np.cumsum(k)[:-1])), k)
        start = chunk_idx * stride
        end = np.minimum(start + size, n[doc_of])
        lens = end - start
        # flat gather indices: for each chunk, start..end within its doc
        tot = int(lens.sum())
        idx = np.ones(tot, np.int64)
        bounds = np.concatenate(([0], np.cumsum(lens)))
        idx[bounds[:-1]] = offs[:-1][doc_of] + start
        if len(bounds) > 2:
            idx[bounds[1:-1]] -= offs[:-1][doc_of[:-1]] + end[:-1] - 1
        idx = np.cumsum(idx)
        toks = flat.take(pa.array(idx, pa.int64()))
        chunks = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), toks)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)[doc_of]
        return pa.table({
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "chunk_text": pc.binary_join(chunks, " "),
        })

    return ds.map_batches(f, batch_format="pyarrow", batch_size=16_384)


def length_batches(ds, *, batch_size: int, count_col: str = "n_tokens",
                   id_col: str = "doc_id"):
    """Length-bucketed batch assignment — the dynamic-padding staple:
    sort examples by length so each training batch holds similar-length
    rows and per-batch padding (batch max − row length) collapses.
    Returns (id, count, batch_id) with
    ``batch_id = row_number in ascending (count, id) order // batch_size``
    — exactly the window-function spec, without globally sorting the
    data: ranks are assembled from a (count → docs) decomposition.

    Shape: a tiny distinct-count histogram (per-batch (count, cnt)
    partials — distinct lengths ≪ N, the ``rank_normalize`` stance)
    folds on the driver into ``offset[c]`` = #rows with count < c; one
    count-keyed slim exchange ((id, count) rows only) ranks ids WITHIN
    each count value; batch_id = (offset + within_rank) // batch_size
    computed inside the bucket task against the broadcast offset table.
    Full rows never shuffle — the exchange carries 16-byte (id, count)
    rows; compose after ``token_counts`` exactly like ``pack_sequences``."""
    import ray
    import ray.data as rd

    from ..exchange import hash_group_apply

    assert batch_size > 0

    def slim(tbl: pa.Table) -> pa.Table:
        return pa.table({
            id_col: tbl.column(id_col).cast(pa.int64()),
            "c": tbl.column(count_col).cast(pa.int64()),
        })

    slim_ds = ds.map_batches(slim, batch_format="pyarrow",
                             batch_size=65536).materialize()

    def part(tbl: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(tbl.select(["c"]),
                            ["c"]).aggregate([([], "count_all")])
        return g.rename_columns(["c", "cnt"])

    hist = slim_ds.map_batches(part, batch_format="pyarrow",
                               batch_size=65536).to_pandas()
    out_schema = pa.schema([(id_col, pa.int64()), ("c", pa.int64()),
                            ("batch_id", pa.int64())])
    if len(hist) == 0:
        return rd.from_arrow(out_schema.empty_table())
    hist = hist.groupby("c", sort=True)["cnt"].sum().reset_index()
    cum = hist["cnt"].cumsum().to_numpy()
    vals = hist["c"].to_numpy().astype(np.int64)
    offs = (cum - hist["cnt"].to_numpy()).astype(np.int64)
    off_ref = ray.put((vals, offs))

    def bucket(df):
        vals_, offs_ = ray.get(off_ref)
        df = df.sort_values(["c", id_col], kind="mergesort")
        c = df["c"].to_numpy()
        first = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            first[1:] = c[1:] != c[:-1]
        idx = np.arange(len(df))
        rank = idx - idx[first][np.cumsum(first) - 1]
        base = offs_[np.searchsorted(vals_, c)]
        return df.assign(batch_id=(base + rank) // batch_size)

    return hash_group_apply(slim_ds, ["c"], bucket, out_schema=out_schema)


def pack_bins_bfd(ds, *, capacity: int, count_col: str = "n_chars",
                  id_col: str = "doc_id", n_shards: int = 16):
    """Best-fit-decreasing BIN packing (docs never straddle — the
    padded-batch regime, complementary to ``pack_sequences``'
    concatenate-then-chunk): docs shard by the Knuth hash of their id,
    and within each shard the classic BFD greedy runs — docs in
    (count desc, id asc) order, each placed into the open bin with the
    LARGEST current fill that still fits (ties → the largest bin id,
    i.e. the rightmost candidate in (fill, bin) order), a fresh bin
    when none fits; over-capacity docs get a bin of their own. Returns
    a Dataset (id_col, shard, bin, fill) where fill is the doc's bin
    offset — exact integers end-to-end.

    Distribution contract: BFD is inherently SEQUENTIAL, so the
    parallel unit is the shard (greedy quality is preserved per shard;
    cross-shard packing efficiency loss is the documented price of
    parallelism — raise ``n_shards`` for parallelism, lower it for
    packing quality). The exchange carries slim (id, count) rows; the
    per-shard loop is O(n_shard · log bins) Python with a bisect-sorted
    fill list — the golden (oracle/golden.py::write_golden_pack_bfd)
    replays the identical documented rule independently."""
    import bisect

    import pandas as pd

    from ..exchange import hash_group_apply

    knuth = np.uint64(2654435761)
    mod32 = np.uint64(1) << np.uint64(32)

    def slim(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        shard = (((ids.astype(np.uint64) * knuth) % mod32)
                 % np.uint64(n_shards)).astype(np.int64)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "c": pc.cast(tbl.column(count_col), pa.int64()),
                         "shard": pa.array(shard, pa.int64())})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for sh, sub in df.groupby("shard", sort=True):
            ids = sub[id_col].to_numpy().astype(np.int64)
            c = sub["c"].to_numpy().astype(np.int64)
            order = np.lexsort((ids, -c))        # count desc, id asc
            fills: list[tuple[int, int]] = []    # sorted (fill, bin)
            fill_of: list[int] = []              # bin -> current fill
            for i in order:
                ci = int(c[i])
                place = -1
                if ci <= capacity:
                    # rightmost (fill, bin) with fill + ci <= capacity
                    j = bisect.bisect_left(fills,
                                           (capacity - ci + 1,)) - 1
                    if j >= 0:
                        place = fills[j][1]
                        fills.pop(j)
                if place < 0:
                    place = len(fill_of)
                    fill_of.append(0)
                off = fill_of[place]
                out.append((int(ids[i]), int(sh), place, off))
                fill_of[place] = off + ci
                if ci <= capacity:
                    bisect.insort(fills, (fill_of[place], place))
        return pd.DataFrame(out, columns=[id_col, "shard", "bin",
                                          "fill"]).astype("int64")

    schema = pa.schema([(id_col, pa.int64()), ("shard", pa.int64()),
                        ("bin", pa.int64()), ("fill", pa.int64())])
    return hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        ["shard"], bucket, out_schema=schema)


def concat_chunk_spans(ds, *, capacity: int, count_col: str,
                       id_col: str = "doc_id"):
    """Concat-then-chunk packing — the GPT pretraining layout where the
    token stream is one long concatenation split into fixed
    ``capacity`` sequences and documents CROSS boundaries: one row per
    (sequence × document) span, (seq_id, id, n_tokens) with n_tokens =
    how many of the doc's tokens land in that sequence. Zero-count
    docs emit no rows. ``pack_sequences``'s distributed prefix-sum
    over id-sorted blocks (disjointness asserted), with a vectorized
    repeat/arange span expansion per block — the companion to
    ``pack_sequences`` (which places doc STARTS) when the dataloader
    needs per-sequence composition (boundary masks, source mixing
    audits)."""
    import ray
    import ray.data as rd

    assert capacity > 0
    ds = ds.materialize()

    @ray.remote
    def block_stats(tbl: pa.Table):
        if len(tbl) == 0:
            return None
        s = pc.sum(tbl.column(count_col)).as_py()
        mm = pc.min_max(tbl.column(id_col))
        return (int(mm["min"].as_py()), int(mm["max"].as_py()),
                int(s or 0))

    @ray.remote
    def emit(tbl: pa.Table, start: int) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        n = (tbl.column(count_col).combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.int64))
        order = np.argsort(ids, kind="stable")
        ids, n = ids[order], n[order]
        keep = n > 0
        ids, n = ids[keep], n[keep]
        before = start + np.cumsum(n) - n
        first = before // capacity
        last = (before + n - 1) // capacity
        reps = (last - first + 1).astype(np.int64)
        seq = np.repeat(first, reps) + (
            np.arange(int(reps.sum())) - np.repeat(
                np.cumsum(reps) - reps, reps))
        d_id = np.repeat(ids, reps)
        b = np.repeat(before, reps)
        e = np.repeat(before + n, reps)
        lo = np.maximum(b, seq * capacity)
        hi = np.minimum(e, (seq + 1) * capacity)
        return pa.table({
            "seq_id": pa.array(seq, pa.int64()),
            id_col: pa.array(d_id, pa.int64()),
            "n_tokens": pa.array(hi - lo, pa.int64()),
        })

    refs = [b for bundle in ds.iter_internal_ref_bundles()
            for b in bundle.block_refs]
    stats = ray.get([block_stats.remote(r) for r in refs])
    keep = [(st, r) for st, r in zip(stats, refs) if st is not None]
    keep.sort(key=lambda x: x[0][0])
    for (_, hi, _), (lo2, _, _) in zip([k[0] for k in keep],
                                       [k[0] for k in keep][1:]):
        if lo2 <= hi:
            raise ValueError(
                "concat_chunk_spans: blocks are not disjoint id ranges "
                "— sort by the id column before packing")
    sums = [st[2] for st, _ in keep]
    starts = np.concatenate(([0], np.cumsum(sums)[:-1])) if keep else []
    return rd.from_arrow_refs(
        [emit.remote(r, int(s)) for (_, r), s in zip(keep, starts)])
