"""Corpus compaction — the small-files maintenance rewrite.

A long-lived follow loop / incremental-append corpus accumulates many
small parquet files (each poll, each appended shard writes its own);
at read time that caps fused read+map parallelism at file count and
drowns the scheduler in tiny tasks (the measured ≤64k-rows-per-file
rule cuts the other way when files shrink to hundreds of rows). This
op rewrites a directory into ~``target_bytes`` files, preserving rows
exactly and (optionally) a hive partition layout — the OPTIMIZE /
compaction step every table-maintenance story needs at 100 TB.

Shape: one streaming ``read_parquet → write_parquet`` pass — no
driver-side rows, no shuffle. File sizing derives from the INPUT's own
on-disk footprint (encoded bytes / rows), so the estimate already
reflects the corpus's real compression ratio; ``min/max_rows_per_file``
then bracket the target. Output goes to a NEW directory (atomic adopt =
rename over the old one after verifying counts) so a crashed compaction
never corrupts the source — same stance as the snapshot writers' tmp +
rename.
"""

from __future__ import annotations

import os

import numpy as np


def _dir_stats(path: str) -> tuple[int, int]:
    """(total parquet bytes, file count) under ``path``."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            if n.endswith(".parquet"):
                total += os.path.getsize(os.path.join(root, n))
                files += 1
    return total, files


def compact_corpus(in_dir: str, out_dir: str, *,
                   target_bytes: int = 128 << 20,
                   partition_cols: list[str] | None = None,
                   order_by: str | None = None,
                   concurrency: int | None = None) -> dict:
    """Rewrite ``in_dir``'s parquet files into ~``target_bytes`` files
    under ``out_dir`` (must not already contain parquet). Returns
    {rows, files_in, files_out, bytes_in, bytes_out, rows_per_file}.

    ``partition_cols`` re-partitions the output hive-style (one
    directory tree per key combo) — compaction is the natural moment to
    fix a layout, and within each partition the same file-size target
    applies.

    ``order_by`` additionally CLUSTERS the rewrite by a column (the
    linear form of Delta's OPTIMIZE ZORDER): one distributed sort, so
    output files carry disjoint key ranges and parquet min/max stats
    prune whole files at read time. A sort is an all-to-all — only
    worth paying when later reads filter on that key, which is exactly
    when you'd ask for it."""
    import ray.data as rd

    bytes_in, files_in = _dir_stats(in_dir)
    if files_in == 0 or bytes_in == 0:
        raise ValueError(f"compact_corpus: no parquet under {in_dir!r}")
    ds = rd.read_parquet(in_dir)
    rows = ds.count()  # parquet metadata only — no data scan
    if rows == 0:
        raise ValueError(f"compact_corpus: no rows under {in_dir!r}")
    if order_by is not None:
        ds = ds.sort(order_by)
    bpr = max(1, bytes_in // rows)
    rows_per_file = max(1, int(target_bytes // bpr))
    ds.write_parquet(out_dir, partition_cols=partition_cols,
                     min_rows_per_file=rows_per_file,
                     max_rows_per_file=rows_per_file,
                     concurrency=concurrency)
    bytes_out, files_out = _dir_stats(out_dir)
    return {"rows": int(rows), "files_in": files_in,
            "files_out": files_out, "bytes_in": bytes_in,
            "bytes_out": bytes_out, "rows_per_file": rows_per_file}


def file_stats(path: str, key_col: str):
    """Footer-only per-file audit — (file, n_rows, min_v, max_v) for
    every parquet file under ``path``, read exclusively from file
    metadata (row-group statistics), never the data pages: the
    scan-planning pass that tells a 100-TB reader which files a key
    predicate can skip, and the audit that PROVES a compaction's
    ``order_by`` produced disjoint key ranges. One footer read per
    file, fanned out as a Dataset over the file list; a real SQL
    oracle recomputes the same numbers the hard way (full scan with
    ``filename=true``). Raises if a footer lacks statistics for
    ``key_col`` — an honest failure beats a silently-unprunable file."""
    import glob as _glob
    import os

    import pyarrow as pa
    import ray.data as rd

    root = path.rstrip("/")
    files = sorted(
        f for f in _glob.glob(os.path.join(root, "**", "*.parquet"),
                              recursive=True) if os.path.isfile(f))

    def part(batch: dict) -> pa.Table:
        import pyarrow.parquet as pq

        out = {"file": [], "n_rows": [], "min_v": [], "max_v": []}
        for f in batch["item"]:
            md = pq.read_metadata(f)
            mins, maxs = [], []
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                for ci in range(g.num_columns):
                    col = g.column(ci)
                    if col.path_in_schema == key_col:
                        st = col.statistics
                        if st is None or not st.has_min_max:
                            raise ValueError(
                                f"{f}: no min/max statistics for "
                                f"{key_col!r}")
                        mins.append(st.min)
                        maxs.append(st.max)
            if not mins:
                raise ValueError(f"{f}: column {key_col!r} not found")
            out["file"].append(os.path.relpath(f, root))
            out["n_rows"].append(md.num_rows)
            out["min_v"].append(min(mins))
            out["max_v"].append(max(maxs))
        return pa.table({"file": pa.array(out["file"], pa.string()),
                         "n_rows": pa.array(out["n_rows"], pa.int64()),
                         "min_v": pa.array(out["min_v"], pa.int64()),
                         "max_v": pa.array(out["max_v"], pa.int64())})

    return rd.from_items(files).map_batches(part, batch_size=64)


_MANIFEST_MOD = 9223372036854775807            # 2^63 - 1, fits BIGINT


def snapshot_manifest(path: str, cols: list[str]):
    """Content manifest of a parquet directory — (file, n_rows,
    content_hash) per file, where content_hash is the ORDER-FREE sum
    (mod 2^63−1) of per-row fingerprints int(md5('|'.join(cols))[:15],
    16): the change-detection index an incremental-ingest pipeline
    keeps per snapshot so a re-crawl reships only files whose hash
    moved. One task per file batch; the row fingerprint is md5 so a
    REAL SQL oracle replays it (md5(concat_ws('|', ...)) — DuckDB and
    hashlib agree byte-for-byte; ints CAST to plain digits on both
    sides). md5-per-row is the price of SQL verifiability — for a
    pure-speed manifest swap in hashing.hash_array_pure and a golden.
    Pair with ``manifest_diff``."""
    import glob as _glob
    import hashlib
    import os

    import pyarrow as pa
    import ray.data as rd

    root = path.rstrip("/")
    files = sorted(
        f for f in _glob.glob(os.path.join(root, "**", "*.parquet"),
                              recursive=True) if os.path.isfile(f))

    def part(batch: dict) -> pa.Table:
        import pyarrow.parquet as pq

        out = {"file": [], "n_rows": [], "content_hash": []}
        for f in batch["item"]:
            t = pq.read_table(f, columns=cols)
            arrs = [t.column(c).to_pylist() for c in cols]
            s = 0
            for vals in zip(*arrs):
                row = "|".join(str(v) for v in vals)
                s += int(hashlib.md5(row.encode("utf-8"))
                         .hexdigest()[:15], 16)
            out["file"].append(os.path.relpath(f, root))
            out["n_rows"].append(t.num_rows)
            out["content_hash"].append(s % _MANIFEST_MOD)
        return pa.table({"file": pa.array(out["file"], pa.string()),
                         "n_rows": pa.array(out["n_rows"], pa.int64()),
                         "content_hash": pa.array(out["content_hash"],
                                                  pa.int64())})

    return rd.from_items(files).map_batches(part, batch_size=16)


def manifest_diff(old, new):
    """Diff two manifests (anything ``to_pandas``-able with
    file/n_rows/content_hash): one row per file that changed —
    (file, status ∈ {added, removed, changed}, n_rows_old, n_rows_new).
    Manifests are file-count-sized; this is a driver-side join by
    design."""
    import pandas as pd

    o = old.to_pandas() if hasattr(old, "to_pandas") else old
    n = new.to_pandas() if hasattr(new, "to_pandas") else new
    m = o.merge(n, on="file", how="outer", suffixes=("_old", "_new"),
                indicator=True)
    status = np.where(
        m["_merge"] == "left_only", "removed",
        np.where(m["_merge"] == "right_only", "added",
                 np.where(m["content_hash_old"] != m["content_hash_new"],
                          "changed", "same")))
    m = m.assign(status=status)
    m = m[m["status"] != "same"]
    out = pd.DataFrame({
        "file": m["file"].to_numpy(object),
        "status": m["status"].to_numpy(object),
        "n_rows_old": m["n_rows_old"].fillna(-1).astype("int64"),
        "n_rows_new": m["n_rows_new"].fillna(-1).astype("int64")})
    return out.sort_values("file").reset_index(drop=True)
