"""Snapshot diff — the corpus-versioning primitive an incremental
training-data pipeline runs between crawls: which documents were added,
removed, or changed since the last snapshot (the keep/reprocess
work-list). Beyond the reference's scope; same incremental stance as
``dedup.exact_dedup_incremental``.

Content equality is HASH-based map-side (``hash_array_pure`` over the
content column), the ``dedup_exact`` stance: text never crosses the
exchange — only (key, side, hash64) rows do — so the diff of two 50-TB
snapshots moves ~24 bytes per row. The SQL oracle compares text
directly; a 64-bit collision would split them, which at gate scale is
~n²/2⁶⁴ and at 100 TB is the same documented trade every hash-keyed
dedup in this repo makes.

Keys are assumed unique per snapshot (a snapshot IS a keyed table); a
duplicated key raises in the reduce bucket rather than guessing.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_array_pure


def table_upsert(old_ds, new_ds, *, key_col: str = "doc_id"):
    """Keyed snapshot refresh (upsert): every key's row comes from the
    NEW snapshot when present there, else from the old one — no
    deletes; pair with ``snapshot_diff`` for a remove work-list. The
    two sides must share a schema. Returns the merged Dataset.

    Full rows cross the key exchange exactly once (they ARE the
    output — there is no slimmer shape for a materializing merge);
    in-bucket the winner per key is one sort + drop_duplicates, no
    per-key loop. A duplicated key WITHIN one snapshot raises (the
    ``snapshot_diff`` stance: a snapshot is a keyed table)."""
    import pandas as pd

    from ..exchange import hash_group_apply

    out_schema = old_ds.schema().base_schema
    new_schema = new_ds.schema().base_schema
    if [f.name for f in out_schema] != [f.name for f in new_schema]:
        raise ValueError("table_upsert: snapshot schemas differ: "
                         f"{out_schema.names} vs {new_schema.names}")

    def tag(side: int):
        def fn(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                "_side", pa.array(np.full(tbl.num_rows, side, np.int32),
                                  pa.int32()))
        return fn

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if df.duplicated([key_col, "_side"]).any():
            raise ValueError("table_upsert: duplicate key within one "
                             "snapshot")
        df = df.sort_values([key_col, "_side"], ascending=[True, False],
                            kind="mergesort")
        return (df.drop_duplicates(subset=[key_col], keep="first")
                .drop(columns=["_side"]))

    tagged = (old_ds.map_batches(tag(0), batch_format="pyarrow")
              .union(new_ds.map_batches(tag(1), batch_format="pyarrow")))
    return hash_group_apply(tagged, [key_col], reduce_bucket,
                            out_schema=out_schema)


def snapshot_diff(old_ds, new_ds, *, key_col: str = "doc_id",
                  content_col: str = "text"):
    """(key, status) for every key whose row differs between snapshots:
    ``added`` (new only), ``removed`` (old only), ``changed`` (both,
    content hash differs). Unchanged rows drop map-side-cheaply in the
    reduce. Side-tagged union through one key-hashed exchange."""
    import pandas as pd

    from ..exchange import hash_group_apply

    def tag(side: int):
        def fn(tbl: pa.Table) -> pa.Table:
            keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
            txt = tbl.column(content_col).to_pandas()
            h = hash_array_pure(txt.to_numpy()).astype(np.uint64)
            return pa.table({key_col: pa.array(keys.astype(np.int64),
                                               pa.int64()),
                             "side": pa.array(np.full(len(keys), side,
                                                      np.int32),
                                              pa.int32()),
                             "h": pa.array(h, pa.uint64())})
        return fn

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["side"] == 0]
        n = df[df["side"] == 1]
        if (o[key_col].duplicated().any()
                or n[key_col].duplicated().any()):
            raise ValueError("snapshot_diff: duplicate key within one "
                             "snapshot")
        m = o.merge(n, on=key_col, how="outer", suffixes=("_o", "_n"))
        status = np.where(
            m["side_o"].isna(), "added",
            np.where(m["side_n"].isna(), "removed",
                     np.where(m["h_o"] != m["h_n"], "changed",
                              "unchanged")))
        keep = status != "unchanged"
        return pd.DataFrame({key_col: m[key_col][keep].astype("int64"),
                             "status": status[keep]})

    out_schema = pa.schema([(key_col, pa.int64()), ("status", pa.string())])
    tagged = (old_ds.map_batches(tag(0), batch_format="pyarrow")
              .union(new_ds.map_batches(tag(1), batch_format="pyarrow")))
    return hash_group_apply(tagged, [key_col], reduce_bucket,
                            out_schema=out_schema)


                             # hash-compared outputs; documented spec)
