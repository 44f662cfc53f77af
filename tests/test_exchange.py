"""The shared hash exchange (sagan_ray/exchange.py): a pinned bucket
layout, a value-pure key hash, and no driver pulls of bucket outputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from sagan_ray.exchange import engine_n_buckets, hash_group_apply, key_hash

CONV_IDS = ["", "a", "a\x00b", "a\x00", "\x000", "c00000", "c04999",
            "conv-1", "conv-42", "sess/ü-7", "x" * 40]


def test_conv_bucket_layout_is_pinned():
    """state_dir snapshots are stored per bucket, so conv_id → bucket must
    never change between versions (values computed by the engine's
    original conv hash)."""
    h = key_hash(pa.table({"conv_id": CONV_IDS}), ["conv_id"])
    assert (h % 4).tolist() == [2, 0, 2, 1, 3, 2, 0, 3, 0, 2, 3]
    assert (h % 7).tolist() == [6, 3, 6, 1, 5, 1, 6, 2, 0, 3, 4]


def test_engine_n_buckets(monkeypatch):
    """One bucket below 2 CPUs; otherwise one per 2 CPUs, at least 4."""
    got = {}
    for cpus in (1, 2, 4, 7, 8, 16):
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda: {"CPU": float(cpus)})
        got[cpus] = engine_n_buckets()
    assert got == {1: 1, 2: 4, 4: 4, 7: 4, 8: 4, 16: 8}


def test_key_hash_is_value_pure():
    """A row's hash depends only on its key, never on the other rows of
    its block: NUL bytes, nulls in int columns, multi-column keys."""
    def one(k, v):
        return int(key_hash(pa.table({"k": pa.array([k], pa.string()),
                                      "v": pa.array([v], pa.int64())}),
                            ["k", "v"])[0])

    tbl = pa.table({"k": pa.array(["a", "a\x00b", "a\x00b", None]),
                    "v": pa.array([1, 3, None, 3], pa.int64())})
    assert key_hash(tbl, ["k", "v"]).tolist() == [
        one("a", 1), one("a\x00b", 3), one("a\x00b", None), one(None, 3)]
    assert one("a", 1) != one("a", 2) and one("a", 1) != one("a\x00b", 1)
    ints = pa.table({"v": pa.array([3, None], pa.int64())})
    assert key_hash(ints, ["v"])[0] == key_hash(ints.slice(0, 1), ["v"])[0]
    # a column-less empty block splits into empty buckets
    assert np.array_equal(key_hash(pa.table({}), ["k"]), [])


def test_hash_group_apply_never_pulls_outputs(monkeypatch):
    """Without an out_schema, empty buckets are skipped by their summed
    byte size — no bucket output is ever fetched to the driver."""
    pulled = []
    real_get = ray.get

    def get(refs, *args, **kwargs):
        out = real_get(refs, *args, **kwargs)
        for v in out if isinstance(out, list) else [out]:
            pulled.append(type(v))
        return out

    tbl = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                    "v": pa.array([1.0, 2.0, 3.0])})

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["v"].sum()

    monkeypatch.setattr(ray, "get", get)
    out = hash_group_apply(rd.from_arrow(tbl), ["k"], agg, n_buckets=16)
    monkeypatch.undo()
    assert pulled and pa.Table not in pulled
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, pd.DataFrame({"k": [1, 2], "v": [1.0, 5.0]}))


def test_hash_group_apply_all_empty():
    schema = pa.schema([("k", pa.int64())])
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert hash_group_apply(empty, ["k"], lambda df: df).count() == 0
    out = hash_group_apply(empty, ["k"], lambda df: df, out_schema=schema)
    assert out.count() == 0 and out.schema().names == ["k"]
