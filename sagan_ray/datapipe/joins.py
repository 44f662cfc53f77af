"""Ordered / non-equi joins Ray Data lacks as primitives: backward
as-of join and banded interval (range) join, both expressed over the
streaming hash exchange (``datapipe/exchange.py``) so only key-bucketed
slices ever co-locate — no all-pairs, no driver materialization.

No sagan analog (the reference is row-at-a-time; these are relational
additions for the training-data tier). Semantics follow DuckDB's
``ASOF JOIN`` (backward, ties broken deterministically) and the
standard banded decomposition of interval joins: a point lives in
exactly one band, an interval is replicated to every band it overlaps,
so each (point, interval) pair meets in exactly the point's band —
no post-join dedup pass needed.

Partitioning assumptions (documented per the custom-operator contract):
- ``asof_join``: every ``by``-group must fit one reduce task. The
  exchange's skew refinement splits oversized buckets by a finer hash
  of the SAME key, so groups stay whole; a single pathological key
  bounded only by that group's own size (same stance as correlation).
- ``range_join``: band width should be on the order of the typical
  interval length; an interval spanning more than ``max_bands`` bands
  is truncated with a logged warning (same stance as the LSH
  ``max_bucket`` cap).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .exchange import hash_group_apply

_SIDE_L, _SIDE_R = 0, 1


def _tag_union(left, right, l_map, r_map, schema: pa.Schema):
    """Union two Datasets into one exchange input with a ``side`` tag,
    padding each side's missing columns with nulls (schema-aligned so
    the union operator zero-copy concatenates)."""

    def mk(side, mapper):
        def f(tbl: pa.Table) -> pa.Table:
            cols = mapper(tbl)
            n = len(tbl)
            arrays = []
            for field in schema:
                if field.name == "side":
                    arrays.append(pa.array(
                        np.full(n, side, np.int8), pa.int8()))
                elif field.name in cols:
                    arrays.append(cols[field.name].cast(field.type))
                else:
                    arrays.append(pa.nulls(n, field.type))
            return pa.Table.from_arrays(arrays, schema=schema)
        return f

    return (left.map_batches(mk(_SIDE_L, l_map), batch_format="pyarrow")
            .union(right.map_batches(mk(_SIDE_R, r_map),
                                     batch_format="pyarrow")))


def asof_join(left, right, *, on: str, by: str,
              left_cols: list[str], right_cols: list[str],
              right_prefix: str = "r_", direction: str = "backward"):
    """As-of left join: for each left row, attach the right row with the
    same ``by`` key and — ``direction="backward"`` — the greatest ``on``
    <= left ``on`` (ties broken by the GREATEST first right column), or
    — ``direction="forward"`` — the smallest ``on`` >= left ``on``
    (ties broken by the SMALLEST first right column). Deterministic,
    unlike a bare SQL ASOF JOIN. Unmatched left rows keep nulls in the
    right columns.

    One hash exchange on ``by``; per-bucket ``pd.merge_asof`` (a C
    merge over ts-sorted frames — the bucket cost is sort + linear
    merge, never quadratic).
    """
    assert direction in ("backward", "forward")
    l_schema = left.schema().base_schema
    r_schema = right.schema().base_schema

    def typ(schema, name):
        return schema.field(name).type

    ex_schema = pa.schema(
        [(by, typ(l_schema, by)), ("side", pa.int8()),
         (on, typ(l_schema, on))]
        + [(c, typ(l_schema, c)) for c in left_cols]
        + [(right_prefix + c, typ(r_schema, c)) for c in right_cols])

    def l_map(tbl):
        return {by: tbl.column(by), on: tbl.column(on),
                **{c: tbl.column(c) for c in left_cols}}

    def r_map(tbl):
        return {by: tbl.column(by), on: tbl.column(on),
                **{right_prefix + c: tbl.column(c) for c in right_cols}}

    both = _tag_union(left, right, l_map, r_map, ex_schema)
    rcols = [right_prefix + c for c in right_cols]
    out_schema = pa.schema([f for f in ex_schema if f.name != "side"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["side"] == _SIDE_L, [by, on] + left_cols]
        r = df.loc[df["side"] == _SIDE_R, [by, on] + rcols]
        if not len(l):
            return l.assign(**{c: pd.Series(dtype=r[c].dtype)
                               for c in rcols})
        if not len(r):
            out = l.copy()
            for c in rcols:
                out[c] = None
            return out
        # backward merge_asof takes the LAST right row with on <= left
        # on, forward the FIRST with on >= — so an ascending secondary
        # sort yields greatest-tiebreak backward / smallest forward
        l = l.sort_values(on, kind="mergesort")
        r = r.sort_values([on, rcols[0]], kind="mergesort")
        return pd.merge_asof(l, r, on=on, by=by, direction=direction)

    return hash_group_apply(both, [by], bucket, out_schema=out_schema)


def hash_join(left, right, *, on: str, left_cols: list[str],
              right_cols: list[str], how: str = "inner",
              right_prefix: str = "r_"):
    """Distributed equi-join (inner or left) of two Datasets on a shared
    key column: side-tagged union, ONE hash exchange on the key,
    per-bucket ``pd.merge`` — the symmetric large-×-large shape (neither
    side is broadcast; for a small right side prefer the broadcast
    lookup pattern instead, see orders_by_nation). Key groups stay
    whole under skew refinement; one pathological hot key is bounded by
    its own group's join size."""
    assert how in ("inner", "left")
    l_schema = left.schema().base_schema
    r_schema = right.schema().base_schema
    ex_schema = pa.schema(
        [(on, l_schema.field(on).type), ("side", pa.int8())]
        + [(c, l_schema.field(c).type) for c in left_cols]
        + [(right_prefix + c, r_schema.field(c).type)
           for c in right_cols])

    def l_map(tbl):
        return {on: tbl.column(on),
                **{c: tbl.column(c) for c in left_cols}}

    def r_map(tbl):
        return {on: tbl.column(on),
                **{right_prefix + c: tbl.column(c) for c in right_cols}}

    both = _tag_union(left, right, l_map, r_map, ex_schema)
    rcols = [right_prefix + c for c in right_cols]
    out_schema = pa.schema([f for f in ex_schema if f.name != "side"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["side"] == _SIDE_L, [on] + left_cols]
        r = df.loc[df["side"] == _SIDE_R, [on] + rcols]
        return pd.merge(l, r, on=on, how=how)

    return hash_group_apply(both, [on], bucket, out_schema=out_schema)


def _to_i64(arr: pa.ChunkedArray) -> np.ndarray:
    """Numeric view of a point/bound column (timestamps -> int64 us)."""
    t = arr.type
    if pa.types.is_timestamp(t):
        arr = arr.cast(pa.timestamp("us")).cast(pa.int64())
    else:
        arr = arr.cast(pa.int64())
    return arr.to_numpy(zero_copy_only=False)


def _range_join_buckets(points, intervals, *, point_col, point_id,
                        lo_col, hi_col, interval_id, band_width,
                        max_bands):
    """Shared banding + exchange input for the range-join variants:
    rows are (band, side, v, hi, pid/iid); a point's band is
    ``value // band_width``; an interval [lo, hi) is replicated to each
    band it overlaps (capped at ``max_bands``, logged)."""
    bw = int(band_width)
    assert bw > 0

    def pts(tbl: pa.Table) -> pa.Table:
        v = _to_i64(tbl.column(point_col))
        return pa.table({
            "band": pa.array(v // bw, pa.int64()),
            "side": pa.array(np.full(len(v), _SIDE_L, np.int8)),
            "v": pa.array(v, pa.int64()),
            "hi": pa.array(np.zeros(len(v), np.int64)),
            "rid": tbl.column(point_id).cast(pa.int64()),
        })

    def ivls(tbl: pa.Table) -> pa.Table:
        lo = _to_i64(tbl.column(lo_col))
        hi = _to_i64(tbl.column(hi_col))
        iid = tbl.column(interval_id).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        nonempty = hi > lo
        lo, hi, iid = lo[nonempty], hi[nonempty], iid[nonempty]
        b0 = lo // bw
        b1 = (hi - 1) // bw
        nb = b1 - b0 + 1
        over = nb > max_bands
        if over.any():
            logging.getLogger(__name__).warning(
                "range_join: %d intervals span > %d bands; truncated "
                "(raise band_width or max_bands)", int(over.sum()),
                max_bands)
            nb = np.minimum(nb, max_bands)
        tot = int(nb.sum())
        off = np.arange(tot) - np.repeat(np.cumsum(nb) - nb, nb)
        return pa.table({
            "band": pa.array(np.repeat(b0, nb) + off, pa.int64()),
            "side": pa.array(np.full(tot, _SIDE_R, np.int8)),
            "v": pa.array(np.repeat(lo, nb), pa.int64()),
            "hi": pa.array(np.repeat(hi, nb), pa.int64()),
            "rid": pa.array(np.repeat(iid, nb), pa.int64()),
        })

    return (points.map_batches(pts, batch_format="pyarrow")
            .union(intervals.map_batches(ivls, batch_format="pyarrow")))


def _bucket_ranges(df: pd.DataFrame, bw: int):
    """Within one exchange bucket (which may hold SEVERAL bands): sorted
    point values/ids plus, for each interval replica, its [start, end)
    slice into them. Each replica's probe bounds are clipped to its own
    band — a point's band is determined by its value, so the clipped
    searchsorted selects exactly the in-band points and a multi-band
    interval never double-counts across its replicas."""
    p = df[df["side"] == _SIDE_L]
    r = df[df["side"] == _SIDE_R]
    pv = p["v"].to_numpy()
    order = np.argsort(pv, kind="stable")
    pv = pv[order]
    pid = p["rid"].to_numpy()[order]
    band = r["band"].to_numpy()
    lo = np.maximum(r["v"].to_numpy(), band * bw)
    hi = np.minimum(r["hi"].to_numpy(), (band + 1) * bw)
    s = np.searchsorted(pv, lo, side="left")
    e = np.searchsorted(pv, np.maximum(hi, lo), side="left")
    return pv, pid, r["rid"].to_numpy(), s, e


def range_join_pairs(points, intervals, *, point_col: str, point_id: str,
                     lo_col: str, hi_col: str, interval_id: str,
                     band_width: int, max_bands: int = 256):
    """All (interval_id, point_id) pairs with point value in
    [lo, hi) — a non-equi interval join. Returns a Dataset with
    columns (interval_id, point_id) named after the inputs."""
    both = _range_join_buckets(
        points, intervals, point_col=point_col, point_id=point_id,
        lo_col=lo_col, hi_col=hi_col, interval_id=interval_id,
        band_width=band_width, max_bands=max_bands)
    out_schema = pa.schema([(interval_id, pa.int64()),
                            (point_id, pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        pv, pid, iid, s, e = _bucket_ranges(df, int(band_width))
        counts = e - s
        tot = int(counts.sum())
        off = np.arange(tot) - np.repeat(np.cumsum(counts) - counts,
                                         counts)
        idx = np.repeat(s, counts) + off
        return pd.DataFrame({interval_id: np.repeat(iid, counts),
                             point_id: pid[idx]})

    return hash_group_apply(both, ["band"], bucket, out_schema=out_schema)


def range_join_count(points, intervals, *, point_col: str, point_id: str,
                     lo_col: str, hi_col: str, interval_id: str,
                     band_width: int, max_bands: int = 256):
    """Per-interval count of points in [lo, hi), zero-count intervals
    included. Each band bucket emits only (interval_id, partial_count)
    rows — the pair expansion never materializes — then a second small
    exchange sums partials, unioned with a zeros pass over the
    intervals so empty windows keep a row."""
    both = _range_join_buckets(
        points, intervals, point_col=point_col, point_id=point_id,
        lo_col=lo_col, hi_col=hi_col, interval_id=interval_id,
        band_width=band_width, max_bands=max_bands)
    part_schema = pa.schema([(interval_id, pa.int64()),
                             ("n_points", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        pv, pid, iid, s, e = _bucket_ranges(df, int(band_width))
        return pd.DataFrame({interval_id: iid, "n_points": e - s})

    partials = hash_group_apply(both, ["band"], bucket,
                                out_schema=part_schema)

    def zeros(tbl: pa.Table) -> pa.Table:
        return pa.table({
            interval_id: tbl.column(interval_id).cast(pa.int64()),
            "n_points": pa.array(np.zeros(len(tbl), np.int64))})

    def tot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(interval_id, sort=False)["n_points"].sum()
        return g.reset_index()

    z = intervals.map_batches(zeros, batch_format="pyarrow")
    return hash_group_apply(partials.union(z), [interval_id], tot,
                            out_schema=part_schema)
