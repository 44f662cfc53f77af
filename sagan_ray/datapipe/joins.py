"""Joins Ray Data lacks as primitives: backward as-of join and
equi-join, both expressed over the streaming hash exchange
(``datapipe/exchange.py``) so only key-bucketed slices ever co-locate —
no all-pairs, no driver materialization.

No sagan analog (the reference is row-at-a-time; these are relational
additions for the training-data tier). As-of semantics follow DuckDB's
``ASOF JOIN`` (backward, ties broken deterministically).

Partitioning assumption (documented per the custom-operator contract):
every key group must fit one reduce task. The exchange's skew
refinement splits oversized buckets by a finer hash of the SAME key, so
groups stay whole; a single pathological key is bounded only by that
group's own size (same stance as correlation).
"""

from __future__ import annotations

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
