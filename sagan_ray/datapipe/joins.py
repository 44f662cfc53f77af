"""The equi-join Ray Data lacks as a primitive, expressed over the
streaming hash exchange (``sagan_ray/exchange.py``) so only
key-bucketed slices ever co-locate — no all-pairs, no driver
materialization.

No sagan analog (the reference is row-at-a-time; this is a relational
addition for the training-data tier).

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

from ..exchange import hash_group_apply

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
