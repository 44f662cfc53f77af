"""Distribution statistics over corpus signal columns.

``percentiles``: EXACT distributed quantiles via the value-histogram
decomposition — per-batch value counts (one Arrow group-by per batch),
a hash exchange summing counts per DISTINCT value, then the nearest-rank
scan over the sorted histogram. Nothing but (value, count) rows cross
the wire, and the driver only ever holds the distinct-value histogram.

Scale stance: exact quantiles of a discrete/integer signal (token
counts, char lengths, scores on a grid) have distinct-cardinality ≪ N,
so the histogram is small at any data size. For genuinely continuous
columns, quantize to a grid first (a fixed-point grid) or
accept bucketed answers — a documented caller choice, not a silent cap.

Spec (shared with the SQL oracle, spelled out rather than relying on an
engine's quantile flavor): quantile q = the element at 1-indexed rank
``ceil(q * N)`` of the sorted column (nearest-rank definition).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa

from ..exchange import hash_group_apply


def percentiles(ds, col: str, qs: list[float]):
    """Returns a small pandas DataFrame (q, value) — one row per
    requested quantile, nearest-rank semantics."""

    def counts(tbl: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(tbl.select([col]), col).aggregate(
            [([], "count_all")])
        return g.rename_columns([col, "cnt"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(col, sort=False)["cnt"].sum()
        return g.reset_index()

    hist_schema = pa.schema([(col, pa.int64()), ("cnt", pa.int64())])
    hist = hash_group_apply(
        ds.map_batches(counts, batch_format="pyarrow",
                       batch_size=65536),   # one row per distinct value
        [col], combine,                      # PER BATCH — keep batches big
        out_schema=hist_schema).to_pandas()
    # an all-empty Dataset loses its columns through to_pandas — the
    # zero-row answer is the same either way
    if len(hist) == 0:
        return pd.DataFrame({"q": pd.Series(dtype="float64"),
                             "value": pd.Series(dtype="int64")})
    hist = hist.sort_values(col).reset_index(drop=True)
    n = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    vals = hist[col].to_numpy()
    out_q, out_v = [], []
    for q in qs:
        # exact-rational rank: float ceil(0.9*n) can round UP across an
        # exact integer boundary (0.9 is not a binary float) while the
        # SQL side's ceil(DECIMAL * n) is exact
        rank = max(1, math.ceil(Fraction(str(q)) * n))
        out_q.append(float(q))
        out_v.append(int(vals[np.searchsorted(cum, rank, side="left")]))
    return pd.DataFrame({"q": out_q, "value": out_v})


def group_percentiles(ds, *, group_col: str, col: str, qs: list[float]):
    """Per-group exact nearest-rank quantiles — the grouped variant of
    ``percentiles``: per-batch (group, value) count partials (one Arrow
    group-by per 64k-row batch) cross ONE group-keyed exchange, so each
    bucket holds every (value, count) row of its groups and scans each
    group's sorted histogram independently. Returns a Dataset
    (group, q, value). Same scale stance as ``percentiles``: a group's
    DISTINCT-value histogram must fit a bucket (discrete signals — ≪ N)."""

    def counts(tbl: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(tbl.select([group_col, col]),
                            [group_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, col, "cnt"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_g, out_q, out_v = [], [], []
        for gval, sub in df.groupby(group_col, sort=False):
            h = (sub.groupby(col, sort=False)["cnt"].sum().reset_index()
                 .sort_values(col))
            n = int(h["cnt"].sum())
            cum = h["cnt"].cumsum().to_numpy()
            vals = h[col].to_numpy()
            for q in qs:
                rank = max(1, math.ceil(Fraction(str(q)) * n))
                out_g.append(gval)
                out_q.append(float(q))
                out_v.append(int(vals[np.searchsorted(cum, rank,
                                                      side="left")]))
        return pd.DataFrame({group_col: out_g, "q": out_q, "value": out_v})

    schema = pa.schema([(group_col, pa.string()), ("q", pa.float64()),
                        ("value", pa.int64())])
    return hash_group_apply(
        ds.map_batches(counts, batch_format="pyarrow", batch_size=65536),
        [group_col], bucket, out_schema=schema)


def rank_normalize(ds, *, group_col: str, col: str, id_col: str = "doc_id"):
    """Per-row rank normalization within groups: ``pct_rank``
    (SQL percent_rank: rows strictly below / (n-1), ties share) and
    ``cume_dist`` (rows <= value / n) of ``col`` inside its
    ``group_col`` partition — the per-source quality-score
    normalization staple (normalize before a GLOBAL filter so one
    verbose source can't crowd out the rest).

    Shape: one (group, value) histogram exchange (distinct-cardinality
    ≪ N — the ``percentiles`` stance), then the tiny rank table
    broadcasts back via ``ray.put`` for a map-side merge: full rows
    never shuffle. Determinism: ranks are exact integer cumsums; each
    published float is ONE int/int IEEE division — bit-equal to the
    window-function oracle."""
    import ray

    def counts(tbl: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(tbl.select([group_col, col]),
                            [group_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, col, "cnt"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby([group_col, col], sort=False)["cnt"].sum()
                .reset_index())

    hist_schema = pa.schema([(group_col, pa.string()), (col, pa.int64()),
                             ("cnt", pa.int64())])
    hist = hash_group_apply(
        ds.map_batches(counts, batch_format="pyarrow", batch_size=65536),
        [group_col], combine, out_schema=hist_schema).to_pandas()
    out_schema = pa.schema([(id_col, pa.int64()),
                            (group_col, pa.string()), (col, pa.int64()),
                            ("pct_rank", pa.float64()),
                            ("cume_dist", pa.float64())])
    if len(hist) == 0:
        import ray.data as rd
        return rd.from_arrow(out_schema.empty_table())
    hist = hist.sort_values([group_col, col]).reset_index(drop=True)
    cum = hist.groupby(group_col, sort=False)["cnt"].cumsum().to_numpy()
    cnt = hist["cnt"].to_numpy()
    n = hist.groupby(group_col, sort=False)["cnt"].transform("sum").to_numpy()
    below = (cum - cnt).astype(np.float64)
    hist["pct_rank"] = np.where(n > 1, below / np.maximum(n - 1, 1), 0.0)
    hist["cume_dist"] = cum.astype(np.float64) / n
    lut_ref = ray.put(hist.drop(columns=["cnt"]))

    def attach(tbl: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        df = tbl.select([id_col, group_col, col]).to_pandas()
        out = df.merge(lut, on=[group_col, col], how="left", sort=False)
        return pa.Table.from_pandas(
            out, schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    return ds.map_batches(attach, batch_format="pyarrow")
