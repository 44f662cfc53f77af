"""Column profiling — the data-quality report a pipeline runs on every
new snapshot before spending compute on it (row/null counts, exact
distinct cardinality, value range per column). Beyond the reference's
scope; verified against a real SQL oracle (DuckDB aggregates per
column).

Distinct counting is exact but HASH-keyed (value-pure hash64 per
distinct value per batch through the column-keyed exchange — the
``dedup_exact`` stance: values themselves never shuffle, so profiling a
100-TB text column moves 8 bytes per distinct-per-block value, not the
text). min/max ship as strings (per-block partials are one row per
column); profiled columns should be int or ASCII string — float
formatting and non-ASCII collation differ between str() and SQL CAST,
so the spec restricts to types where the two agree byte-for-byte.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_array_pure


def profile_table(ds, columns: list[str], *, ds_distinct=None):
    """One row per profiled column: (column, n_rows, n_nulls,
    n_distinct, min_v, max_v) with min/max as strings. ``ds_distinct``
    (optional) supplies a second Dataset over the same input for the
    distinct pass (branching one Dataset re-executes its whole prefix;
    pass two reads of the same parquet instead)."""
    import pandas as pd
    import ray.data as rd

    from ..exchange import hash_group_apply

    cols = list(columns)

    # ---- pass A: per-block (column, n, nulls, min, max) partials ----
    # min/max partials stay TYPED (int64 vs string columns side by side)
    # so the driver combine compares natively — a stringified partial
    # would make '10' < '9' and corrupt integer ranges across blocks;
    # stringification happens once, after the global reduce, matching
    # the SQL's CAST(min(col) AS VARCHAR).
    def stats_part(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        names, ns, nulls = [], [], []
        min_i, max_i, min_s, max_s = [], [], [], []
        for c in cols:
            col = tbl.column(c)
            names.append(c)
            ns.append(tbl.num_rows)
            nulls.append(int(col.null_count))
            valid = col.drop_null()
            lo = pc.min(valid).as_py() if len(valid) else None
            hi = pc.max(valid).as_py() if len(valid) else None
            if isinstance(lo, str) or isinstance(hi, str):
                min_i.append(None)
                max_i.append(None)
                min_s.append(lo)
                max_s.append(hi)
            else:
                min_i.append(lo)
                max_i.append(hi)
                min_s.append(None)
                max_s.append(None)
        return pa.table({"column": pa.array(names, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "nulls": pa.array(nulls, pa.int64()),
                         "min_i": pa.array(min_i, pa.int64()),
                         "max_i": pa.array(max_i, pa.int64()),
                         "min_s": pa.array(min_s, pa.string()),
                         "max_s": pa.array(max_s, pa.string())})

    stats = (ds.map_batches(stats_part, batch_format="pyarrow",
                            batch_size=None).to_pandas())

    # ---- pass B: exact distinct via per-batch distinct hash partials ----
    def distinct_part(tbl: pa.Table) -> pa.Table:
        outc, outh = [], []
        for c in cols:
            v = tbl.column(c).drop_null().to_pandas().to_numpy()
            if not len(v):
                continue
            h = np.unique(hash_array_pure(v).astype(np.uint64))
            outc.extend([c] * len(h))
            outh.extend(h.tolist())
        return pa.table({"column": pa.array(outc, pa.string()),
                         "h": pa.array(outh, pa.uint64())})

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates(subset=["column", "h"])
             .groupby("column", sort=False, observed=True)
             .size().reset_index(name="d"))
        return g.astype({"d": "int64"})

    src = ds_distinct if ds_distinct is not None else ds
    parts = src.map_batches(distinct_part, batch_format="pyarrow",
                            batch_size=None)
    dcounts = hash_group_apply(
        parts, ["column", "h"], count_bucket,
        out_schema=pa.schema([("column", pa.string()),
                              ("d", pa.int64())])).to_pandas()
    if len(dcounts):
        dist = dcounts.groupby("column", sort=False).agg(
            n_distinct=("d", "sum")).reset_index()
    else:
        dist = pd.DataFrame({"column": [], "n_distinct": []})

    # ---- driver combine (|columns| × |blocks| rows) ----
    agg = stats.groupby("column", sort=False).agg(
        n_rows=("n", "sum"), n_nulls=("nulls", "sum"),
        min_i=("min_i", "min"), max_i=("max_i", "max"),
        min_s=("min_s", "min"), max_s=("max_s", "max")).reset_index()
    is_int = agg["min_i"].notna()
    agg["min_v"] = np.where(
        is_int, agg["min_i"].map(
            lambda v: str(int(v)) if pd.notna(v) else None),
        agg["min_s"])
    agg["max_v"] = np.where(
        is_int, agg["max_i"].map(
            lambda v: str(int(v)) if pd.notna(v) else None),
        agg["max_s"])
    out = agg.merge(dist, on="column", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out = out[["column", "n_rows", "n_nulls", "n_distinct",
               "min_v", "max_v"]]
    out = out.sort_values("column").reset_index(drop=True)
    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))


def validate_table(ds, constraints: list[tuple], *, ds_unique=None):
    """Declarative constraint validation — one (kind, col, violations)
    row per constraint (the expectation-suite shape a pipeline gates a
    new snapshot on before training touches it). Constraints:

      ("not_null", col)            rows where col IS NULL
      ("unique", col)              non-null rows minus distinct values
      ("range", col, (lo, hi))     non-null rows outside [lo, hi]
      ("regex", col, pattern)      non-null rows NOT matching (RE2
                                   partial-match — anchor the pattern
                                   for full-match, as in SQL
                                   regexp_matches)
      ("in_set", col, values)      non-null rows outside the set

    Everything except ``unique`` is one vectorized map pass emitting a
    |constraints|-row count partial per batch (summed on the driver —
    tiny). ``unique`` rides the same hash-keyed distinct exchange as
    ``profile_table`` (8 bytes per distinct-per-block value; values
    never shuffle). ``ds_unique`` supplies a second Dataset over the
    same input for that pass (branch-reexecution rule)."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ..exchange import hash_group_apply

    cons = [tuple(c) for c in constraints]
    for c in cons:
        if c[0] not in ("not_null", "unique", "range", "regex", "in_set"):
            raise ValueError(f"unknown constraint kind {c[0]!r}")
    scan = [c for c in cons if c[0] != "unique"]
    uniq_cols = sorted({c[1] for c in cons if c[0] == "unique"})

    def part(tbl: pa.Table) -> pa.Table:
        kinds, names, viol = [], [], []
        for c in scan:
            kind, col = c[0], tbl.column(c[1])
            if kind == "not_null":
                bad = int(col.null_count)
            else:
                v = col.drop_null()
                if kind == "range":
                    lo, hi = c[2]
                    m = pc.or_(pc.less(v, lo), pc.greater(v, hi))
                elif kind == "regex":
                    m = pc.invert(pc.match_substring_regex(v, c[2]))
                else:
                    m = pc.invert(pc.is_in(
                        v, value_set=pa.array(list(c[2]), v.type)))
                bad = int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
            kinds.append(kind)
            names.append(c[1])
            viol.append(bad)
        for c in uniq_cols:   # non-null totals for the unique combine
            kinds.append("_nonnull")
            names.append(c)
            viol.append(tbl.num_rows - int(tbl.column(c).null_count))
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "col": pa.array(names, pa.string()),
                         "violations": pa.array(viol, pa.int64())})

    partials = ds.map_batches(part, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    agg = (partials.groupby(["kind", "col"], sort=False)["violations"]
           .sum().reset_index())

    rows = []
    if uniq_cols:
        def distinct_part(tbl: pa.Table) -> pa.Table:
            outc, outh = [], []
            for c in uniq_cols:
                v = tbl.column(c).drop_null().to_pandas().to_numpy()
                if not len(v):
                    continue
                h = np.unique(hash_array_pure(v).astype(np.uint64))
                outc.extend([c] * len(h))
                outh.extend(h.tolist())
            return pa.table({"col": pa.array(outc, pa.string()),
                             "h": pa.array(outh, pa.uint64())})

        def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
            g = (df.drop_duplicates(subset=["col", "h"])
                 .groupby("col", sort=False, observed=True)
                 .size().reset_index(name="d"))
            return g.astype({"d": "int64"})

        src = ds_unique if ds_unique is not None else ds
        dparts = src.map_batches(distinct_part, batch_format="pyarrow",
                                 batch_size=None)
        dc = hash_group_apply(
            dparts, ["col", "h"], count_bucket,
            out_schema=pa.schema([("col", pa.string()),
                                  ("d", pa.int64())])).to_pandas()
        dist = (dc.groupby("col", sort=False)["d"].sum().to_dict()
                if len(dc) else {})
        nn = agg[agg["kind"] == "_nonnull"].set_index("col")["violations"]
        for c in uniq_cols:
            rows.append(("unique", c,
                         int(nn.get(c, 0)) - int(dist.get(c, 0))))
    keep = agg[agg["kind"] != "_nonnull"]
    rows.extend(zip(keep["kind"], keep["col"], keep["violations"]))
    out = (pd.DataFrame(rows, columns=["kind", "col", "violations"])
           .astype({"violations": "int64"})
           .sort_values(["kind", "col"]).reset_index(drop=True))
    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))
