"""Event-stream analytics over per-user ordered histories: sequential
funnels, cohort retention, and event-type transition matrices.

Both operators are per-key stateful scans, the shape Ray Data's
sort-based ``groupby().map_groups`` handles 10-70× too slowly for this
workload (CLAUDE.md perf notes) — so, like sessionize, they ride the
hand-rolled hash exchange (`exchange.hash_group_apply`) on ``user_id``
and do ALL per-user work vectorized over a whole bucket at once
(lexsort / np.unique / ufunc.at over segment arrays, never a per-user
Python loop).

100-TB shape: users partition cleanly by hash, so each bucket is an
independent problem; the funnel emits one row per user and retention
emits per-bucket (cohort, offset) count PARTIALS whose final combine is
bounded by key cardinality (days × days), not data size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_US_PER_DAY = 86_400_000_000
_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


def _uid_ts(df: pd.DataFrame, user_col: str, ts_col: str):
    uid = df[user_col].to_numpy()
    ts = df[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
    return uid, ts


def funnel_stages(ds, steps: list[str], *, user_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type",
                  within_us: int | None = None):
    """Per-user sequential funnel: stage i is reached iff an event of
    type ``steps[i]`` occurs STRICTLY after the user's first completion
    of stage i-1 (stage 1 is the user's earliest ``steps[0]`` event).
    With ``within_us`` set, stages 2+ must ALSO land within that many
    microseconds of the user's stage-1 time (the "convert within T"
    form — conversion windows anchor at funnel entry).
    Returns one row per user: (user_col, stage) with stage ∈ [0, len(steps)].

    Equivalent SQL is a chain of ``min(ts) ... WHERE ts > prev`` CTEs —
    see ``SQL_EVENTS_FUNNEL`` in pipelines/queries.py. Inside a bucket
    each step is one masked ``np.minimum.at`` scatter over the bucket's
    events (O(events) per step, no per-user loop); the step count is a
    small constant, so the whole funnel is ``len(steps)`` passes.

    Map-side prune: only step-type events can affect the funnel, BUT a
    user whose events are all non-step types must still appear (stage
    0), so the prune keeps each batch's first occurrence per such user
    — the exchange then moves step events + one stub row per
    stage-0-candidate user instead of the full stream."""
    from .exchange import hash_group_apply

    step_arr = np.array(steps, dtype=object)

    def prune(tbl: pa.Table) -> pa.Table:
        et = tbl.column(type_col).to_numpy(zero_copy_only=False)
        m = np.isin(et, step_arr)
        uid = tbl.column(user_col).to_numpy(zero_copy_only=False)
        # first row per user among the non-step rows (stage-0 stubs)
        rest = np.flatnonzero(~m)
        if len(rest):
            first = rest[np.unique(uid[rest], return_index=True)[1]]
            m = m.copy()
            m[first] = True
        return tbl.filter(pa.array(m))

    ds = ds.map_batches(prune, batch_format="pyarrow", batch_size=65536)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        et = df[type_col].to_numpy()
        users, inv = np.unique(uid, return_inverse=True)
        stage = np.zeros(len(users), np.int64)
        prev_t = np.full(len(users), _I64_MIN)
        deadline = np.full(len(users), _I64_MAX)
        reached_prev = np.ones(len(users), bool)
        for si, step in enumerate(steps):
            m = (et == step) & reached_prev[inv] & (ts > prev_t[inv])
            if within_us is not None:
                m &= ts <= deadline[inv]
            t_step = np.full(len(users), _I64_MAX)
            np.minimum.at(t_step, inv[m], ts[m])
            reached_prev = t_step < _I64_MAX
            stage += reached_prev
            prev_t = t_step
            if si == 0 and within_us is not None:
                # conversion window anchors at the stage-1 time
                deadline = np.where(reached_prev, t_step + within_us,
                                    _I64_MIN)
        return pd.DataFrame({user_col: users, "stage": stage})

    schema = pa.schema([(user_col, pa.int64()), ("stage", pa.int64())])
    return hash_group_apply(ds, [user_col], bucket, out_schema=schema)


def cohort_retention(ds, *, user_col: str = "user_id", ts_col: str = "ts"):
    """Cohort retention counts: cohort_day = epoch day of the user's
    FIRST event; for every distinct (user, active day) pair the user
    counts once toward (cohort_day, day_offset). Returns
    (cohort_day, day_offset, n_users) — the classic retention triangle.

    Each user lives in exactly one exchange bucket, so per-bucket
    (cohort, offset) counts are disjoint user sets and sum exactly; the
    driver-side combine is over ≤ days² × n_buckets tiny rows.

    Map-side prune: only distinct (user, epoch day) pairs matter (both
    the per-user min and the distinct-active-days set are preserved
    under per-batch dedup), so each batch pre-collapses to its distinct
    pairs before the exchange."""
    from .exchange import hash_group_apply

    def prune(tbl: pa.Table) -> pa.Table:
        uid = tbl.column(user_col).to_numpy(zero_copy_only=False)
        ts = (tbl.column(ts_col).cast(pa.timestamp("us"))
              .to_numpy(zero_copy_only=False).astype(np.int64))
        pair = np.unique(uid.astype(np.int64) * (1 << 20)
                         + ts // _US_PER_DAY % (1 << 20))
        # day < 2^20 epoch days holds until year 4840; uid*2^20 stays
        # exact while uid < 2^43
        return pa.table({user_col: pa.array(pair >> 20, pa.int64()),
                         "__day": pa.array(pair & ((1 << 20) - 1),
                                           pa.int64())})

    ds = ds.map_batches(prune, batch_format="pyarrow", batch_size=65536)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid = df[user_col].to_numpy()
        day = df["__day"].to_numpy()
        users, inv = np.unique(uid, return_inverse=True)
        cohort = np.full(len(users), _I64_MAX)
        np.minimum.at(cohort, inv, day)
        # distinct (user, day) via one combined-key unique (day spans
        # decades before inv*2^24 could collide with real offsets)
        pair = np.unique(inv.astype(np.int64) * (1 << 24)
                         + (day - cohort[inv]))
        key = cohort[pair >> 24] * (1 << 24) + (pair & ((1 << 24) - 1))
        uk, n = np.unique(key, return_counts=True)
        return pd.DataFrame({
            "cohort_day": uk >> 24,
            "day_offset": uk & ((1 << 24) - 1),
            "n_users": n.astype(np.int64),
        })

    schema = pa.schema([("cohort_day", pa.int64()),
                        ("day_offset", pa.int64()),
                        ("n_users", pa.int64())])
    parts = hash_group_apply(ds, [user_col], bucket,
                             out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"cohort_day": pd.Series([], dtype="int64"),
                             "day_offset": pd.Series([], dtype="int64"),
                             "n_users": pd.Series([], dtype="int64")})
    out = (parts.groupby(["cohort_day", "day_offset"], as_index=False)
           ["n_users"].sum())
    return out.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


def transition_counts(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                      type_col: str = "event_type",
                      id_col: str = "event_id"):
    """Corpus-wide first-order transition matrix: count consecutive
    (from_type, to_type) pairs within each user's (ts, id)-ordered
    stream — the Markov-chain summary of behavioral sequences. Returns
    (from_type, to_type, n) sorted.

    Same partitioning argument as cohort_retention: each user's stream
    lives whole in one exchange bucket, so per-bucket pair counts are
    exact partials and the driver combine is bounded by |types|², not
    data. Inside a bucket: one lexsort + one shifted-comparison mask +
    one np.unique over integer pair codes — no per-user loop."""
    from .exchange import hash_group_apply

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy()
        et = df[type_col].to_numpy()
        types, code = np.unique(et, return_inverse=True)
        o = np.lexsort((eid, ts, uid))
        uid, code = uid[o], code[o]
        same = uid[1:] == uid[:-1]
        pair = code[:-1][same].astype(np.int64) * len(types) + code[1:][same]
        up, n = np.unique(pair, return_counts=True)
        return pd.DataFrame({
            "from_type": types[up // len(types)],
            "to_type": types[up % len(types)],
            "n": n.astype(np.int64),
        })

    schema = pa.schema([("from_type", pa.string()), ("to_type", pa.string()),
                        ("n", pa.int64())])
    parts = hash_group_apply(ds, [user_col], bucket,
                             out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"from_type": pd.Series([], dtype="object"),
                             "to_type": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    out = (parts.groupby(["from_type", "to_type"], as_index=False)["n"]
           .sum())
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def props_key_agg(ds, *, key: str = "k", group_col: str = "event_type",
                  props_col: str = "props"):
    """Grouped aggregates of one integer key extracted from a JSON
    ``props`` column: (group, n_with_key, sum_k, min_k, max_k) — the
    ubiquitous semi-structured-payload rollup (every event log carries
    a props blob; pulling one metric out shouldn't deserialize the
    whole object). Returns a small pandas frame.

    Shape: a vectorized RE2 ``extract_regex`` pass per batch (the
    integer-valued-key fast path — no per-row json.loads), per-batch
    partial (group, n, s, mn, mx) rows, driver folds O(groups ×
    batches). All columns exact int64, so the gate compares
    bit-exactly against DuckDB's json_extract_string cast."""
    import pyarrow.compute as pc

    import re as _re

    # integer-LITERAL values only, FLAT-MAP convention: the spec is
    # this exact RE2 pattern (the oracle runs the SAME pattern through
    # DuckDB's regexp_extract, also RE2) — digits must be followed by a
    # JSON delimiter, so "k": 1.5 / "k": 1e3 are ignored rather than
    # truncated; a "k" inside a NESTED object also matches (props blobs
    # are flat maps per the json-input.map convention — use a real JSON
    # path extractor for nested payloads)
    pat = '"' + _re.escape(key) + '":\\s*(?P<v>-?\\d+)\\s*[,}]'

    def part(tbl: pa.Table) -> pa.Table:
        ex = pc.extract_regex(tbl.column(props_col).cast(pa.large_string()),
                              pat)
        k = pc.cast(pc.struct_field(ex, "v"), pa.int64())
        df = pd.DataFrame({group_col: tbl.column(group_col).to_pandas(),
                           "k": k.to_pandas()})
        g = df.dropna().groupby(group_col)["k"]
        out = pd.DataFrame({"n": g.size(), "s": g.sum(),
                            "mn": g.min(), "mx": g.max()}).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            pa.schema([(group_col, pa.string()), ("n", pa.int64()),
                       ("s", pa.int64()), ("mn", pa.int64()),
                       ("mx", pa.int64())])).replace_schema_metadata(None)

    parts = ds.map_batches(part, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if len(parts) == 0:
        return pd.DataFrame({group_col: pd.Series(dtype="object"),
                             "n_with_key": pd.Series(dtype="int64"),
                             "sum_k": pd.Series(dtype="int64"),
                             "min_k": pd.Series(dtype="int64"),
                             "max_k": pd.Series(dtype="int64")})
    g = parts.groupby(group_col)
    out = pd.DataFrame({
        "n_with_key": g["n"].sum(), "sum_k": g["s"].sum(),
        "min_k": g["mn"].min(), "max_k": g["mx"].max()}).reset_index()
    return (out.astype({"n_with_key": "int64", "sum_k": "int64",
                        "min_k": "int64", "max_k": "int64"})
            .sort_values(group_col).reset_index(drop=True))


def debounce(ds, *, user_col: str = "user_id", ts_col: str = "ts",
             id_col: str = "event_id", type_col: str = "event_type",
             gap_us: int = 600_000_000):
    """Collapse rapid repeats: keep an event iff it is the FIRST of its
    (user, type) stream or arrived STRICTLY more than ``gap_us``
    microseconds after the previous event of that stream (lag-based
    debounce — the previous event counts whether or not it survived,
    which keeps the spec a pure window function on both sides).
    Timestamps stay int64 microseconds, every comparison exact. One
    user-keyed exchange; in-bucket sorted shift-diff, no per-group
    loop. Returns surviving (event_id, user_id, event_type, ts)."""
    from .exchange import hash_group_apply

    def slim(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         user_col: tbl.column(user_col).cast(pa.int64()),
                         type_col: tbl.column(type_col),
                         ts_col: tbl.column(ts_col)})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        return debounce_frame(df, user_col=user_col, ts_col=ts_col,
                              id_col=id_col, type_col=type_col,
                              gap_us=gap_us)

    schema = pa.schema([(id_col, pa.int64()), (user_col, pa.int64()),
                        (type_col, pa.string()),
                        (ts_col, pa.timestamp("us"))])
    return hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema)


def debounce_frame(df: pd.DataFrame, *, user_col: str = "user_id",
                   ts_col: str = "ts", id_col: str = "event_id",
                   type_col: str = "event_type",
                   gap_us: int = 600_000_000) -> pd.DataFrame:
    """The in-bucket debounce kernel (module-level so the property tests
    can compare it against a per-stream sequential loop without Ray):
    sorted shift-diff over (user, type, ts, id)-ordered rows."""
    df = df.sort_values([user_col, type_col, ts_col, id_col],
                        kind="mergesort")
    uid = df[user_col].to_numpy()
    et = df[type_col].to_numpy()
    ts = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    new_grp = np.ones(len(df), dtype=bool)
    if len(df) > 1:
        new_grp[1:] = (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])
    diff = np.empty(len(df), dtype=np.int64)
    if len(df):
        diff[0] = 0
        diff[1:] = ts[1:] - ts[:-1]
    keep = new_grp | (diff > gap_us)
    return df[keep]
