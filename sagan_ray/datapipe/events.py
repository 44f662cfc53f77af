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


def sequence_counts(ds, k: int = 3, *, user_col: str = "user_id",
                    ts_col: str = "ts", type_col: str = "event_type",
                    id_col: str = "event_id"):
    """Corpus-wide consecutive event-type ``k``-gram counts within each
    user's (ts, id)-ordered stream — the k-step generalization of
    ``transition_counts`` (behavioral sequence mining: which 3-step
    paths dominate). Returns (t1..tk, n) sorted.

    Same partitioning argument: every user's stream lives whole in one
    exchange bucket, so per-bucket k-gram counts are exact partials and
    the driver combine is bounded by |types|^k rows (types is the tiny
    categorical vocabulary, not data — document k ≤ ~4 at 100 TB).
    Inside a bucket: one lexsort + a shifted same-user AND-mask + one
    np.unique over Horner-coded int64 k-grams — no per-user loop."""
    from .exchange import hash_group_apply

    assert k >= 2
    cols = [f"t{i + 1}" for i in range(k)]

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy()
        et = df[type_col].to_numpy()
        types, code = np.unique(et, return_inverse=True)
        o = np.lexsort((eid, ts, uid))
        uid, code = uid[o], code[o].astype(np.int64)
        if len(uid) < k:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in cols},
                                 "n": pd.Series([], dtype="int64")})
        same = uid[1:] == uid[:-1]
        m = len(uid) - k + 1
        mask = np.ones(m, dtype=bool)
        gram = code[:m].copy()
        for j in range(1, k):
            mask &= same[j - 1:j - 1 + m]
            gram = gram * len(types) + code[j:j + m]
        ug, n = np.unique(gram[mask], return_counts=True)
        out = {}
        for j in range(k - 1, -1, -1):
            out[cols[j]] = types[ug % len(types)]
            ug = ug // len(types)
        out["n"] = n.astype(np.int64)
        return pd.DataFrame(out)

    schema = pa.schema([(c, pa.string()) for c in cols]
                       + [("n", pa.int64())])
    parts = hash_group_apply(ds, [user_col], bucket,
                             out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                for c in cols},
                             "n": pd.Series([], dtype="int64")})
    out = parts.groupby(cols, as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(cols).reset_index(drop=True)


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


def step_latency(ds, step_a: str, step_b: str, *,
                 user_col: str = "user_id", ts_col: str = "ts",
                 type_col: str = "event_type"):
    """Per-user conversion latency: (user, t_a, t_b, latency_us) for
    users with a ``step_b`` event STRICTLY after their first ``step_a``
    event, t_b the earliest such — the time-to-convert distribution
    behind funnel dashboards. Timestamps stay int64 microseconds, so
    every column is exact.

    Shape: map-side prune to the two step types (non-converting users
    drop out map-side entirely — no stage-0 stubs needed), one user
    exchange, per-bucket masked ``np.minimum.at`` passes (no per-user
    loop)."""
    from .exchange import hash_group_apply

    def prune(tbl: pa.Table) -> pa.Table:
        et = tbl.column(type_col).to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array((et == step_a) | (et == step_b)))

    ds = ds.map_batches(prune, batch_format="pyarrow", batch_size=65536)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        et = df[type_col].to_numpy()
        users, inv = np.unique(uid, return_inverse=True)
        ta = np.full(len(users), _I64_MAX)
        ma = et == step_a
        np.minimum.at(ta, inv[ma], ts[ma])
        tb = np.full(len(users), _I64_MAX)
        mb = (et == step_b) & (ts > ta[inv])
        np.minimum.at(tb, inv[mb], ts[mb])
        ok = (ta < _I64_MAX) & (tb < _I64_MAX)
        return pd.DataFrame({user_col: users[ok], "t_a": ta[ok],
                             "t_b": tb[ok],
                             "latency_us": tb[ok] - ta[ok]})

    schema = pa.schema([(user_col, pa.int64()), ("t_a", pa.int64()),
                        ("t_b", pa.int64()), ("latency_us", pa.int64())])
    return hash_group_apply(ds, [user_col], bucket, out_schema=schema)


def running_totals(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                   id_col: str = "event_id", value_col: str = "value"):
    """Per-event running totals within each user's stream: for every
    event, the cumulative sum of ``value`` and the 1-based event rank
    over the user's events ordered by (ts, event_id) — the
    ROWS UNBOUNDED PRECEDING window frame (running balances, lifetime
    spend-to-date, nth-event numbering).

    Distributed shape: user-keyed exchange of the four pruned columns;
    inside a bucket one lexsort by (user, ts, id) then pandas' grouped
    cumsum/cumcount (Cython, sequential left-to-right within each
    group — the same add order as the SQL window accumulator, so
    per-row sums agree to the last ulp; the gate's tolerance is moot)."""
    from .exchange import hash_group_apply

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("run_sum", pa.float64()),
                            ("run_cnt", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy()
        val = df[value_col].to_numpy(np.float64)
        o = np.lexsort((eid, ts, uid))
        g = pd.DataFrame({"u": uid[o], "v": val[o]})
        gb = g.groupby("u", sort=False)
        return pd.DataFrame({
            id_col: eid[o],
            "run_sum": gb["v"].cumsum().to_numpy(),
            "run_cnt": gb.cumcount().to_numpy() + 1})

    cols = ds.map_batches(
        lambda t: t.select([id_col, user_col, ts_col, value_col]),
        batch_format="pyarrow", batch_size=65536)
    return hash_group_apply(cols, [user_col], bucket,
                            out_schema=out_schema)


def window_topk(ds, *, ts_col: str = "ts", key_col: str = "user_id",
                unit: str = "hour", k: int = 3):
    """Per-tumbling-window top-k keys by event count — the streaming
    "top talkers per hour" report. Map side pre-collapses each batch to
    (window, key, n) via one Arrow group-by (the partial-aggregate
    stance: full rows never shuffle), the window-keyed exchange sums
    partials and ranks in-bucket with deterministic ties
    (n desc, key asc — the SQL row_number order). Returns a Dataset
    (window, key, n, rank ≤ k)."""
    import pyarrow.compute as pc

    from .exchange import hash_group_apply

    def partial(tbl: pa.Table) -> pa.Table:
        win = pc.floor_temporal(tbl.column(ts_col), unit=unit)
        t = pa.table({"window": win, key_col: tbl.column(key_col)})
        g = pa.TableGroupBy(t, ["window", key_col]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["window", key_col, "n"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = (df.groupby(["window", key_col], sort=False)["n"].sum()
              .reset_index())
        df = df.sort_values(["window", "n", key_col],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.groupby("window", sort=False).head(k).copy()
        df["rank"] = (df.groupby("window", sort=False).cumcount() + 1
                      ).astype(np.int64)
        return df

    schema = pa.schema([("window", pa.timestamp("us")),
                        (key_col, pa.int64()), ("n", pa.int64()),
                        ("rank", pa.int64())])
    return hash_group_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["window"], bucket, out_schema=schema)


def window_rate_limit(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                      id_col: str = "event_id", unit: str = "hour",
                      limit: int = 5):
    """Per-(user, tumbling window) rate limiting: keep each user's
    FIRST ``limit`` events per window in (ts, id) order and drop the
    rest — threshold.c's ``limit`` semantics lifted to the events
    table (flood control before an expensive downstream stage). One
    user-keyed exchange; in-bucket grouped cumcount over the SQL frame
    order, so survivors are exactly the oracle's
    row_number() ≤ limit set. Returns the surviving rows
    (event_id, user_id, window, ts)."""
    import pyarrow.compute as pc

    from .exchange import hash_group_apply

    def tag(tbl: pa.Table) -> pa.Table:
        win = pc.floor_temporal(tbl.column(ts_col), unit=unit)
        return pa.table({id_col: tbl.column(id_col).cast(pa.int64()),
                         user_col: tbl.column(user_col).cast(pa.int64()),
                         "window": win,
                         ts_col: tbl.column(ts_col)})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([user_col, "window", ts_col, id_col],
                            kind="mergesort")
        pos = df.groupby([user_col, "window"], sort=False).cumcount()
        return df[pos < limit]

    schema = pa.schema([(id_col, pa.int64()), (user_col, pa.int64()),
                        ("window", pa.timestamp("us")),
                        (ts_col, pa.timestamp("us"))])
    return hash_group_apply(
        ds.map_batches(tag, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema)


def _window_counts(ds, *, ts_col: str, group_col: str, unit: str):
    """Shared (group, x, n) window-count partial + driver fold for the
    per-group series operators (type_trend / ses_forecast /
    holt_forecast / cusum_alarm): map side pre-collapses each batch to
    its (group, window-index, count) rows, the tiny histogram sums
    driver-side. Returns a pandas frame with columns
    (group_col, "x", "n") — empty WITH those columns when the input
    has no rows (the all-empty ``to_pandas()`` column-loss gotcha,
    CLAUDE.md round-3)."""
    import pyarrow.compute as pc

    unit_us = {"hour": 3_600_000_000, "day": 86_400_000_000}[unit]

    def partial(tbl: pa.Table) -> pa.Table:
        win = pc.floor_temporal(tbl.column(ts_col), unit=unit)
        x = pc.divide(pc.cast(win, pa.int64()), unit_us)
        t = pa.table({group_col: tbl.column(group_col), "x": x})
        g = pa.TableGroupBy(t, [group_col, "x"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([group_col, "x", "n"])

    h = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    if h.empty:
        return pd.DataFrame({group_col: pd.Series([], dtype=object),
                             "x": pd.Series([], dtype=np.int64),
                             "n": pd.Series([], dtype=np.int64)})
    return (h.groupby([group_col, "x"], sort=True)["n"].sum()
            .reset_index())


def type_trend(ds, *, ts_col: str = "ts", group_col: str = "event_type",
               unit: str = "day"):
    """Per-group event-rate TREND: the OLS slope of daily (or hourly)
    event counts against the time index — the monitoring signal behind
    "is this alert type ramping up". Map side pre-collapses to
    (group, window, n); the tiny per-group series folds driver-side
    (groups × windows rows). Determinism: with x = epoch-unit index and
    y = count, every OLS sum (Σx, Σy, Σxy, Σx², n) is an exact int64,
    so slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²) is ONE float division
    on both sides — bit-equal to the SQL that spells out the same
    sums. Windows with zero events contribute nothing (the SQL
    convention; a gap-filled variant would densify first). Returns
    pandas (group, n_windows, slope)."""
    h = _window_counts(ds, ts_col=ts_col, group_col=group_col,
                       unit=unit)
    out_g, out_w, out_s = [], [], []
    for gval, sub in h.groupby(group_col, sort=True):
        x = sub["x"].to_numpy(np.int64)
        y = sub["n"].to_numpy(np.int64)
        n = len(x)
        # exact integer sums (x rebased to the group min so products
        # stay far below 2^63 at any epoch)
        x = x - x.min()
        sx, sy = int(x.sum()), int(y.sum())
        sxy = int((x * y).sum())
        sxx = int((x * x).sum())
        den = n * sxx - sx * sx
        slope = float(n * sxy - sx * sy) / float(den) if den else 0.0
        out_g.append(gval)
        out_w.append(n)
        out_s.append(slope)
    return pd.DataFrame({group_col: out_g, "n_windows": out_w,
                         "slope": out_s})


def ses_forecast(ds, *, ts_col: str = "ts",
                 group_col: str = "event_type", unit: str = "day"):
    """Per-group simple-exponential-smoothing forecast (α = 1/2) of
    the daily event-count series — the one-step-ahead load forecast a
    monitoring pipeline keeps per alert type. Same partial shape as
    ``type_trend``: map side pre-collapses to (group, window, n); the
    tiny (groups × windows) series folds driver-side in window order:
    s₁ = x₁, s_t = (s_{t-1} + x_t) / 2.

    Determinism: the fold is the SAME IEEE op sequence the SQL
    oracle's recursive CTE performs — one double add + one divide per
    step, applied in the same order — so the result is bit-identical
    even once 2^-t terms round (the operand-identical-expression
    stance, applied sequentially). Windows with zero events contribute
    nothing (the ``type_trend`` convention). Returns pandas
    (group, n_windows, forecast)."""
    h = _window_counts(ds, ts_col=ts_col, group_col=group_col,
                       unit=unit)
    out_g, out_w, out_s = [], [], []
    for gval, sub in h.groupby(group_col, sort=True):
        y = sub.sort_values("x")["n"].to_numpy(np.int64)
        s = float(y[0])
        for v in y[1:]:
            s = (s + float(v)) / 2.0
        out_g.append(gval)
        out_w.append(len(y))
        out_s.append(s)
    return pd.DataFrame({group_col: out_g, "n_windows": out_w,
                         "forecast": out_s})


def holt_forecast(ds, *, ts_col: str = "ts",
                  group_col: str = "event_type", unit: str = "day"):
    """Per-group Holt double-exponential smoothing (α = β = 1/2,
    l₁ = x₁, b₁ = 0) of the daily count series — ``ses_forecast``'s
    trend-aware sibling: l_t = (x_t + (l_{t-1}+b_{t-1}))/2,
    b_t = (b_{t-1} + (l_t − l_{t-1}))/2, forecast = l_n + b_n.

    Determinism: TWO coupled recurrences, still bit-identical to the
    SQL oracle because both sides perform the SAME IEEE op sequence in
    the same order each step (the recursive CTE recomputes the l_t
    expression textually inside b_t — identical operands give the
    identical double). Same (group, window, n) partial shape as
    ``type_trend``. Returns pandas (group, n_windows, level, trend,
    forecast)."""
    h = _window_counts(ds, ts_col=ts_col, group_col=group_col,
                       unit=unit)
    out = []
    for gval, sub in h.groupby(group_col, sort=True):
        y = sub.sort_values("x")["n"].to_numpy(np.int64)
        l = float(y[0])
        b = 0.0
        for v in y[1:]:
            lt = (float(v) + (l + b)) / 2.0
            b = (b + (lt - l)) / 2.0
            l = lt
        out.append((gval, len(y), l, b, l + b))
    return pd.DataFrame(out, columns=[group_col, "n_windows", "level",
                                      "trend", "forecast"])


def cusum_alarm(ds, *, ts_col: str = "ts",
                group_col: str = "event_type", unit: str = "day",
                slack: float = 0.5):
    """Per-group one-sided CUSUM over the daily count series (Page
    1954) — the change-point/monitoring companion to
    ``ses_forecast``/``holt_forecast``: with μ = the group's own mean
    daily count and k = ``slack``, s₀ = 0,
    s_t = max(0, s_{t-1} + (x_t − μ − k)); reports the final statistic
    and the series max (the alarm level a threshold would compare
    against). μ = Σn/nw is ONE double division computed identically on
    both sides; the fold is the same IEEE op sequence as the recursive
    CTE (greatest(0, ...)), so both floats are bit-identical. Returns
    pandas (group, n_windows, mu, cusum_final, cusum_max)."""
    h = _window_counts(ds, ts_col=ts_col, group_col=group_col,
                       unit=unit)
    out = []
    for gval, sub in h.groupby(group_col, sort=True):
        y = sub.sort_values("x")["n"].to_numpy(np.int64)
        mu = float(int(y.sum())) / float(len(y))
        s = 0.0
        smax = 0.0
        for v in y:
            s = max(0.0, s + (float(v) - mu - slack))
            smax = max(smax, s)
        out.append((gval, len(y), mu, s, smax))
    return pd.DataFrame(out, columns=[group_col, "n_windows", "mu",
                                      "cusum_final", "cusum_max"])


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


def basket_pairs(ds, *, user_col: str = "user_id",
                 type_col: str = "event_type"):
    """Market-basket co-occurrence over users: for every unordered pair
    of DISTINCT event types (type_a < type_b lexicographically), count
    the users whose streams contain both. Returns (type_a, type_b,
    n_users) sorted — the support matrix behind "users who error also
    click" style association mining.

    Shape: a map-side distinct prune collapses each batch to its unique
    (user, type) rows — the exchange then carries at most
    users × |types| slim rows, never events. Each user lives whole in
    one bucket, so per-bucket pair counts are exact partials; pairs per
    user are ≤ |types|·(|types|-1)/2 (the tiny categorical vocabulary,
    not data — no skew cap needed, unlike the dedup candidate buckets).
    In-bucket: np.unique over (uid, type-code), offset-arange pair
    construction (dedup._group_pairs_idx), one np.unique over pair
    codes. Driver combine is bounded by |types|² rows."""
    from .dedup import _group_pairs_idx
    from .exchange import hash_group_apply

    def prune(tbl: pa.Table) -> pa.Table:
        uid = tbl.column(user_col).to_numpy().astype(np.int64)
        et = tbl.column(type_col).to_numpy(zero_copy_only=False)
        types, code = np.unique(et, return_inverse=True)
        o = np.lexsort((code, uid))
        u_s, c_s = uid[o], code[o]
        new = np.ones(len(u_s), dtype=bool)
        new[1:] = (u_s[1:] != u_s[:-1]) | (c_s[1:] != c_s[:-1])
        return pa.table({user_col: pa.array(u_s[new], pa.int64()),
                         type_col: pa.array(types[c_s[new]], pa.string())})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid = df[user_col].to_numpy().astype(np.int64)
        et = df[type_col].to_numpy()
        types, code = np.unique(et, return_inverse=True)
        o = np.lexsort((code, uid))
        u_s, c_s = uid[o], code[o].astype(np.int64)
        new = np.ones(len(u_s), dtype=bool)
        if len(u_s):
            new[1:] = (u_s[1:] != u_s[:-1]) | (c_s[1:] != c_s[:-1])
        u_s, c_s = u_s[new], c_s[new]
        counts = np.bincount(
            np.unique(u_s, return_inverse=True)[1]) if len(u_s) else \
            np.empty(0, np.int64)
        ai, bi = _group_pairs_idx(counts)
        # rows are (user, code-asc) within each user, so c_s[ai] <
        # c_s[bi] already — the pair is lexicographic by construction
        pair = c_s[ai] * len(types) + c_s[bi]
        up, n = np.unique(pair, return_counts=True)
        return pd.DataFrame({
            "type_a": types[up // len(types)],
            "type_b": types[up % len(types)],
            "n_users": n.astype(np.int64),
        })

    schema = pa.schema([("type_a", pa.string()), ("type_b", pa.string()),
                        ("n_users", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(prune, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"type_a": pd.Series([], dtype="object"),
                             "type_b": pd.Series([], dtype="object"),
                             "n_users": pd.Series([], dtype="int64")})
    out = (parts.groupby(["type_a", "type_b"], as_index=False)["n_users"]
           .sum())
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def active_users(ds, *, user_col: str = "user_id", ts_col: str = "ts"):
    """Daily activity report: one row per calendar day with the EXACT
    distinct-user count (DAU), the event count, the containing month's
    exact distinct-user count (MAU) and stickiness = DAU / MAU — the
    product-analytics staple.

    Shape: the events stream is scanned ONCE. Each batch pre-collapses
    to its distinct (period, user) pairs with a count for BOTH period
    granularities (the dedupe-before-shuffle shape of
    events_window_distinct), tagged day/month, so one exchange keyed on
    (tag, period, user) carries ≤ 2·periods×users slim rows per batch —
    every copy of a pair lands in one bucket, making the per-bucket
    nunique an exact disjoint partial. (The tag is part of the key
    because a month-floor CAN equal a day-floor timestamp — the 1st of
    a month — and the two kinds must never merge.) Final combine is
    bounded by (buckets × periods) rows on the driver; stickiness is
    one int/int IEEE division, bit-equal to the SQL's
    ``dau * 1.0 / mau``."""
    import pyarrow.compute as pc

    from .exchange import hash_group_apply

    def prune(tbl: pa.Table) -> pa.Table:
        parts = []
        for tag, unit in ((0, "day"), (1, "month")):
            per = pc.floor_temporal(tbl.column(ts_col), unit=unit)
            t = pa.table({"period": per, user_col: tbl.column(user_col)})
            g = pa.TableGroupBy(t, ["period", user_col]).aggregate(
                [([], "count_all")])
            g = g.rename_columns(["period", user_col, "n"])
            parts.append(g.append_column(
                "tag", pa.array(np.full(g.num_rows, tag, np.int8))))
        return pa.concat_tables(parts)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["tag", "period"], sort=False)
               .agg(users=(user_col, "nunique"), n_events=("n", "sum"))
               .reset_index())
        return g.astype({"tag": "int8", "users": "int64",
                         "n_events": "int64"})

    schema = pa.schema([("tag", pa.int8()), ("period", pa.timestamp("us")),
                        ("users", pa.int64()), ("n_events", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(prune, batch_format="pyarrow", batch_size=65536),
        ["tag", "period", user_col], bucket,
        out_schema=schema).to_pandas()
    if parts.empty:
        parts = pd.DataFrame({"tag": pd.Series([], dtype="int8"),
                              "period": pd.Series([], dtype="datetime64[us]"),
                              "users": pd.Series([], dtype="int64"),
                              "n_events": pd.Series([], dtype="int64")})
    tot = (parts.groupby(["tag", "period"], as_index=False)
           .agg(users=("users", "sum"), n_events=("n_events", "sum"))
           .astype({"users": "int64", "n_events": "int64"}))
    dd = (tot[tot["tag"] == 0].rename(
        columns={"period": "day", "users": "dau"})
        [["day", "dau", "n_events"]].copy())
    mm = (tot[tot["tag"] == 1].rename(
        columns={"period": "month", "users": "mau"})
        [["month", "mau"]].copy())
    dd["month"] = dd["day"].dt.to_period("M").dt.to_timestamp().astype(
        dd["day"].dtype)
    out = dd.merge(mm, on="month", how="left")
    out["stickiness"] = out["dau"].to_numpy(np.float64) \
        / out["mau"].to_numpy(np.float64)
    out = out[["day", "dau", "n_events", "mau", "stickiness"]]
    return out.sort_values("day").reset_index(drop=True)


def last_touch_attribution(ds, *, convert_type: str = "purchase",
                           user_col: str = "user_id", ts_col: str = "ts",
                           type_col: str = "event_type",
                           id_col: str = "event_id",
                           direct_label: str = "direct",
                           touch: str = "last"):
    """Last-touch conversion attribution: for every user who converts
    (has ≥1 ``convert_type`` event), credit the event type of the
    LATEST event STRICTLY before the user's FIRST conversion (ties on
    ts broken by the larger ``id_col`` — a total order, so the answer
    is unique); users whose first conversion has no prior event credit
    ``direct_label``. Returns (channel, n_conversions) sorted.
    ``touch="first"`` flips the pick to the EARLIEST pre-conversion
    event (ties → smaller id) — first-touch attribution; the pruning
    and exchange shape is identical, only the per-user argmax becomes
    an argmin.

    Two passes, events scanned twice but nothing wide ever shuffles:

    1. First-conversion cutoffs: per-batch per-user min conversion ts
       partials (slim (user, ts) rows) → one tiny groupby-min → the
       (user → cutoff) map broadcast via ``ray.put`` as two sorted
       arrays. Users must fit one machine — the cutoff map is 16 B
       per CONVERTING user.
    2. Candidate prune: each batch keeps, per converting user, only its
       lexicographically largest (ts, id) row among rows with
       ts < cutoff (one lexsort, no Python loop) — ≤1 slim row per
       (user, batch) enters the user-keyed exchange; each bucket takes
       the global argmax per user. Channel counts fold driver-side
       (bounded by the type vocabulary)."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Min

    from .exchange import hash_group_apply

    assert touch in ("last", "first")

    def p1(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.equal(tbl.column(type_col), convert_type))
        g = pa.TableGroupBy(t.select([user_col, ts_col]),
                            [user_col]).aggregate([(ts_col, "min")])
        return g.rename_columns([user_col, "cut"])

    cuts = (ds.map_batches(p1, batch_format="pyarrow", batch_size=65536)
              .groupby(user_col).aggregate(Min("cut", alias_name="cut"))
              .to_pandas())
    if cuts.empty:
        return pd.DataFrame({"channel": pd.Series([], dtype="object"),
                             "n_conversions": pd.Series([], dtype="int64")})
    o = np.argsort(cuts[user_col].to_numpy())
    cut_uid = cuts[user_col].to_numpy()[o].astype(np.int64)
    cut_ts = cuts["cut"].to_numpy()[o].astype("datetime64[us]") \
        .astype(np.int64)
    cut_ref = ray.put((cut_uid, cut_ts))

    def p2(tbl: pa.Table) -> pa.Table:
        uids, tss = ray.get(cut_ref)
        uid = tbl.column(user_col).to_numpy().astype(np.int64)
        ts = tbl.column(ts_col).to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        pos = np.searchsorted(uids, uid)
        pos_c = np.minimum(pos, len(uids) - 1)
        keep = (uids[pos_c] == uid) & (ts < tss[pos_c])
        idx = np.flatnonzero(keep)
        if len(idx) == 0:
            return pa.table({user_col: pa.array([], pa.int64()),
                             "ts_us": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             type_col: pa.array([], pa.string())})
        eid = tbl.column(id_col).to_numpy().astype(np.int64)[idx]
        u, t = uid[idx], ts[idx]
        # in (u asc, ts asc, id asc) order the LAST row per user is the
        # argmax pick (last-touch) and the FIRST is the argmin
        # (first-touch)
        order = np.lexsort((eid, t, u))
        last = np.ones(len(order), bool)
        if touch == "last":
            last[:-1] = u[order][1:] != u[order][:-1]
        else:
            last[1:] = u[order][1:] != u[order][:-1]
        sel = idx[order[last]]
        return pa.table({
            user_col: pa.array(uid[sel], pa.int64()),
            "ts_us": pa.array(ts[sel], pa.int64()),
            id_col: pa.array(
                tbl.column(id_col).to_numpy().astype(np.int64)[sel]),
            type_col: pc.cast(
                pc.take(tbl.column(type_col),
                        pa.array(sel, pa.int64())), pa.string()),
        })

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        u = df[user_col].to_numpy().astype(np.int64)
        t = df["ts_us"].to_numpy().astype(np.int64)
        e = df[id_col].to_numpy().astype(np.int64)
        order = np.lexsort((e, t, u))
        last = np.ones(len(order), bool)
        if len(order):
            if touch == "last":
                last[:-1] = u[order][1:] != u[order][:-1]
            else:
                last[1:] = u[order][1:] != u[order][:-1]
        ch = df[type_col].to_numpy()[order[last]]
        types, n = np.unique(ch, return_counts=True)
        return pd.DataFrame({"channel": types,
                             "n_conversions": n.astype(np.int64)})

    schema = pa.schema([("channel", pa.string()),
                        ("n_conversions", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(p2, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    out = (parts.groupby("channel", as_index=False)["n_conversions"].sum()
           if not parts.empty else
           pd.DataFrame({"channel": pd.Series([], dtype="object"),
                         "n_conversions": pd.Series([], dtype="int64")}))
    n_direct = len(cut_uid) - int(out["n_conversions"].sum())
    if n_direct > 0:
        out = pd.concat([out, pd.DataFrame(
            {"channel": [direct_label],
             "n_conversions": [n_direct]})], ignore_index=True)
    out["n_conversions"] = out["n_conversions"].astype("int64")
    return out.sort_values("channel").reset_index(drop=True)


def ab_conversion(ds, *, convert_type: str = "purchase",
                  user_col: str = "user_id", type_col: str = "event_type",
                  n_groups: int = 2):
    """Deterministic hash-split A/B conversion report: users split into
    ``n_groups`` arms by the Knuth multiplicative hash of ``user_col``
    (the sample_stratified hash — stateless, resumable, SQL-replicable),
    conversion = the user has ≥1 ``convert_type`` event. One row per
    arm: (grp, n_users, n_converted, conv_rate) with conv_rate a single
    int/int IEEE division (bit-equal to the SQL's ``sum*1.0/count``).

    Shape: each batch pre-collapses to its distinct (user, converted)
    rows (converted = per-batch max of the type flag), the user-keyed
    exchange dedupes exactly (every copy of a user in one bucket, flag =
    max over copies), and each bucket emits ≤ n_groups count rows —
    the driver folds buckets × n_groups rows."""
    import pyarrow.compute as pc

    from .exchange import hash_group_apply

    knuth = np.uint64(2654435761)
    mod32 = np.uint64(1) << np.uint64(32)

    def prune(tbl: pa.Table) -> pa.Table:
        conv = pc.cast(pc.equal(tbl.column(type_col), convert_type),
                       pa.int64())
        t = pa.table({user_col: tbl.column(user_col), "conv": conv})
        g = pa.TableGroupBy(t, [user_col]).aggregate([("conv", "max")])
        return g.rename_columns([user_col, "conv"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(user_col, sort=False)["conv"].max()
        uid = g.index.to_numpy().astype(np.uint64)
        grp = (((uid * knuth) % mod32) % np.uint64(n_groups)) \
            .astype(np.int64)
        conv = g.to_numpy().astype(np.int64)
        n_users = np.bincount(grp, minlength=n_groups)
        n_conv = np.bincount(grp, weights=conv,
                             minlength=n_groups).astype(np.int64)
        return pd.DataFrame({"grp": np.arange(n_groups, dtype=np.int64),
                             "n_users": n_users.astype(np.int64),
                             "n_converted": n_conv})

    schema = pa.schema([("grp", pa.int64()), ("n_users", pa.int64()),
                        ("n_converted", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(prune, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"grp": pd.Series([], dtype="int64"),
                             "n_users": pd.Series([], dtype="int64"),
                             "n_converted": pd.Series([], dtype="int64"),
                             "conv_rate": pd.Series([], dtype="float64")})
    out = (parts.groupby("grp", as_index=False)
           .agg(n_users=("n_users", "sum"),
                n_converted=("n_converted", "sum"))
           .astype({"grp": "int64", "n_users": "int64",
                    "n_converted": "int64"}))
    out = out[out["n_users"] > 0].copy()
    out["conv_rate"] = out["n_converted"].to_numpy(np.float64) \
        / out["n_users"].to_numpy(np.float64)
    return out.sort_values("grp").reset_index(drop=True)


def hourly_profile(ds, *, ts_col: str = "ts",
                   type_col: str = "event_type"):
    """Hour-of-day seasonality matrix: (event_type, hour, n) for the 24
    local hours — the traffic-shape profile behind capacity planning
    and anomaly baselines. Pure map-side bincount partials (≤ 24·|types|
    rows per batch, batch_size pinned), one tiny driver fold — nothing
    shuffles."""
    import pyarrow.compute as pc

    def part(tbl: pa.Table) -> pa.Table:
        hour = pc.hour(tbl.column(ts_col))
        t = pa.table({type_col: tbl.column(type_col), "hour": hour})
        g = pa.TableGroupBy(t, [type_col, "hour"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([type_col, "hour", "n"])

    parts = (ds.map_batches(part, batch_format="pyarrow",
                            batch_size=65536).to_pandas())
    if parts.empty:
        return pd.DataFrame({type_col: pd.Series([], dtype="object"),
                             "hour": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64")})
    out = (parts.groupby([type_col, "hour"], as_index=False)["n"].sum())
    out["hour"] = out["hour"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values([type_col, "hour"]).reset_index(drop=True)


def daily_rate_outliers(ds, *, ts_col: str = "ts",
                        type_col: str = "event_type", k: float = 1.5):
    """Per-type daily-RATE anomaly flags: each (type, day) event count
    is screened against its type's Tukey fences over the daily counts
    (nearest-rank q1/q3, rank = ceil(0.25·m) / ceil(0.75·m) — 0.25 and
    0.75 are exact dyadics, so the float rank expression is exact on
    both sides, unlike the 0.9 case events_quantile_sketch documents).
    Returns (event_type, day, n, lo, hi, is_outlier) for every cell —
    the volume-anomaly baseline behind traffic monitoring.

    Shape: map-side (type, day) bincount partials (≤ types×days rows
    per batch); the fold and the fence arithmetic are driver-side on a
    table whose size is days × types BY DEFINITION — nothing shuffles.
    Fences are the group_outlier_flags IEEE expression (q1 − k·IQR on
    identical doubles)."""
    import pyarrow.compute as pc

    def part(tbl: pa.Table) -> pa.Table:
        day = pc.floor_temporal(tbl.column(ts_col), unit="day")
        t = pa.table({type_col: tbl.column(type_col), "day": day})
        g = pa.TableGroupBy(t, [type_col, "day"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([type_col, "day", "n"])

    parts = (ds.map_batches(part, batch_format="pyarrow",
                            batch_size=65536).to_pandas())
    if parts.empty:
        return pd.DataFrame({type_col: pd.Series([], dtype="object"),
                             "day": pd.Series([], dtype="datetime64[us]"),
                             "n": pd.Series([], dtype="int64"),
                             "lo": pd.Series([], dtype="float64"),
                             "hi": pd.Series([], dtype="float64"),
                             "is_outlier": pd.Series([], dtype="bool")})
    d = (parts.groupby([type_col, "day"], as_index=False)["n"].sum())
    d["n"] = d["n"].astype("int64")
    out = []
    for et, sub in d.groupby(type_col, sort=True):
        vals = np.sort(sub["n"].to_numpy())
        m = len(vals)
        q1 = float(vals[int(np.ceil(0.25 * m)) - 1])
        q3 = float(vals[int(np.ceil(0.75 * m)) - 1])
        lo = q1 - k * (q3 - q1)
        hi = q3 + k * (q3 - q1)
        s = sub.copy()
        s["lo"] = lo
        s["hi"] = hi
        nn = s["n"].to_numpy(np.float64)
        s["is_outlier"] = (nn < lo) | (nn > hi)
        out.append(s)
    res = pd.concat(out, ignore_index=True)
    return (res[[type_col, "day", "n", "lo", "hi", "is_outlier"]]
            .sort_values([type_col, "day"]).reset_index(drop=True))


def daily_spike_days(ds, *, ts_col: str = "ts",
                     type_col: str = "event_type", z: int = 2):
    """Per-type daily volume SPIKES: flag every (type, day) whose event
    count exceeds its type's mean by more than ``z`` standard deviations
    over the type's observed days — the z-score twin of
    ``daily_rate_outliers``'s Tukey fences. The predicate is EXACT
    INTEGER arithmetic on both sides: with n = observed days, S = Σc,
    SS = Σc², the test c > mean + z·σ rearranges to

        (c·n − S) > 0  AND  (c·n − S)² > z²·(n·SS − S²)

    so no float ever enters the comparison (counts ≤ 2^31 keep every
    term < 2^63 up to ~10⁹ events/day/type). Returns (event_type, day,
    n, is_spike) for every observed cell.

    Shape: identical to daily_rate_outliers — map-side (type, day)
    bincount partials (≤ types×days rows per batch), driver fold over a
    table that is days × types by definition; rows never shuffle."""
    import pyarrow.compute as pc

    def part(tbl: pa.Table) -> pa.Table:
        day = pc.floor_temporal(tbl.column(ts_col), unit="day")
        t = pa.table({type_col: tbl.column(type_col), "day": day})
        g = pa.TableGroupBy(t, [type_col, "day"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([type_col, "day", "n"])

    parts = (ds.map_batches(part, batch_format="pyarrow",
                            batch_size=65536).to_pandas())
    if parts.empty:
        return pd.DataFrame({type_col: pd.Series([], dtype="object"),
                             "day": pd.Series([], dtype="datetime64[us]"),
                             "n": pd.Series([], dtype="int64"),
                             "is_spike": pd.Series([], dtype="bool")})
    d = parts.groupby([type_col, "day"], as_index=False)["n"].sum()
    d["n"] = d["n"].astype("int64")
    out = []
    for et, sub in d.groupby(type_col, sort=True):
        c = sub["n"].to_numpy(np.int64)
        n = int(len(c))
        s = int(c.sum())
        ss = int((c.astype(object) * c.astype(object)).sum())
        dev = c.astype(object) * n - s            # exact python ints
        var_term = n * ss - s * s
        flags = [(int(dv) > 0 and int(dv) * int(dv) > z * z * var_term)
                 for dv in dev]
        sb = sub.copy()
        sb["is_spike"] = np.asarray(flags, dtype=bool)
        out.append(sb)
    res = pd.concat(out, ignore_index=True)
    return (res[[type_col, "day", "n", "is_spike"]]
            .sort_values([type_col, "day"]).reset_index(drop=True))


def markov_nll(ds, *, user_col: str = "user_id", ts_col: str = "ts",
               type_col: str = "event_type", id_col: str = "event_id"):
    """Per-user sequence-anomaly score under the corpus transition
    model — the events analog of textstats.unigram_nll: with cnt(a,b)
    the corpus count of consecutive (a→b) transitions (per user,
    ordered (ts, id)) and left(a) = Σ_b cnt(a,b),

        nll(u) = mean over u's transitions of ln(left(a) / cnt(a,b))

    No smoothing needed — every scored transition has cnt ≥ 1 by
    construction. Returns (user_id, n_trans, nll) for users with ≥1
    transition; a typical user scores low, a user whose type sequence
    is rare scores high.

    Shape: the transition-pair space is bounded by the TYPE vocabulary
    squared (the events_basket stance), never by users — pass A's
    user-keyed exchange emits per-bucket (a, b, n) partials and the
    driver folds a |types|²-sized table; pass B re-runs the user
    exchange with the ln-contribution lookup riding the closure (tiny)
    and each bucket emits final per-user rows. Two exchanges of slim
    (user, ts, id, type) rows — transitions never cross buckets. The
    float mean is sum/count per user; DuckDB's avg() sums in scan
    order, so parity is ~1e-15 relative under the gate's tolerance,
    not bit-exact (the unigram_nll stance)."""
    from .exchange import hash_group_apply

    def slim(tbl: pa.Table) -> pa.Table:
        return tbl.select([user_col, ts_col, id_col, type_col])

    slim_ds = ds.map_batches(slim, batch_format="pyarrow",
                             batch_size=65536)

    def _transitions(df: pd.DataFrame):
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy().astype(np.int64)
        types, code = np.unique(df[type_col].to_numpy(),
                                return_inverse=True)
        o = np.lexsort((eid, ts, uid))
        u, c = uid[o], code[o].astype(np.int64)
        same = np.zeros(len(o), dtype=bool)
        if len(o) > 1:
            same[1:] = u[1:] == u[:-1]
        idx = np.flatnonzero(same)
        return types, u[idx], c[idx - 1], c[idx]   # user, a, b codes

    pair_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                             ("n", pa.int64())])

    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        types, u, a, b = _transitions(df)
        if not len(u):
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        key = a * len(types) + b
        ks, n = np.unique(key, return_counts=True)
        return pd.DataFrame({"a": types[ks // len(types)],
                             "b": types[ks % len(types)],
                             "n": n.astype(np.int64)})

    parts = hash_group_apply(slim_ds, [user_col], pair_bucket,
                             out_schema=pair_schema).to_pandas()
    out_cols = {user_col: "int64", "n_trans": "int64", "nll": "float64"}
    if parts.empty:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in out_cols.items()})
    pairs = (parts.groupby(["a", "b"], as_index=False)["n"].sum())
    left = pairs.groupby("a")["n"].transform("sum")
    # ln(left/cnt): operand order matches the SQL's ln(tot::DOUBLE / n)
    pairs["contrib"] = np.log(left.to_numpy(np.float64)
                              / pairs["n"].to_numpy(np.float64))
    lut = pairs[["a", "b", "contrib"]]

    out_schema = pa.schema([(user_col, pa.int64()), ("n_trans", pa.int64()),
                            ("nll", pa.float64())])

    def user_bucket(df: pd.DataFrame) -> pd.DataFrame:
        types, u, a, b = _transitions(df)
        if not len(u):
            return pd.DataFrame({c: pd.Series([], dtype=t)
                                 for c, t in out_cols.items()})
        tr = pd.DataFrame({"a": types[a], "b": types[b], "u": u})
        tr = tr.merge(lut, on=["a", "b"], how="left")
        g = tr.groupby("u", sort=True)["contrib"]
        agg = g.agg(["count", "sum"]).reset_index()
        return pd.DataFrame({
            user_col: agg["u"],
            "n_trans": agg["count"].astype("int64"),
            "nll": agg["sum"].to_numpy(np.float64)
                   / agg["count"].to_numpy(np.float64)})

    out = hash_group_apply(slim_ds, [user_col], user_bucket,
                           out_schema=out_schema).to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in out_cols.items()})
    return out.sort_values(user_col).reset_index(drop=True)


def monthly_churn(ds, *, user_col: str = "user_id", ts_col: str = "ts"):
    """Month-over-month retention: for each calendar month m,
    n_active = distinct users with ≥1 event in m, n_retained = those
    also active in m+1 (the CALENDAR next month — month arithmetic on
    the months-since-epoch integer, exactly SQL's
    ``m + INTERVAL 1 MONTH``), retained_rate = one IEEE division of
    exact ints. Returns (month, n_active, n_retained, retained_rate).

    Shape: per-batch DISTINCT (user, month) pairs (bounded by
    users × months per batch, not events); user-keyed exchange so each
    user's month set is whole in one bucket; in-bucket one lexsort +
    adjacency diff + two bincounts emit (month, n_active, n_retained)
    partials — the driver folds a months-sized table."""
    from .exchange import hash_group_apply

    def _distinct_pairs(uid: np.ndarray, mo: np.ndarray):
        o = np.lexsort((mo, uid))
        u, m = uid[o], mo[o]
        if not len(u):
            return u, m
        first = np.empty(len(u), dtype=bool)
        first[0] = True
        first[1:] = (u[1:] != u[:-1]) | (m[1:] != m[:-1])
        return u[first], m[first]

    def pairs(tbl: pa.Table) -> pa.Table:
        uid = (tbl.column(user_col).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        mo = (tbl.column(ts_col).to_numpy(zero_copy_only=False)
              .astype("datetime64[M]").astype(np.int64))
        u, m = _distinct_pairs(uid, mo)
        return pa.table({user_col: pa.array(u, pa.int64()),
                         "mo": pa.array(m, pa.int64())})

    schema = pa.schema([("mo", pa.int64()), ("n_active", pa.int64()),
                        ("n_retained", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        u, m = _distinct_pairs(df[user_col].to_numpy(np.int64),
                               df["mo"].to_numpy(np.int64))
        ret = np.zeros(len(u), dtype=bool)
        if len(u) > 1:
            ret[:-1] = (u[1:] == u[:-1]) & (m[1:] - m[:-1] == 1)
        months, inv = np.unique(m, return_inverse=True)
        return pd.DataFrame({
            "mo": months,
            "n_active": np.bincount(inv).astype(np.int64),
            "n_retained": np.bincount(inv, weights=ret,
                                      minlength=len(months)).astype(np.int64)})

    parts = hash_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"month": pd.Series([], dtype="datetime64[us]"),
                             "n_active": pd.Series([], dtype="int64"),
                             "n_retained": pd.Series([], dtype="int64"),
                             "retained_rate": pd.Series([], dtype="float64")})
    g = (parts.groupby("mo", as_index=False)
         .agg(n_active=("n_active", "sum"), n_retained=("n_retained", "sum"))
         .sort_values("mo").reset_index(drop=True))
    return pd.DataFrame({
        "month": g["mo"].to_numpy(np.int64).astype("datetime64[M]")
                  .astype("datetime64[us]"),
        "n_active": g["n_active"].astype("int64"),
        "n_retained": g["n_retained"].astype("int64"),
        "retained_rate": (g["n_retained"].to_numpy(np.float64)
                          / g["n_active"].to_numpy(np.float64))})


def session_stats(ds, *, user_col: str = "user_id", ts_col: str = "ts",
                  id_col: str = "event_id", gap_s: int = 1800):
    """Per-user session DURATION stats under the sessionize spec (a new
    session starts on a strict > ``gap_s`` gap; events totally ordered
    by (ts, id)): (user_id, n_sessions, total_dur_us, max_dur_us,
    avg_events) where a session's duration is last-ts − first-ts in
    exact int64 microseconds (a singleton session is 0) and avg_events
    is one IEEE division of exact ints (n_events / n_sessions) —
    bit-equal to the SQL's ``sum(n_ev)::DOUBLE / count(*)``.

    Shape: user-keyed exchange of slim (user, ts, id) rows — a user's
    whole history lands in one bucket, so each output row is FINAL in
    its bucket (no driver fold). In-bucket: one lexsort, boundary
    masks, then two reduceat ladders (per-session durations, then each
    user's contiguous session slice) — no per-user loop."""
    from .exchange import hash_group_apply

    gap_us = int(gap_s) * 1_000_000

    def slim(tbl: pa.Table) -> pa.Table:
        return tbl.select([user_col, ts_col, id_col])

    schema = pa.schema([(user_col, pa.int64()), ("n_sessions", pa.int64()),
                        ("total_dur_us", pa.int64()),
                        ("max_dur_us", pa.int64()),
                        ("avg_events", pa.float64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        n = len(uid)
        if n == 0:
            return pd.DataFrame({f.name: pd.Series([], dtype=f.type.to_pandas_dtype())
                                 for f in schema})
        eid = df[id_col].to_numpy().astype(np.int64)
        o = np.lexsort((eid, ts, uid))
        u, t = uid[o], ts[o]
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        gap = np.empty(n, np.int64)
        gap[0] = 0
        gap[1:] = t[1:] - t[:-1]
        new_s = new_user | (gap > gap_us)
        ss = np.flatnonzero(new_s)                 # session starts
        se = np.append(ss[1:], n)                  # session ends (excl)
        dur = t[se - 1] - t[ss]
        su = np.flatnonzero(new_user[ss])          # first session per user
        n_sessions = np.diff(np.append(su, len(ss)))
        us_idx = np.flatnonzero(new_user)
        n_ev = np.diff(np.append(us_idx, n))
        return pd.DataFrame({
            user_col: u[us_idx],
            "n_sessions": n_sessions.astype(np.int64),
            "total_dur_us": np.add.reduceat(dur, su).astype(np.int64),
            "max_dur_us": np.maximum.reduceat(dur, su).astype(np.int64),
            "avg_events": (n_ev.astype(np.float64)
                           / n_sessions.astype(np.float64))})

    out = hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if out.empty:
        return pd.DataFrame({f.name: pd.Series([], dtype=f.type.to_pandas_dtype())
                             for f in schema})
    return out.sort_values(user_col).reset_index(drop=True)


def interarrival_stats(ds, *, user_col: str = "user_id",
                       ts_col: str = "ts", type_col: str = "event_type",
                       id_col: str = "event_id"):
    """Per-event-type inter-arrival statistics: gaps between CONSECUTIVE
    same-type events of the same user (ordered by (ts, id) — the id
    tie-break makes the gap sequence a total order, exactly the SQL
    lag() window), aggregated to (event_type, n_gaps, sum_gap_us,
    max_gap_us, mean_gap_us). All gap arithmetic is exact int64
    microseconds; the mean is one sum/count IEEE division (both
    operands exact ints < 2^53), bit-equal to the SQL's
    ``sum * 1.0 / count``.

    Shape: the user-keyed exchange carries slim (user, ts, id, type)
    rows (a user's whole history lives in one bucket — gaps never cross
    buckets); each bucket does one lexsort + one diff + bincount
    /maximum.at partials per type; the driver folds buckets × |types|
    rows."""
    from .exchange import hash_group_apply

    def slim(tbl: pa.Table) -> pa.Table:
        return tbl.select([user_col, ts_col, id_col, type_col])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy().astype(np.int64)
        types, code = np.unique(df[type_col].to_numpy(),
                                return_inverse=True)
        o = np.lexsort((eid, ts, code, uid))
        u_s, c_s, t_s = uid[o], code[o].astype(np.int64), ts[o]
        same = np.zeros(len(o), dtype=bool)
        if len(o) > 1:
            same[1:] = (u_s[1:] == u_s[:-1]) & (c_s[1:] == c_s[:-1])
        gap = np.empty(0, np.int64)
        gc = np.empty(0, np.int64)
        if same.any():
            idx = np.flatnonzero(same)
            gap = t_s[idx] - t_s[idx - 1]
            gc = c_s[idx]
        n = np.bincount(gc, minlength=len(types))
        s = np.bincount(gc, weights=gap,
                        minlength=len(types)).astype(np.int64)
        mx = np.full(len(types), np.iinfo(np.int64).min)
        np.maximum.at(mx, gc, gap)
        keep = n > 0
        return pd.DataFrame({
            type_col: types[keep],
            "n_gaps": n[keep].astype(np.int64),
            "sum_gap_us": s[keep],
            "max_gap_us": mx[keep],
        })

    schema = pa.schema([(type_col, pa.string()), ("n_gaps", pa.int64()),
                        ("sum_gap_us", pa.int64()),
                        ("max_gap_us", pa.int64())])
    parts = hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({
            type_col: pd.Series([], dtype="object"),
            "n_gaps": pd.Series([], dtype="int64"),
            "sum_gap_us": pd.Series([], dtype="int64"),
            "max_gap_us": pd.Series([], dtype="int64"),
            "mean_gap_us": pd.Series([], dtype="float64")})
    out = (parts.groupby(type_col, as_index=False)
           .agg(n_gaps=("n_gaps", "sum"), sum_gap_us=("sum_gap_us", "sum"),
                max_gap_us=("max_gap_us", "max"))
           .astype({"n_gaps": "int64", "sum_gap_us": "int64",
                    "max_gap_us": "int64"}))
    out["mean_gap_us"] = out["sum_gap_us"].to_numpy(np.float64) \
        / out["n_gaps"].to_numpy(np.float64)
    return out.sort_values(type_col).reset_index(drop=True)


def rollup_report(ds, *, group_col: str = "event_type", ts_col: str = "ts",
                  val_col: str = "value", all_label: str = "(all)"):
    """One-pass GROUPING-SETS rollup: (group × day), (group), (total) —
    the multi-granularity dashboard aggregate — computed from ONE scan.

    Per batch one Arrow group-by emits (group, day, n, vmin, vmax)
    partials (at most |groups| × |days| rows per batch); the driver
    folds the tiny partial table and derives the coarser levels from
    the finest EXACTLY: counts are integer sums, min/max are
    fold-order-free, so no float summation ever happens and the
    DuckDB ROLLUP oracle matches bit-for-bit. Rolled-up keys render as
    ``all_label`` (strings, not NULLs — value-hash-stable on both
    sides). Day is the UTC calendar date string of the floored ts.
    """

    import pyarrow.compute as pc

    def partial(tbl: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(tbl.column(ts_col),
                                            unit="day"), format="%Y-%m-%d")
        t = pa.table({"g": tbl.column(group_col).cast(pa.string()),
                      "day": day, "v": tbl.column(val_col)})
        g = pa.TableGroupBy(t, ["g", "day"]).aggregate(
            [("v", "count"), ("v", "min"), ("v", "max")])
        return g.rename_columns(["g", "day", "n", "vmin", "vmax"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    cols = {"level": "int64", group_col: "object", "day": "object",
            "n": "int64", "vmin": "float64", "vmax": "float64"}
    if len(parts) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in cols.items()})

    def fold(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
        g = df.groupby(keys, sort=True).agg(
            n=("n", "sum"), vmin=("vmin", "min"), vmax=("vmax", "max"))
        return g.reset_index()

    fine = fold(parts, ["g", "day"])
    by_g = fold(fine, ["g"])
    total = pd.DataFrame({"n": [int(fine["n"].sum())],
                          "vmin": [fine["vmin"].min()],
                          "vmax": [fine["vmax"].max()]})
    fine["level"], by_g["level"], total["level"] = 2, 1, 0
    by_g["day"] = all_label
    total["g"], total["day"] = all_label, all_label
    out = pd.concat([total, by_g, fine], ignore_index=True)
    out = out.rename(columns={"g": group_col})
    out["n"] = out["n"].astype("int64")
    return (out[list(cols)].astype(cols)
            .sort_values(["level", group_col, "day"])
            .reset_index(drop=True))


def pivot_counts(ds, types: list[str], *, user_col: str = "user_id",
                 type_col: str = "event_type"):
    """Per-user wide count matrix over a FIXED type vocabulary — the
    long→wide pivot that feeds per-user feature tables. Returns one row
    per user: (user, n_<type>..., n_total); events whose type is not in
    ``types`` are ignored (the vocabulary is the schema).

    Map-side each batch collapses to at most one partial wide row per
    user present (bincount over user×type cells), so the user exchange
    carries |users-per-batch| rows of small ints; the bucket fold is a
    column-wise sum. No all-to-all on raw events.
    """
    from .exchange import hash_group_apply

    t_idx = {t: i for i, t in enumerate(types)}
    k = len(types)
    cols = [f"n_{t}" for t in types]

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column(user_col).to_numpy(zero_copy_only=False)
        et = tbl.column(type_col).to_numpy(zero_copy_only=False)
        # vectorized type lookup: factorize batch types once, map the
        # (tiny) uniques through the dict, gather
        uniq, inv = np.unique(et, return_inverse=True)
        code = np.array([t_idx.get(u, -1) for u in uniq],
                        dtype=np.int64)[inv]
        m = code >= 0
        uu, ui = np.unique(uid[m], return_inverse=True)
        cnt = np.bincount(ui * k + code[m],
                          minlength=len(uu) * k).astype(np.int64)
        mat = cnt.reshape(len(uu), k)
        data = {user_col: pa.array(uu, pa.int64())}
        for j, c in enumerate(cols):
            data[c] = pa.array(mat[:, j])
        return pa.table(data)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({user_col: pd.Series(dtype="int64"),
                                 **{c: pd.Series(dtype="int64")
                                    for c in cols + ["n_total"]}})
        g = df.groupby(user_col, sort=False)[cols].sum().reset_index()
        g["n_total"] = g[cols].sum(axis=1)
        return g

    schema = pa.schema([(user_col, pa.int64())]
                       + [(c, pa.int64()) for c in cols + ["n_total"]])
    return hash_group_apply(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536),
        [user_col], bucket, out_schema=schema)


def user_rfm(ds, *, user_col: str = "user_id", ts_col: str = "ts",
             value_col: str = "value"):
    """Per-user RFM feature table: recency_days (epoch-day gap between
    the corpus's last event and the user's last event), frequency
    (event count) and monetary_q (sum of floor(value·64) — the exact
    64ths grid the quantile sketch already uses, so the sum is an exact
    int64 under any fold topology).

    All three are algebraic, so each batch pre-collapses to one row per
    distinct user (map-side partial) before the user exchange folds
    partials per user. The global last day is the max of a column that
    already exists in the per-user output — at 100 TB it's a scalar
    tree-fold broadcast back for a map-side subtract; here the per-user
    table is the query result anyway, so the subtract happens on it
    directly. Returns (user_id, recency_days, frequency, monetary_q)
    sorted by user_id."""
    from .exchange import hash_group_apply

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column(user_col).to_numpy(zero_copy_only=False)
        ts = (tbl.column(ts_col).cast(pa.timestamp("us"))
              .to_numpy(zero_copy_only=False).astype(np.int64))
        mq = np.floor(
            tbl.column(value_col).to_numpy(zero_copy_only=False) * 64.0
        ).astype(np.int64)
        users, inv = np.unique(uid, return_inverse=True)
        last = np.full(len(users), _I64_MIN)
        np.maximum.at(last, inv, ts)
        cnt = np.bincount(inv, minlength=len(users)).astype(np.int64)
        ms = np.zeros(len(users), np.int64)
        np.add.at(ms, inv, mq)
        return pa.table({user_col: pa.array(users.astype(np.int64)),
                         "__last": pa.array(last),
                         "__cnt": pa.array(cnt),
                         "__mq": pa.array(ms)})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                user_col: pd.Series(dtype="int64"),
                "last_day": pd.Series(dtype="int64"),
                "frequency": pd.Series(dtype="int64"),
                "monetary_q": pd.Series(dtype="int64")})
        uid = df[user_col].to_numpy()
        users, inv = np.unique(uid, return_inverse=True)
        last = np.full(len(users), _I64_MIN)
        np.maximum.at(last, inv, df["__last"].to_numpy())
        cnt = np.zeros(len(users), np.int64)
        np.add.at(cnt, inv, df["__cnt"].to_numpy())
        ms = np.zeros(len(users), np.int64)
        np.add.at(ms, inv, df["__mq"].to_numpy())
        return pd.DataFrame({user_col: users,
                             "last_day": last // _US_PER_DAY,
                             "frequency": cnt,
                             "monetary_q": ms})

    schema = pa.schema([(user_col, pa.int64()), ("last_day", pa.int64()),
                        ("frequency", pa.int64()),
                        ("monetary_q", pa.int64())])
    out = hash_group_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if out.empty:
        return pd.DataFrame({
            user_col: pd.Series(dtype="int64"),
            "recency_days": pd.Series(dtype="int64"),
            "frequency": pd.Series(dtype="int64"),
            "monetary_q": pd.Series(dtype="int64")})
    out["recency_days"] = out["last_day"].max() - out["last_day"]
    out = out[[user_col, "recency_days", "frequency", "monetary_q"]]
    return out.sort_values(user_col).reset_index(drop=True)


def user_lifecycle(ds, *, user_col: str = "user_id", ts_col: str = "ts"):
    """Growth-accounting lifecycle matrix: for each calendar month m,
    classify every active user as new (first month ever), retained
    (also active in the CALENDAR previous month) or resurrected (active
    before, but not in m-1); additionally count churned-into-m = users
    active in m-1 but not in m (the last active month churns into
    max+1, the standard convention — the SQL mirror uses lead()).

    Same shape as ``monthly_churn``: per-batch DISTINCT (user, month)
    pairs, user-keyed exchange so each user's month set is whole in one
    bucket, in-bucket adjacency diffs + bincounts emit a months-sized
    (mo, n_new, n_retained, n_resurrected, n_churned) partial; the
    driver folds ≤ months × buckets rows. Month arithmetic is integer
    months-since-epoch, exactly SQL's ``+ INTERVAL 1 MONTH``."""
    from .exchange import hash_group_apply

    def _distinct_pairs(uid: np.ndarray, mo: np.ndarray):
        o = np.lexsort((mo, uid))
        u, m = uid[o], mo[o]
        if not len(u):
            return u, m
        first = np.empty(len(u), dtype=bool)
        first[0] = True
        first[1:] = (u[1:] != u[:-1]) | (m[1:] != m[:-1])
        return u[first], m[first]

    def pairs(tbl: pa.Table) -> pa.Table:
        uid = (tbl.column(user_col).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        mo = (tbl.column(ts_col).to_numpy(zero_copy_only=False)
              .astype("datetime64[M]").astype(np.int64))
        u, m = _distinct_pairs(uid, mo)
        return pa.table({user_col: pa.array(u, pa.int64()),
                         "mo": pa.array(m, pa.int64())})

    schema = pa.schema([("mo", pa.int64()), ("n_new", pa.int64()),
                        ("n_retained", pa.int64()),
                        ("n_resurrected", pa.int64()),
                        ("n_churned", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        u, m = _distinct_pairs(df[user_col].to_numpy(np.int64),
                               df["mo"].to_numpy(np.int64))
        n = len(u)
        if not n:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in schema.names})
        same_prev = np.zeros(n, dtype=bool)   # row i shares user with i-1
        same_prev[1:] = u[1:] == u[:-1]
        new = ~same_prev
        retained = same_prev.copy()
        retained[1:] &= (m[1:] - m[:-1]) == 1
        resurrected = same_prev & ~retained
        # churn lands at mo+1 wherever the user's next active month is
        # not mo+1 (gap or end of history)
        churn_src = np.ones(n, dtype=bool)
        churn_src[:-1] = (u[:-1] != u[1:]) | ((m[1:] - m[:-1]) > 1)
        months = np.unique(np.concatenate([m, m[churn_src] + 1]))
        idx = np.searchsorted(months, m)
        out = {"mo": months}
        for name, mask in (("n_new", new), ("n_retained", retained),
                           ("n_resurrected", resurrected)):
            out[name] = np.bincount(idx[mask], minlength=len(months)
                                    ).astype(np.int64)
        out["n_churned"] = np.bincount(
            np.searchsorted(months, m[churn_src] + 1),
            minlength=len(months)).astype(np.int64)
        return pd.DataFrame(out)

    parts = hash_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    cols = ["n_new", "n_retained", "n_resurrected", "n_churned"]
    if parts.empty:
        return pd.DataFrame({"month": pd.Series(dtype="datetime64[us]"),
                             **{c: pd.Series(dtype="int64") for c in cols}})
    g = (parts.groupby("mo", as_index=False)[cols].sum()
         .sort_values("mo").reset_index(drop=True))
    return pd.DataFrame({
        "month": g["mo"].to_numpy(np.int64).astype("datetime64[M]")
                  .astype("datetime64[us]"),
        **{c: g[c].astype("int64") for c in cols}})


def windowed_count_join(ds, step_a: str, step_b: str, *,
                        window_s: int = 604800,
                        user_col: str = "user_id", ts_col: str = "ts",
                        type_col: str = "event_type",
                        id_col: str = "event_id"):
    """Stream-stream windowed join: for every ``step_a`` event, the
    number of same-user ``step_b`` events with ts in
    (t_a, t_a + window_s] — the "responses within the window" count
    behind conversion-window joins. Returns a Dataset of
    (event_id, user_id, t_a, n_follow), zero counts kept.

    Distributed shape: map-side prune to the two types (everything
    else never enters the exchange), one user exchange, and inside a
    bucket a MERGE instead of a join: B rows and two probe points per
    A row (t_a and t_a + W) lexsort together by (user, ts, is_probe);
    a cumsum of the B indicator read at the two probe positions gives
    the half-open-window count — no per-user loop, no pair
    materialization, ties handled exactly (B at t_a excluded, B at
    t_a + W included, because probes sort AFTER B rows at equal ts)."""
    from .exchange import hash_group_apply

    w_us = int(window_s) * 1_000_000

    def prune(tbl: pa.Table) -> pa.Table:
        et = tbl.column(type_col).to_numpy(zero_copy_only=False)
        return tbl.select([id_col, user_col, ts_col, type_col]).filter(
            pa.array((et == step_a) | (et == step_b)))

    pruned = ds.map_batches(prune, batch_format="pyarrow",
                            batch_size=65536)

    schema = pa.schema([(id_col, pa.int64()), (user_col, pa.int64()),
                        ("t_a", pa.timestamp("us")),
                        ("n_follow", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        et = df[type_col].to_numpy()
        eid = df[id_col].to_numpy(np.int64)
        ma, mb = et == step_a, et == step_b
        ua, ta, ea = uid[ma], ts[ma], eid[ma]
        ub, tb = uid[mb], ts[mb]
        na, nb = len(ua), len(ub)
        if not na:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 user_col: pd.Series(dtype="int64"),
                                 "t_a": pd.Series(dtype="datetime64[us]"),
                                 "n_follow": pd.Series(dtype="int64")})
        u = np.concatenate([ub, ua, ua])
        t = np.concatenate([tb, ta, ta + w_us])
        probe = np.concatenate([np.zeros(nb, np.int8),
                                np.ones(2 * na, np.int8)])
        o = np.lexsort((probe, t, u))
        cum = np.cumsum(probe[o] == 0)
        pos = np.empty(nb + 2 * na, np.int64)
        pos[o] = np.arange(len(o))
        lo, hi = cum[pos[nb:nb + na]], cum[pos[nb + na:]]
        return pd.DataFrame({id_col: ea, user_col: ua,
                             "t_a": ta.astype("datetime64[us]"),
                             "n_follow": (hi - lo).astype(np.int64)})

    return hash_group_apply(pruned, [user_col], bucket,
                            out_schema=schema)


def cohort_matrix(ds, *, user_col: str = "user_id", ts_col: str = "ts"):
    """Classic cohort-retention triangle: cohort = a user's FIRST
    active calendar month; for each (cohort, k) the number of cohort
    users active exactly k calendar months later (k = 0 is cohort
    size). Same exchange shape as ``monthly_churn``: per-batch
    distinct (user, month) pairs, user exchange, per-user min +
    month-diff bincounts, driver folds a (cohorts × offsets)-sized
    table. Returns (cohort, k, n_users) sorted."""
    from .exchange import hash_group_apply

    def _distinct_pairs(uid: np.ndarray, mo: np.ndarray):
        o = np.lexsort((mo, uid))
        u, m = uid[o], mo[o]
        if not len(u):
            return u, m
        first = np.empty(len(u), dtype=bool)
        first[0] = True
        first[1:] = (u[1:] != u[:-1]) | (m[1:] != m[:-1])
        return u[first], m[first]

    def pairs(tbl: pa.Table) -> pa.Table:
        uid = (tbl.column(user_col).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        mo = (tbl.column(ts_col).to_numpy(zero_copy_only=False)
              .astype("datetime64[M]").astype(np.int64))
        u, m = _distinct_pairs(uid, mo)
        return pa.table({user_col: pa.array(u, pa.int64()),
                         "mo": pa.array(m, pa.int64())})

    schema = pa.schema([("cohort", pa.int64()), ("k", pa.int64()),
                        ("n_users", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        u, m = _distinct_pairs(df[user_col].to_numpy(np.int64),
                               df["mo"].to_numpy(np.int64))
        if not len(u):
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in schema.names})
        # sorted by (user, month): each user's first row is the cohort
        first = np.empty(len(u), dtype=bool)
        first[0] = True
        first[1:] = u[1:] != u[:-1]
        m0 = m[np.maximum.accumulate(np.where(first, np.arange(len(u)),
                                              0))]
        t = pd.DataFrame({"cohort": m0, "k": m - m0})
        g = t.groupby(["cohort", "k"], as_index=False).size()
        return g.rename(columns={"size": "n_users"}).astype("int64")

    parts = hash_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536),
        [user_col], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"cohort": pd.Series(dtype="datetime64[us]"),
                             "k": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64")})
    g = (parts.groupby(["cohort", "k"], as_index=False)["n_users"].sum()
         .sort_values(["cohort", "k"]).reset_index(drop=True))
    return pd.DataFrame({
        "cohort": g["cohort"].to_numpy(np.int64).astype("datetime64[M]")
                   .astype("datetime64[us]"),
        "k": g["k"].astype("int64"),
        "n_users": g["n_users"].astype("int64")})


def user_paths(ds, *, max_steps: int = 8, top: int = 20,
               user_col: str = "user_id", ts_col: str = "ts",
               type_col: str = "event_type", id_col: str = "event_id"):
    """Top journey paths: each user's first ``max_steps`` event types in
    (ts, id) order joined with '>', counted across users, top ``top``
    by (n_users desc, path asc) — the funnel-discovery report that
    tells you which sequences actually happen before designing a
    funnel query.

    Shape: the user exchange delivers each user's stream whole to one
    bucket (path assembly is exact there — one lexsort + prefix mask +
    a per-user join over the bucket's users); per-bucket (path, n)
    partials then cross a PATH-keyed exchange where counts complete,
    and each path bucket forwards only its local top ``top`` — the
    driver merges ≤ top·buckets rows. Path cardinality never
    materializes anywhere in full."""
    from .exchange import hash_group_apply

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        uid, ts = _uid_ts(df, user_col, ts_col)
        eid = df[id_col].to_numpy()
        et = df[type_col].to_numpy()
        o = np.lexsort((eid, ts, uid))
        uid, et = uid[o], et[o]
        if not len(uid):
            return pd.DataFrame({"path": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        new = np.concatenate([[True], uid[1:] != uid[:-1]])
        start = np.repeat(np.flatnonzero(new),
                          np.diff(np.concatenate(
                              [np.flatnonzero(new), [len(uid)]])))
        pos = np.arange(len(uid)) - start
        keep = pos < max_steps
        sub = pd.DataFrame({"u": uid[keep], "t": et[keep]})
        paths = sub.groupby("u", sort=False)["t"].agg(">".join)
        g = paths.value_counts()
        return pd.DataFrame({"path": g.index.to_numpy(object),
                             "n": g.to_numpy(np.int64)})

    part_schema = pa.schema([("path", pa.string()), ("n", pa.int64())])
    parts = hash_group_apply(ds, [user_col], assemble,
                             out_schema=part_schema)

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("path", sort=False)["n"].sum().reset_index()
        g = g.sort_values(["n", "path"], ascending=[False, True],
                          kind="mergesort").head(top)
        return g.astype({"n": "int64"})

    cand = hash_group_apply(parts, ["path"], count_bucket,
                            out_schema=part_schema).to_pandas()
    if cand.empty:
        return pd.DataFrame({"path": pd.Series([], dtype="object"),
                             "n_users": pd.Series([], dtype="int64")})
    out = (cand.sort_values(["n", "path"], ascending=[False, True],
                            kind="mergesort").head(top)
           .rename(columns={"n": "n_users"}))
    return out.reset_index(drop=True)
