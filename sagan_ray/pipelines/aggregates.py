"""Operational aggregate pipelines (SURVEY.md §2.4).

- client_stats: per-source rolling stats — events, bytes, first/last seen
  (reference src/processors/client-stats.c:112-364 Add_Update_IP).
- track_clients: sources that stopped reporting within a timeout window
  (reference src/processors/track-clients.c:78-331).
- rule_tracking: which rules fired / never fired
  (reference src/tracking-syslog.c:56-141).

rule_tracking reads the engine's inline count partials. The other two
are single groupby jobs with vectorized per-batch pre-aggregation:
each batch emits one partial row per key, then a small shuffle combines
partials — the pre-aggregate pattern that keeps the all-to-all exchange
proportional to key cardinality, not row count.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def client_stats(ds, key: str = "conv_id", text_col: str = "text",
                 ts_col: str = "ts", turn_col: str = "turn_idx",
                 n_buckets: int | None = None):
    """Per-key: n_events, bytes, first_seen, last_seen, plus the sample
    role/message the reference stores per client — its example
    ``program``/``message`` (src/processors/client-stats.c:183-190, set
    in Add_Update_IP client-stats.c:226,312-313). The sample is the row
    with the smallest ``turn_col`` per key (deterministic, unlike the
    reference's arrival-order wall-clock sample).

    Pre-aggregates per batch, then combines partials through the SHARED
    bucketed hash exchange (sagan_ray.exchange.hash_group_apply — the same
    streaming split + skew-refined reduce every wide operator uses; for
    HIGH-cardinality keys the sort-based groupby measured ~10× slower at
    4M rows / 150k keys). One vectorized pandas group-aggregate per
    bucket; empty buckets keep their schema, so nothing materializes on
    the driver.
    """
    import numpy as np

    from ..exchange import hash_group_apply

    _partial_schema = pa.schema([
        (key, pa.string()), ("bytes", pa.int64()),
        ("first_seen", pa.timestamp("us")), ("last_seen", pa.timestamp("us")),
        ("n_events", pa.int64()), ("sample_turn", pa.int64()),
        ("sample_role", pa.string()), ("sample_text", pa.large_string())])

    def partial(tbl: pa.Table) -> pa.Table:
        """One partial row per key: all aggregates computed per factorize
        CODE (O(n) scatter-reduces, no per-batch string sort — a sort of
        the full batch by conv_id measured 4× the whole round-2 partial),
        every output column aligned by the same code order."""
        import pandas as pd

        t = tbl.select([key, turn_col, "role", text_col, ts_col])
        ks = t.column(key).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(ks)
        k = len(uniq)
        if k == 0:
            return _partial_schema.empty_table()
        blen = pc.binary_length(pc.cast(t.column(text_col), pa.large_binary())
                                ).to_numpy(zero_copy_only=False).astype(np.int64)
        ts_i8 = (t.column(ts_col).to_numpy(zero_copy_only=False)
                 .astype("datetime64[us]").astype(np.int64))
        turns = (t.column(turn_col).to_numpy(zero_copy_only=False)
                 .astype(np.int64))
        bsum = np.zeros(k, np.int64)
        np.add.at(bsum, codes, blen)
        tmin = np.full(k, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(tmin, codes, ts_i8)
        tmax = np.full(k, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(tmax, codes, ts_i8)
        cnt = np.bincount(codes, minlength=k).astype(np.int64)
        turn_min = np.full(k, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(turn_min, codes, turns)
        # first row index per code hitting its min turn (sample row)
        idx = np.flatnonzero(turns == turn_min[codes])
        first_idx = idx[np.unique(codes[idx], return_index=True)[1]]
        s = t.take(pa.array(first_idx, pa.int64()))
        return pa.table({
            key: pa.array(uniq, pa.string()),
            "bytes": pa.array(bsum, pa.int64()),
            "first_seen": pa.array(tmin.astype("datetime64[us]"),
                                   pa.timestamp("us")),
            "last_seen": pa.array(tmax.astype("datetime64[us]"),
                                  pa.timestamp("us")),
            "n_events": pa.array(cnt, pa.int64()),
            "sample_turn": s.column(turn_col).cast(pa.int64()),
            "sample_role": s.column("role").cast(pa.string()),
            "sample_text": s.column(text_col).cast(pa.large_string()),
        })

    schema = pa.schema([(key, pa.string()), ("bytes", pa.int64()),
                        ("first_seen", pa.timestamp("us")),
                        ("last_seen", pa.timestamp("us")),
                        ("n_events", pa.int64()),
                        ("sample_role", pa.string()),
                        ("sample_text", pa.large_string())])

    def combine(df):
        df = df.sort_values([key, "sample_turn"], kind="mergesort")
        firsts = df.drop_duplicates(subset=[key], keep="first")
        g = df.groupby(key, sort=False).agg(
            bytes=("bytes", "sum"), first_seen=("first_seen", "min"),
            last_seen=("last_seen", "max"), n_events=("n_events", "sum"))
        out = g.reset_index()
        return out.merge(firsts[[key, "sample_role", "sample_text"]],
                         on=key, how="left")

    # 64k-row batches: the partial emits one row per key per batch, so
    # its output scales with batch COUNT — default 1024-row batches both
    # multiply partial rows ~60× (shipping ~60× the sample_text bytes
    # through the exchange) and pay per-batch Python overhead 64×
    # (CLAUDE.md round-3 lesson; measured 3.7 s → 1.2 s warm at 4 M rows).
    return hash_group_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [key], combine, n_buckets=n_buckets, out_schema=schema)


def track_clients(ds, horizon_ts, *, timeout_seconds: int = 3600,
                  key: str = "conv_id", ts_col: str = "ts"):
    """Stopped/resumed-logging detection (reference
    src/processors/track-clients.c:78-331): per key —

    - ``stopped``: last event older than ``horizon_ts - timeout``;
    - ``had_outage``: some inter-event gap exceeded the timeout and the
      key later resumed (the 'client came back' report).

    ``horizon_ts`` is event-time 'now' — deterministic, unlike the
    reference's wall clock. Gap detection needs per-key ordered scans —
    one hash_group_apply exchange over (key, ts) pairs only.
    """
    import numpy as np
    import pandas as pd

    from ..exchange import hash_group_apply

    cutoff = horizon_ts - __import__("datetime").timedelta(seconds=timeout_seconds)

    slim = ds.map_batches(lambda t: t.select([key, ts_col]),
                          batch_format="pyarrow")

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col], kind="mergesort")
        out_k, out_last, out_gap = [], [], []
        ks = df[key].to_numpy()
        ts = df[ts_col].to_numpy()
        start = 0
        for i in range(1, len(df) + 1):
            if i == len(df) or ks[i] != ks[start]:
                seg = ts[start:i]
                gaps = np.diff(seg).astype("timedelta64[s]").astype(np.int64) \
                    if len(seg) > 1 else np.array([], dtype=np.int64)
                out_k.append(ks[start])
                out_last.append(seg[-1])
                out_gap.append(int(gaps.max()) if len(gaps) else 0)
                start = i
        return pd.DataFrame({key: out_k, "last_seen": out_last,
                             "max_gap_s": pd.Series(out_gap, dtype="int64")})

    per = hash_group_apply(slim, [key], per_key)

    def flag(tbl: pa.Table) -> pa.Table:
        stopped = pc.less(tbl.column("last_seen"), pa.scalar(cutoff))
        outage = pc.greater(tbl.column("max_gap_s"),
                            pa.scalar(timeout_seconds, pa.int64()))
        return (tbl.append_column("stopped", stopped)
                   .append_column("had_outage", outage))

    return per.map_batches(flag, batch_format="pyarrow")


def rule_tracking(engine_result):
    """Per-sid fired counts (from the engine's inline count partials),
    anti-joined against the full rule list so never-fired rules appear
    with n_fired=0."""
    fired_map = engine_result.hit_counts()
    rows = [{"sid": r.sid, "msg": r.msg, "n_fired": int(fired_map.get(r.sid, 0)),
             "fired": r.sid in fired_map}
            for r in engine_result.ruleset]
    return pa.Table.from_pylist(rows)


# gauge fields stay absolute in delta mode (they describe the current
# ruleset, not an accumulating counter)
_STATS_GAUGES = frozenset({"rules_fired", "rules_total"})


def stats_snapshot(input_counts: dict, engine_result,
                   prev: dict | None = None) -> dict:
    """stats.json analog (reference src/processors/stats-json.c:87-583):
    one merged counter snapshot. With ``prev`` (a snapshot returned by an
    earlier call) the counters come back as DELTAS since that snapshot —
    the ``subtract_old_values: true`` mode of stats-json.c — while gauge
    fields (rules_fired/rules_total) stay absolute. Compose with the
    follow loop (sources.stream.poll_once) by snapshotting after each
    poll and passing the previous absolute snapshot."""
    hit_counts = engine_result.hit_counts()
    routed = engine_result.routed_counts()
    per_sink: dict[str, int] = {}
    for (sink, _sid), n in routed.items():
        per_sink[sink] = per_sink.get(sink, 0) + n
    snap = {
        **input_counts,
        "saganfound": int(sum(hit_counts.values())),
        "alerts_per_sink": per_sink,
        "rules_fired": len(hit_counts),
        "rules_total": len(engine_result.ruleset),
    }
    if prev is None:
        return snap
    out: dict = {}
    for k, v in snap.items():
        if k in _STATS_GAUGES:
            out[k] = v
        elif isinstance(v, dict):
            pv = prev.get(k, {}) or {}
            keys = set(v) | set(pv)
            out[k] = {kk: int(v.get(kk, 0)) - int(pv.get(kk, 0))
                      for kk in sorted(keys)}
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[k] = v - prev.get(k, 0)
        else:
            out[k] = v
    return out


def role_transitions(ds, key: str = "conv_id", role_col: str = "role",
                     turn_col: str = "turn_idx"):
    """Per-conversation dialog-structure profile: counts of adjacent
    (from_role → to_role) transitions in turn order — the
    conversation-shape feature a transcript corpus pipeline derives
    before filtering/stratifying (e.g. assistant→tool density). Returns
    a long table (key, from_role, to_role, n).

    Ordered per-key work → the shared hash exchange; inside a bucket ONE
    lexsort over (key, turn) + a shifted-pair factorize + bincount covers
    every conversation in the bucket (no per-key loop). Only
    (key, role, turn) columns move — text never ships."""
    import numpy as np
    import pandas as pd

    from ..exchange import hash_group_apply

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ks = df[key].to_numpy()
        roles = df[role_col].to_numpy()
        turns = df[turn_col].to_numpy()
        o = np.lexsort((turns, ks))
        ks, roles = ks[o], roles[o]
        same = np.empty(len(ks), dtype=bool)
        if len(ks):
            same[0] = False
            same[1:] = ks[1:] == ks[:-1]     # row i continues row i-1's conv
        idx = np.flatnonzero(same)
        if not len(idx):
            return pd.DataFrame({key: np.array([], ks.dtype),
                                 "from_role": [], "to_role": [],
                                 "n": np.array([], np.int64)})
        t_key, t_from, t_to = ks[idx], roles[idx - 1], roles[idx]
        # numeric composite of three factorized code columns — no
        # per-row string concatenation
        kc, _ = pd.factorize(t_key, sort=False)
        fc, fu = pd.factorize(t_from, sort=False)
        tc, tu = pd.factorize(t_to, sort=False)
        comp = (kc.astype(np.int64) * len(fu) + fc) * len(tu) + tc
        uniq, inv = np.unique(comp, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        first = np.zeros(len(uniq), np.int64)
        first[inv[::-1]] = np.arange(len(inv))[::-1]
        return pd.DataFrame({key: t_key[first],
                             "from_role": t_from[first],
                             "to_role": t_to[first],
                             "n": n})

    schema = pa.schema([(key, pa.string()), ("from_role", pa.string()),
                        ("to_role", pa.string()), ("n", pa.int64())])
    return hash_group_apply(
        ds.map_batches(lambda t: t.select([key, role_col, turn_col]),
                       batch_format="pyarrow"),
        [key], bucket, out_schema=schema)


def conv_documents(ds, key: str = "conv_id", text_col: str = "text",
                   role_col: str = "role", turn_col: str = "turn_idx",
                   sep: str = "\n"):
    """Render each conversation into ONE training document: turns joined
    in turn order as ``role: text`` lines — the transcripts→documents
    bridge that feeds the dedup/text-analysis/packing family when the
    corpus is conversational. Returns (key, n_turns, doc_text).

    Per-key ordered concatenation → the shared hash exchange; inside a
    bucket one lexsort orders every conversation, one vectorized
    elementwise concat builds the per-turn lines, and the only per-key
    work is the final join over each conversation's slice (O(total
    bytes), no quadratic string appends)."""
    import numpy as np
    import pandas as pd

    from ..exchange import hash_group_apply

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ks = df[key].to_numpy()
        turns = df[turn_col].to_numpy()
        o = np.lexsort((turns, ks))
        ks = ks[o]
        lines = (df[role_col].astype(str).to_numpy()[o]
                 + np.array(": ", dtype=object)
                 + df[text_col].astype(str).to_numpy()[o])
        new = np.empty(len(ks), dtype=bool)
        if len(ks):
            new[0] = True
            new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        bounds = np.append(starts, len(ks))
        docs = [sep.join(lines[bounds[i]:bounds[i + 1]])
                for i in range(len(starts))]
        return pd.DataFrame({key: ks[starts],
                             "n_turns": np.diff(bounds).astype(np.int64),
                             "doc_text": docs})

    schema = pa.schema([(key, pa.string()), ("n_turns", pa.int64()),
                        ("doc_text", pa.large_string())])
    return hash_group_apply(
        ds.map_batches(lambda t: t.select([key, role_col, text_col,
                                           turn_col]),
                       batch_format="pyarrow"),
        [key], bucket, out_schema=schema)


def adjacent_pairs(ds, *, prev_role: str, next_role: str,
                   key: str = "conv_id", role_col: str = "role",
                   turn_col: str = "turn_idx", text_col: str = "text"):
    """Adjacent-turn pair extraction — the SFT (prompt → response)
    mining shape over a transcript corpus: every turn whose role is
    ``next_role`` immediately preceded (in turn order, same
    conversation) by a ``prev_role`` turn yields one row
    (key, turn_idx of the response, prompt_n, response_n) with exact
    utf-8 char counts of both sides. Adjacency is row adjacency in turn
    order (the SQL lag() frame), matching role_transitions.

    Text never ships: lengths are computed map-side, the conv-keyed
    exchange carries (key, turn, role, n) only; inside a bucket one
    lexsort + shifted masks cover every conversation — no per-key
    loop. A real extractor would re-join the surviving (key, turn_idx)
    pairs back to the text exactly like dedup_filter does with doc ids."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..exchange import hash_group_apply

    def slim(tbl: pa.Table) -> pa.Table:
        return pa.table({
            key: tbl.column(key),
            turn_col: pc.cast(tbl.column(turn_col), pa.int64()),
            role_col: tbl.column(role_col),
            "n": pc.cast(pc.utf8_length(tbl.column(text_col)), pa.int64()),
        })

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ks = df[key].to_numpy()
        turns = df[turn_col].to_numpy()
        roles = df[role_col].to_numpy()
        ns = df["n"].to_numpy()
        o = np.lexsort((turns, ks))
        ks, turns, roles, ns = ks[o], turns[o], roles[o], ns[o]
        hit = np.zeros(len(ks), dtype=bool)
        if len(ks) > 1:
            hit[1:] = ((ks[1:] == ks[:-1]) & (roles[1:] == next_role)
                       & (roles[:-1] == prev_role))
        idx = np.flatnonzero(hit)
        return pd.DataFrame({key: ks[idx],
                             turn_col: turns[idx],
                             "prompt_n": ns[idx - 1],
                             "response_n": ns[idx]})

    schema = pa.schema([(key, pa.string()), (turn_col, pa.int64()),
                        ("prompt_n", pa.int64()),
                        ("response_n", pa.int64())])
    return hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        [key], bucket, out_schema=schema)


def context_windows(ds, *, window: int = 3, sep: str = " | ",
                    key: str = "conv_id", turn_col: str = "turn_idx",
                    text_col: str = "text"):
    """Rolling context assembly — the SFT context-window staple: for
    every turn, the concatenation (in turn order, ``sep``-joined) of the
    last ``window`` turns' text within the same conversation — SQL's
    ``string_agg(text) OVER (PARTITION BY conv ORDER BY turn ROWS
    window-1 PRECEDING)`` exactly.

    Shape: ONE conv-keyed exchange; the text must cross it (it IS the
    output), but crosses exactly once — the ×window blow-up happens only
    in the OUTPUT, which is the operator's contract. Inside a bucket one
    lexsort + (window−1) shifted same-conv masks build every context
    with elementwise object-array concatenation — no per-conversation
    loop."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..exchange import hash_group_apply

    assert window >= 1

    def slim(tbl: pa.Table) -> pa.Table:
        return pa.table({
            key: tbl.column(key),
            turn_col: pc.cast(tbl.column(turn_col), pa.int64()),
            text_col: tbl.column(text_col),
        })

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ks = df[key].to_numpy()
        turns = df[turn_col].to_numpy()
        txt = df[text_col].to_numpy(dtype=object)
        o = np.lexsort((turns, ks))
        ks, turns, txt = ks[o], turns[o], txt[o]
        ctx = txt.copy()
        sepv = np.full(len(ks), sep, dtype=object)
        for back in range(1, window):
            if back >= len(ks):
                break
            same = ks[back:] == ks[:-back]      # sorted ⇒ contiguous
            m = np.zeros(len(ks), dtype=bool)
            m[back:] = same
            ctx[m] = txt[np.flatnonzero(m) - back] + sepv[m] + ctx[m]
        return pd.DataFrame({key: ks, turn_col: turns, "context": ctx})

    schema = pa.schema([(key, pa.string()), (turn_col, pa.int64()),
                        ("context", pa.string())])
    return hash_group_apply(
        ds.map_batches(slim, batch_format="pyarrow", batch_size=65536),
        [key], bucket, out_schema=schema)


def boilerplate_turns(ds, *, min_convs: int, key: str = "conv_id",
                      text_col: str = "text", role_col: str = "role",
                      turn_col: str = "turn_idx", sep: str = "\n"):
    """Templated-turn (boilerplate) removal — the CCNet/RefinedWeb
    line-level dedup staple applied to conversational data: a turn whose
    EXACT text appears in at least ``min_convs`` distinct conversations
    is boilerplate (system prompts, canned tool banners, templated
    notices) and is dropped from the rebuilt per-conversation document.

    Returns (key, n_kept, n_boiler, doc_text) — doc_text is the
    conv_documents rendering (``role: text`` lines joined in turn order)
    over the surviving turns only; an all-boilerplate conversation keeps
    its row with doc_text ''.

    Shape for scale: pass A ships only per-batch-DISTINCT
    (hash64(text), hash64(conv)) uint64 pairs through a text-hash
    exchange (16 bytes/pair — text bytes never enter the wide exchange;
    identity-by-hash64 is the dedup_exact stance), the frequent-hash set
    (small by construction: each member repeats across >= min_convs
    convs) broadcasts back via ray.put, and pass B flags turns map-side
    before the ordinary per-conv rebuild exchange. ``ds`` is consumed
    twice — pass it materialized (the query catalog's _transcripts
    cache) or cheap to recompute.
    """
    import numpy as np
    import pandas as pd
    import ray

    from ..exchange import hash_group_apply
    from ..exchange import hash_array_pure

    def pairs(tbl: pa.Table) -> pa.Table:
        txt = tbl.column(text_col).to_numpy(zero_copy_only=False)
        cv = tbl.column(key).to_numpy(zero_copy_only=False)
        h = hash_array_pure(txt).astype(np.uint64)
        c = hash_array_pure(cv).astype(np.uint64)
        o = np.lexsort((c, h))
        h, c = h[o], c[o]
        keep = np.ones(len(h), dtype=bool)
        if len(h) > 1:
            keep[1:] = (h[1:] != h[:-1]) | (c[1:] != c[:-1])
        return pa.table({"h": h[keep], "c": c[keep]})

    def df_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"h": pd.Series(dtype="uint64")})
        h = df["h"].to_numpy()
        c = df["c"].to_numpy()
        o = np.lexsort((c, h))
        h, c = h[o], c[o]
        # drop duplicate (h, c) pairs arriving from different batches,
        # then count distinct convs per hash via run boundaries
        first = np.ones(len(h), dtype=bool)
        first[1:] = (h[1:] != h[:-1]) | (c[1:] != c[:-1])
        h = h[first]
        starts = np.ones(len(h), dtype=bool)
        starts[1:] = h[1:] != h[:-1]
        idx = np.flatnonzero(starts)
        cnt = np.diff(np.append(idx, len(h)))
        hot = idx[cnt >= min_convs]
        return pd.DataFrame({"h": h[hot]})

    hot = hash_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536),
        ["h"], df_bucket,
        out_schema=pa.schema([("h", pa.uint64())])).to_pandas()
    hot_ref = ray.put(np.sort(hot["h"].to_numpy().astype(np.uint64))
                      if len(hot) else np.empty(0, dtype=np.uint64))

    def flag(tbl: pa.Table) -> pa.Table:
        fr = ray.get(hot_ref)
        txt = tbl.column(text_col).to_numpy(zero_copy_only=False)
        h = hash_array_pure(txt).astype(np.uint64)
        if len(fr):
            i = np.searchsorted(fr, h)
            boiler = (i < len(fr)) & (fr[np.minimum(i, len(fr) - 1)] == h)
        else:
            boiler = np.zeros(len(h), dtype=bool)
        return pa.table({
            key: tbl.column(key),
            turn_col: tbl.column(turn_col),
            role_col: tbl.column(role_col),
            text_col: tbl.column(text_col),
            "boiler": pa.array(boiler),
        })

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({key: pd.Series(dtype="object"),
                                 "n_kept": pd.Series(dtype="int64"),
                                 "n_boiler": pd.Series(dtype="int64"),
                                 "doc_text": pd.Series(dtype="object")})
        ks = df[key].to_numpy()
        turns = df[turn_col].to_numpy()
        o = np.lexsort((turns, ks))
        ks = ks[o]
        boiler = df["boiler"].to_numpy()[o]
        lines = (df[role_col].astype(str).to_numpy()[o]
                 + np.array(": ", dtype=object)
                 + df[text_col].astype(str).to_numpy()[o])
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        bounds = np.append(starts, len(ks))
        docs, n_kept, n_boiler = [], [], []
        for i in range(len(starts)):
            s, e = bounds[i], bounds[i + 1]
            m = ~boiler[s:e]
            docs.append(sep.join(lines[s:e][m]))
            n_kept.append(int(m.sum()))
            n_boiler.append(int((e - s) - m.sum()))
        return pd.DataFrame({key: ks[starts],
                             "n_kept": np.asarray(n_kept, dtype=np.int64),
                             "n_boiler": np.asarray(n_boiler,
                                                    dtype=np.int64),
                             "doc_text": docs})

    schema = pa.schema([(key, pa.string()), ("n_kept", pa.int64()),
                        ("n_boiler", pa.int64()),
                        ("doc_text", pa.large_string())])
    return hash_group_apply(
        ds.map_batches(flag, batch_format="pyarrow", batch_size=65536),
        [key], rebuild, out_schema=schema)
