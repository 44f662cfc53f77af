"""Tests for event-stream analytics (datapipe.events: sequential funnel,
cohort retention) and the mergeable bottom-k sampler (curate.sample_bottomk)
— edge cases vs hand-computed truth; the sf0.01 DuckDB hash gate covers
the bulk parity (tools/check_queries.py: events_funnel, events_retention,
sample_bottomk)."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _ds(tbl: pa.Table):
    import ray.data as rd
    return rd.from_arrow(tbl)


def _events(rows):
    """rows = [(user_id, ts_us, event_type), ...]"""
    return pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })


STEPS = ["view", "click", "purchase"]


def _funnel(rows):
    from sagan_ray.datapipe import funnel_stages
    out = funnel_stages(_ds(_events(rows)), STEPS).to_pandas()
    return dict(zip(out["user_id"].astype(int), out["stage"].astype(int)))


def test_funnel_order_matters():
    # user 1 completes in order; user 2's purchase precedes the click
    # (stage stops at 2); user 3 never views (stage 0 despite clicks).
    rows = [
        (1, 10, "view"), (1, 20, "click"), (1, 30, "purchase"),
        (2, 10, "view"), (2, 40, "click"), (2, 30, "purchase"),
        (3, 10, "click"), (3, 20, "purchase"),
    ]
    assert _funnel(rows) == {1: 3, 2: 2, 3: 0}


def test_funnel_strictly_after_ties_do_not_count():
    # click at the SAME microsecond as the first view: not strictly
    # after, so it cannot advance the funnel; a later click can.
    assert _funnel([(1, 10, "view"), (1, 10, "click")]) == {1: 1}
    assert _funnel([(1, 10, "view"), (1, 10, "click"),
                    (1, 11, "click")]) == {1: 2}


def test_funnel_uses_first_completion_not_best():
    # first view at t=10; the click must follow t=10 (not the later
    # re-view at t=50), so the t=20 click counts.
    rows = [(1, 10, "view"), (1, 50, "view"), (1, 20, "click")]
    assert _funnel(rows) == {1: 2}


def test_funnel_other_event_types_ignored():
    rows = [(1, 10, "error"), (1, 20, "signup")]
    assert _funnel(rows) == {1: 0}


def test_cohort_retention_hand_case():
    from sagan_ray.datapipe import cohort_retention
    day = 86_400_000_000
    rows = [
        # user 1: first event day 0, active days 0, 0 (dup), 2
        (1, 0, "x"), (1, 100, "x"), (1, 2 * day + 5, "x"),
        # user 2: first event day 0, active day 0 only
        (2, 50, "x"),
        # user 3: first event day 1, active days 1 and 2
        (3, day + 1, "x"), (3, 2 * day + 1, "x"),
    ]
    out = cohort_retention(_ds(_events(rows)))
    got = {(int(r.cohort_day), int(r.day_offset)): int(r.n_users)
           for r in out.itertuples()}
    assert got == {(0, 0): 2, (0, 2): 1, (1, 0): 1, (1, 1): 1}


def test_cohort_retention_epoch_days():
    from sagan_ray.datapipe import cohort_retention
    day = 86_400_000_000
    out = cohort_retention(_ds(_events([(1, 5 * day + 7, "x")])))
    assert out.to_dict("records") == [
        {"cohort_day": 5, "day_offset": 0, "n_users": 1}]


def test_sample_bottomk_matches_sequential_and_is_mergeable():
    from sagan_ray.datapipe import sample_bottomk
    ids = np.arange(1000, dtype=np.int64)
    tbl = pa.table({"doc_id": ids})
    k = 37
    out = sample_bottomk(_ds(tbl), k, batch_size=64)  # many partials
    h = (ids.astype(np.uint64) * np.uint64(2654435761)
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    sel = np.lexsort((ids, h))[:k]
    exp = pd.DataFrame({"doc_id": ids[sel], "h": h[sel]}).sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype("int64"), exp.astype("int64"))


def test_sample_bottomk_k_exceeds_n():
    from sagan_ray.datapipe import sample_bottomk
    tbl = pa.table({"doc_id": pa.array([3, 1, 2], pa.int64())})
    out = sample_bottomk(_ds(tbl), 10)
    assert sorted(out["doc_id"]) == [1, 2, 3]


def test_hll_group_distinct_accuracy_and_layout_invariance():
    from sagan_ray.datapipe import hll_group_distinct
    rng = np.random.default_rng(7)
    n = 20_000
    keys = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    # distinct value pools of very different sizes per key
    vals = np.where(keys == "a", rng.integers(0, 50, n),
                    np.where(keys == "b", rng.integers(0, 1000, n),
                             rng.integers(0, 8000, n))).astype(np.int64)
    tbl = pa.table({"k": pa.array(keys), "v": pa.array(vals, pa.int64())})
    out = hll_group_distinct(_ds(tbl), key_col="k", val_col="v", p=12)
    exact = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique()
    for r in out.itertuples():
        assert abs(r.n_est - exact[r.k]) / exact[r.k] < 0.1
    # semilattice: a different block layout gives BIT-identical estimates
    out2 = hll_group_distinct(_ds(tbl).repartition(13), key_col="k",
                              val_col="v", p=12)
    pd.testing.assert_frame_equal(out, out2, check_exact=True)


def test_hll_group_distinct_empty():
    from sagan_ray.datapipe import hll_group_distinct
    tbl = pa.table({"k": pa.array([], pa.string()),
                    "v": pa.array([], pa.int64())})
    assert hll_group_distinct(_ds(tbl), key_col="k", val_col="v").empty


def test_transition_counts_hand_case():
    from sagan_ray.datapipe import transition_counts
    rows = [
        (1, 10, "a"), (1, 20, "b"), (1, 30, "a"),   # a->b, b->a
        (2, 10, "b"), (2, 20, "b"),                 # b->b
        (3, 10, "a"),                               # no transition
    ]
    out = transition_counts(_ds(_events_with_ids(rows)))
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}


def test_transition_counts_tie_order_by_event_id():
    from sagan_ray.datapipe import transition_counts
    # equal timestamps: order falls back to event_id (SQL lag's
    # ORDER BY ts, event_id) — ids 0,1,2 give a->b->c
    rows = [(1, 10, "a"), (1, 10, "b"), (1, 10, "c")]
    out = transition_counts(_ds(_events_with_ids(rows)))
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 1, ("b", "c"): 1}


def test_sequence_counts_hand_case_and_k2_equivalence():
    from sagan_ray.datapipe import sequence_counts, transition_counts
    rows = [
        (1, 10, "a"), (1, 20, "b"), (1, 30, "a"), (1, 40, "c"),
        (2, 10, "b"), (2, 20, "b"), (2, 30, "b"),
        (3, 10, "a"), (3, 20, "c"),                # too short for k=3
    ]
    tbl = _events_with_ids(rows)
    out = sequence_counts(_ds(tbl), 3)
    got = {(r.t1, r.t2, r.t3): r.n for r in out.itertuples()}
    assert got == {("a", "b", "a"): 1, ("b", "a", "c"): 1,
                   ("b", "b", "b"): 1}

    # k=2 must equal the transition matrix exactly
    k2 = sequence_counts(_ds(tbl), 2)
    tr = transition_counts(_ds(tbl))
    assert k2.rename(columns={"t1": "from_type",
                              "t2": "to_type"}).equals(tr)


def _events_with_ids(rows):
    t = _events(rows)
    return t.append_column(
        "event_id", pa.array(list(range(len(rows))), pa.int64()))


def test_funnel_conversion_window():
    from sagan_ray.datapipe import funnel_stages
    rows = [
        # user 1: click inside the window, purchase outside it
        (1, 100, "view"), (1, 150, "click"), (1, 400, "purchase"),
        # user 2: everything inside
        (2, 100, "view"), (2, 150, "click"), (2, 200, "purchase"),
        # user 3: click exactly AT the deadline (inclusive) counts
        (3, 100, "view"), (3, 300, "click"),
    ]
    out = funnel_stages(_ds(_events(rows)), STEPS,
                        within_us=200).to_pandas()
    got = dict(zip(out["user_id"].astype(int), out["stage"].astype(int)))
    assert got == {1: 2, 2: 3, 3: 2}
    # window anchors at the FIRST view even if a later view is closer
    rows2 = [(1, 100, "view"), (1, 500, "view"), (1, 600, "click")]
    out2 = funnel_stages(_ds(_events(rows2)), STEPS,
                         within_us=200).to_pandas()
    assert int(out2["stage"].iloc[0]) == 1


def test_compression_ratio_signals():
    from sagan_ray.datapipe.textstats import compression_ratio
    boiler = "spam ham " * 500
    prose = ("the quick brown fox jumps over one lazy dog while seven "
             "wizards brew unique potions under a crimson sky tonight ")
    import numpy as np
    noise = "".join(np.random.RandomState(3).choice(
        list("0123456789abcdef"), 4000))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                    "text": pa.array([boiler, prose * 30, noise, ""],
                                     pa.string())})
    out = compression_ratio(_ds(tbl)).to_pandas().set_index("doc_id")
    assert out.loc[0, "ratio"] < 0.05          # boilerplate crushes
    assert out.loc[2, "ratio"] > out.loc[1, "ratio"]   # noise resists
    assert out.loc[3, "ratio"] == 1.0 and out.loc[3, "n_bytes"] == 0


def test_props_key_agg_edges():
    """Missing key, non-integer value, negative ints, and malformed
    JSON: only integer-valued 'k' rows aggregate; NULL-extraction rows
    drop from n_with_key (the count(k) convention)."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.events import props_key_agg

    df = pd.DataFrame({
        "event_type": ["a", "a", "a", "b", "b", "c"],
        "props": ['{"k": 3}', '{"x": 9}', '{"k": -7}',
                  '{"k": 2, "z": 1}', 'not json at all', '{"k": 1.5}']})
    out = props_key_agg(rd.from_pandas(df).repartition(3), key="k")
    out = out.set_index("event_type")
    assert out.loc["a", "n_with_key"] == 2 and out.loc["a", "sum_k"] == -4
    assert out.loc["a", "min_k"] == -7 and out.loc["a", "max_k"] == 3
    assert out.loc["b", "n_with_key"] == 1 and out.loc["b", "sum_k"] == 2
    assert "c" not in out.index          # 1.5 is not an integer k


def test_step_latency_strictly_after():
    """B before the first A doesn't count; the earliest B strictly
    after the first A wins; users without both steps drop out."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.events import step_latency

    def t(s):
        return pd.Timestamp(s)

    df = pd.DataFrame({
        "user_id": pd.array([1, 1, 1, 2, 2, 3], dtype="int64"),
        "ts": [t("2026-01-01 10:00"), t("2026-01-01 09:00"),
               t("2026-01-01 11:00"),
               t("2026-01-02 08:00"), t("2026-01-02 07:00"),
               t("2026-01-03 00:00")],
        "event_type": ["A", "B", "B",       # u1: B@9 < A@10 → B@11 wins
                       "A", "B",            # u2: only B BEFORE A → drop
                       "A"]})               # u3: no B → drop
    out = (step_latency(rd.from_pandas(df).repartition(2), "A", "B")
           .to_pandas())
    assert list(out["user_id"]) == [1]
    assert int(out["latency_us"].iloc[0]) == 3600 * 1_000_000


def test_running_totals_hand_check():
    from sagan_ray.datapipe import running_totals

    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([7, 7, 8, 7, 8], pa.int64()),
        # user 7: events 2 (ts 10), 1 (ts 20), 4 (ts 20, id breaks tie)
        "ts": pa.array([20, 10, 5, 20, 30], pa.timestamp("us")),
        "value": pa.array([1.5, 2.0, 4.0, 0.25, 1.0], pa.float64()),
    })
    out = (running_totals(_ds(tbl)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [1, 2, 3, 4, 5]
    assert out["run_cnt"].tolist() == [2, 1, 1, 3, 2]
    assert np.allclose(out["run_sum"], [3.5, 2.0, 4.0, 3.75, 5.0])


def test_window_topk_hand_check_and_ties():
    from sagan_ray.datapipe import window_topk

    h = 3600 * 1_000_000
    tbl = pa.table({
        # hour 0: user 1 ×2, users 2 and 3 ×1 each (tie → lower id first)
        # hour 1: user 9 ×1
        "ts": pa.array([10, 20, 30, 40, h + 5], pa.timestamp("us")),
        "user_id": pa.array([1, 1, 3, 2, 9], pa.int64()),
    })
    out = (window_topk(_ds(tbl), k=2).to_pandas()
           .sort_values(["window", "rank"]).reset_index(drop=True))
    assert out["user_id"].tolist() == [1, 2, 9]
    assert out["n"].tolist() == [2, 1, 1]
    assert out["rank"].tolist() == [1, 2, 1]


def test_window_rate_limit_hand_check():
    from sagan_ray.datapipe import window_rate_limit

    h = 3600 * 1_000_000
    tbl = pa.table({
        # user 1, hour 0: four events → keep first 2 by (ts, id);
        # ts tie between ids 3 and 4 → id breaks it; user 2 untouched;
        # user 1, hour 1: fresh budget
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 2, 1], pa.int64()),
        "ts": pa.array([10, 5, 20, 20, 1, h + 1], pa.timestamp("us")),
    })
    out = (window_rate_limit(_ds(tbl), limit=2).to_pandas()
           .sort_values("event_id"))
    assert out["event_id"].tolist() == [1, 2, 5, 6]


def test_type_trend_hand_check():
    """Slope of a perfectly linear daily series must be exact."""
    from sagan_ray.datapipe import type_trend

    d = 86_400 * 1_000_000
    # type "up": counts 1,2,3 on days 0,1,2 → slope exactly 1.0
    ts, et = [], []
    for day, cnt in [(0, 1), (1, 2), (2, 3)]:
        for j in range(cnt):
            ts.append(day * d + j)
            et.append("up")
    ts.append(5 * d)
    et.append("flat")                      # single window → den 0 → 0.0
    tbl = pa.table({"ts": pa.array(ts, pa.timestamp("us")),
                    "event_type": pa.array(et)})
    out = type_trend(_ds(tbl), unit="day").sort_values("event_type")
    assert out[out.event_type == "up"]["slope"].iloc[0] == 1.0
    assert out[out.event_type == "flat"]["slope"].iloc[0] == 0.0


def test_debounce_hand_check():
    """Lag-based semantics: the previous event suppresses the next even
    when it was itself suppressed; streams are per (user, type); ts tie
    breaks by event_id (second of a tie never survives)."""
    from sagan_ray.datapipe import debounce

    tbl = pa.table({
        # user 1 / "a": ts 0, 5, 12, 30 with gap 10 → keep 0 (first),
        #   drop 5 (diff 5), keep 12 (diff 7 from the DROPPED 5? no —
        #   lag-based: diff vs previous event 5 is 7 ≤ 10 → drop),
        #   keep 30 (diff 18 > 10).
        # user 1 / "b": independent stream → its first survives.
        # user 2 / "a": tie at ts 0 → id 7 first, id 8 dropped (diff 0).
        "event_id": pa.array([1, 2, 3, 4, 5, 7, 8], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["a", "a", "a", "a", "b", "a", "a"]),
        "ts": pa.array([0, 5, 12, 30, 3, 0, 0], pa.timestamp("us")),
    })
    out = (debounce(_ds(tbl), gap_us=10).to_pandas()
           .sort_values("event_id"))
    assert out["event_id"].tolist() == [1, 4, 5, 7]


def test_adjacent_pairs_hand_check():
    """Pair = row adjacency in turn order within one conv: roles must
    match exactly, conv boundaries break pairs, lengths exact."""
    from sagan_ray.pipelines.aggregates import adjacent_pairs

    tbl = pa.table({
        "conv_id": ["c1", "c1", "c1", "c1", "c2", "c2"],
        "turn_idx": pa.array([0, 1, 2, 3, 0, 1], pa.int32()),
        "role": ["user", "assistant", "assistant", "user",
                 "assistant", "user"],
        "text": ["hi", "hello!", "more", "bye", "orphan", "x"],
    })
    out = (adjacent_pairs(_ds(tbl), prev_role="user",
                          next_role="assistant").to_pandas()
           .sort_values(["conv_id", "turn_idx"]))
    # only c1 turn 1 qualifies (turn 2 follows assistant; c2 turn 0 has
    # no predecessor — conv boundary from c1 must not leak)
    assert out["conv_id"].tolist() == ["c1"]
    assert out["turn_idx"].tolist() == [1]
    assert out["prompt_n"].tolist() == [2]
    assert out["response_n"].tolist() == [6]


def test_basket_pairs_hand_check():
    """Co-occurrence counts users, not events: repeats within a user
    collapse; pairs are lexicographic; a single-type user contributes
    nothing; the map-side prune must not merge users across batches."""
    from sagan_ray.datapipe.events import basket_pairs

    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 3, 3, 3], pa.int64()),
        "event_type": ["click", "error", "click", "view",
                       "error", "click",
                       "view", "view", "view"],
    })
    out = basket_pairs(_ds(tbl))
    got = list(out.itertuples(index=False, name=None))
    # user1 {click,error,view}: 3 pairs; user2 {click,error}: 1; user3
    # {view}: 0
    assert got == [("click", "error", 2), ("click", "view", 1),
                   ("error", "view", 1)]


def test_active_users_hand_check():
    """DAU counts distinct users per calendar day (repeats collapse),
    n_events counts events, MAU is the containing MONTH's distinct set
    (a user active on two days of one month counts once), stickiness =
    dau/mau. Spans a month boundary so the month join is exercised."""
    from sagan_ray.datapipe.events import active_users

    US_D = 86_400_000_000
    jan31 = 30 * US_D          # epoch day 30 = 1970-01-31
    feb01 = 31 * US_D
    rows = [
        (1, 100, "a"), (1, 200, "a"), (2, 300, "a"),       # jan 1
        (1, jan31 + 100, "a"),                             # jan 31
        (3, feb01 + 100, "a"), (3, feb01 + 200, "a"),      # feb 1
    ]
    out = active_users(_ds(_events(rows)))
    assert out["day"].dt.strftime("%Y-%m-%d").tolist() == [
        "1970-01-01", "1970-01-31", "1970-02-01"]
    assert out["dau"].tolist() == [2, 1, 1]
    assert out["n_events"].tolist() == [3, 1, 2]
    # january has users {1,2} (user 1 on two days counts once) -> mau 2
    assert out["mau"].tolist() == [2, 2, 1]
    assert out["stickiness"].tolist() == [1.0, 0.5, 1.0]


def test_last_touch_attribution_hand_check():
    """Strictly-before cutoff (an event AT the conversion ts does not
    count), ts ties break by larger event_id, conversion-less users
    contribute nothing, converters with no prior event fall to
    'direct', and only the FIRST conversion anchors the cutoff."""
    from sagan_ray.datapipe.events import last_touch_attribution

    rows = [  # (event_id, user, ts, type)
        (1, 1, 100, "view"), (2, 1, 200, "click"),
        (3, 1, 300, "purchase"),          # u1: last touch = click
        (4, 1, 400, "error"),             # after conversion — ignored
        (5, 2, 100, "purchase"),          # u2: nothing before -> direct
        (6, 3, 100, "view"), (7, 3, 100, "click"),   # ts tie -> id 7
        (8, 3, 150, "purchase"), (9, 3, 160, "purchase"),
        (10, 4, 100, "view"),             # u4 never converts
        (11, 5, 100, "click"), (12, 5, 100, "purchase"),  # AT ts -> direct
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = last_touch_attribution(_ds(tbl))
    got = list(out.itertuples(index=False, name=None))
    assert got == [("click", 2), ("direct", 2)]
    # first-touch on the same table: u1 earliest pre-conversion = view;
    # u3 ts tie at 100 -> SMALLER id 6 = view; direct users unchanged
    out_f = last_touch_attribution(_ds(tbl), touch="first")
    got_f = list(out_f.itertuples(index=False, name=None))
    assert got_f == [("direct", 2), ("view", 2)]


def test_ab_conversion_hand_check():
    """Arms come from the Knuth hash of the user id (not arrival
    order), repeat events collapse to one user, conversion is max over
    the user's events, and rates are exact int/int divisions."""
    from sagan_ray.datapipe.events import ab_conversion

    users = list(range(1, 9))
    rows = []
    for u in users:
        rows.append((u, 100, "view"))
        rows.append((u, 200, "view"))          # repeats collapse
        if u in (1, 2, 3):
            rows.append((u, 300, "purchase"))
    out = ab_conversion(_ds(_events(rows)))
    grp_of = {u: (u * 2654435761 % 2**32) % 2 for u in users}
    exp_users = {g: sum(1 for u in users if grp_of[u] == g) for g in (0, 1)}
    exp_conv = {g: sum(1 for u in (1, 2, 3) if grp_of[u] == g)
                for g in (0, 1)}
    assert out["grp"].tolist() == [0, 1]
    assert out["n_users"].tolist() == [exp_users[0], exp_users[1]]
    assert out["n_converted"].tolist() == [exp_conv[0], exp_conv[1]]
    assert out["conv_rate"].tolist() == [
        exp_conv[0] / exp_users[0], exp_conv[1] / exp_users[1]]


def test_interarrival_stats_hand_check():
    """Gaps pair CONSECUTIVE same-(user, type) events only: a user's
    single event of a type contributes no gap, different users never
    pair, and the (ts, id) tie-break orders equal timestamps."""
    from sagan_ray.datapipe.events import interarrival_stats

    rows = [  # (event_id, user, ts, type)
        (1, 1, 100, "click"), (2, 1, 250, "click"), (3, 1, 1000, "click"),
        (4, 1, 500, "view"),                   # single view: no gap
        (5, 2, 300, "click"),                  # different user
        (6, 2, 340, "click"),
        (7, 3, 700, "view"), (8, 3, 700, "view"),   # tie -> gap 0
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = interarrival_stats(_ds(tbl))
    got = list(out.itertuples(index=False, name=None))
    # click gaps: u1 (150, 750), u2 (40) -> n=3 sum=940 max=750
    # view gaps: u3 (0) -> n=1 sum=0 max=0
    assert got == [("click", 3, 940, 750, 940 / 3),
                   ("view", 1, 0, 0, 0.0)]


def test_daily_rate_outliers_hand_check():
    """Fences are PER TYPE over that type's daily counts (nearest-rank
    q1/q3): a spike day is flagged against its own type's history only,
    and a type whose counts are constant flags nothing (IQR 0 => fences
    collapse onto the constant)."""
    from sagan_ray.datapipe.events import daily_rate_outliers

    DAY = 86_400_000_000  # us
    rows = []
    # type a: days 0..3 with counts 1,1,1,5 -> m=4, q1=vals[0]=1,
    # q3=vals[2]=1, IQR=0 -> lo=hi=1.0; only day 3 (n=5) is outside.
    for d, n in enumerate([1, 1, 1, 5]):
        rows += [(d * DAY + j, "a") for j in range(n)]
    # type b: two days at a constant 3 -> lo=hi=3.0, nothing flagged.
    for d in range(2):
        rows += [(d * DAY + 10 + j, "b") for j in range(3)]
    tbl = pa.table({
        "ts": pa.array([r[0] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
    })
    out = daily_rate_outliers(_ds(tbl))
    got = [(r.event_type, r.day.value // (DAY * 1000), r.n, r.lo, r.hi,
            r.is_outlier) for r in out.itertuples(index=False)]
    assert got == [
        ("a", 0, 1, 1.0, 1.0, False), ("a", 1, 1, 1.0, 1.0, False),
        ("a", 2, 1, 1.0, 1.0, False), ("a", 3, 5, 1.0, 1.0, True),
        ("b", 0, 3, 3.0, 3.0, False), ("b", 1, 3, 3.0, 3.0, False),
    ]


def test_daily_spike_days_exact_integer_fence():
    """The z-score test runs in pure integers: with counts [1,1,1,5]
    (n=4, S=8, SS=28) the spike day needs (5·4−8)² = 144 >
    z²·(4·28−64) = 48·z², true at z=1 but FALSE at exactly the
    boundary z where 144 = 48·z² (z²=3) — strict inequality; constant
    series flag nothing (variance term 0 AND deviation 0)."""
    from sagan_ray.datapipe.events import daily_spike_days

    DAY = 86_400_000_000
    rows = []
    for d, n in enumerate([1, 1, 1, 5]):
        rows += [(d * DAY + j, "a") for j in range(n)]
    for d in range(2):
        rows += [(d * DAY + 10 + j, "b") for j in range(3)]
    tbl = pa.table({
        "ts": pa.array([r[0] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
    })
    out = daily_spike_days(_ds(tbl), z=1)
    got = [(r.event_type, r.n, r.is_spike)
           for r in out.itertuples(index=False)]
    assert got == [("a", 1, False), ("a", 1, False), ("a", 1, False),
                   ("a", 5, True), ("b", 3, False), ("b", 3, False)]
    # z=2: 144 > 4*48=192 is false -> nothing flagged
    out2 = daily_spike_days(_ds(tbl), z=2)
    assert not out2["is_spike"].any()


def test_session_stats_boundary_and_singletons():
    """A gap of EXACTLY gap_s stays inside the session (strict >);
    durations are last-minus-first per session with singletons at 0;
    avg_events is n_events/n_sessions."""
    from sagan_ray.datapipe.events import session_stats

    S = 1_000_000  # 1 s in us
    rows = [  # (event_id, user, ts_us)
        # user 1: [0, 1800s] one session (gap == 1800 s exactly),
        # then 1800s+1us later -> new session, singleton.
        (1, 1, 0), (2, 1, 1800 * S), (3, 1, 3600 * S + S + 1),
        # user 2: single event -> one session of duration 0.
        (4, 2, 50),
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })
    out = session_stats(_ds(tbl))
    got = list(out.itertuples(index=False, name=None))
    assert got == [(1, 2, 1800 * S, 1800 * S, 1.5),
                   (2, 1, 0, 0, 1.0)]


def test_monthly_churn_adjacency_and_year_boundary():
    """Retained = active in the CALENDAR next month: Dec->Jan counts
    (year rollover), a 2-month gap does not; rate is retained/active."""
    from sagan_ray.datapipe.events import monthly_churn

    def ts(y, mo):  # mid-month timestamp
        return np.datetime64(f"{y}-{mo:02d}-15", "us")

    rows = [  # (user, ts)
        (1, ts(2023, 11)), (1, ts(2023, 12)), (1, ts(2024, 1)),
        (2, ts(2023, 12)), (2, ts(2024, 2)),   # gap: not retained
        (3, ts(2024, 1)),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = monthly_churn(_ds(tbl))
    got = [(str(r.month)[:7], r.n_active, r.n_retained, r.retained_rate)
           for r in out.itertuples(index=False)]
    assert got == [
        ("2023-11", 1, 1, 1.0),        # u1 Nov->Dec
        ("2023-12", 2, 1, 0.5),        # u1 Dec->Jan; u2 gap
        ("2024-01", 2, 0, 0.0),        # u1,u3 active; none in Feb
        ("2024-02", 1, 0, 0.0),        # u2
    ]


def test_markov_nll_hand_check():
    """Transition probs are corpus-global, scoring is per user: with
    a->b twice and a->c once in the corpus, P(b|a)=2/3 and P(c|a)=1/3;
    a user whose only transition is the rare a->c scores ln(3)."""
    from sagan_ray.datapipe.events import markov_nll

    rows = [  # (user, ts, type)
        (1, 10, "a"), (1, 20, "b"),      # a->b
        (2, 10, "a"), (2, 20, "b"),      # a->b
        (3, 10, "a"), (3, 20, "c"),      # a->c (rare)
        (4, 10, "b"),                    # no transition: no row
    ]
    tbl = _events_with_ids(rows)
    out = markov_nll(_ds(tbl))
    got = {int(r.user_id): (int(r.n_trans), r.nll)
           for r in out.itertuples(index=False)}
    assert set(got) == {1, 2, 3}
    assert got[1] == (1, np.log(3.0 / 2.0))
    assert got[2] == (1, np.log(3.0 / 2.0))
    assert got[3] == (1, np.log(3.0 / 1.0))


def test_boilerplate_turns_hand_check():
    """A turn text in >= min_convs distinct convs is dropped everywhere
    (even on repeats within one conv); distinctness is per conv, not per
    occurrence; an all-boilerplate conv keeps its row with doc_text ''."""
    from sagan_ray.pipelines.aggregates import boilerplate_turns

    tbl = pa.table({
        "conv_id": ["c1", "c1", "c1", "c2", "c2", "c3", "c3", "c3"],
        "turn_idx": pa.array([0, 1, 2, 0, 1, 0, 1, 2], pa.int32()),
        "role": ["sys", "user", "sys", "sys", "user", "sys", "sys",
                 "user"],
        "text": ["BANNER", "hi", "BANNER", "BANNER", "yo", "BANNER",
                 "BANNER", "hm"],
    })
    out = (boilerplate_turns(_ds(tbl), min_convs=3).to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    # BANNER appears in 3 distinct convs -> boiler; repeats inside c1/c3
    # are each counted in n_boiler
    assert out["conv_id"].tolist() == ["c1", "c2", "c3"]
    assert out["n_boiler"].tolist() == [2, 1, 2]
    assert out["n_kept"].tolist() == [1, 1, 1]
    assert out["doc_text"].tolist() == ["user: hi", "user: yo",
                                        "user: hm"]
    # raise the bar: nothing qualifies, docs = full conv_documents form
    out2 = (boilerplate_turns(_ds(tbl), min_convs=4).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    assert out2["n_boiler"].tolist() == [0, 0, 0]
    assert out2["doc_text"].tolist()[0] == "sys: BANNER\nuser: hi\nsys: BANNER"


def test_boilerplate_turns_all_boiler_conv():
    from sagan_ray.pipelines.aggregates import boilerplate_turns

    tbl = pa.table({
        "conv_id": ["a", "b", "c", "a"],
        "turn_idx": pa.array([0, 0, 0, 1], pa.int32()),
        "role": ["sys", "sys", "sys", "user"],
        "text": ["T", "T", "T", "q"],
    })
    out = (boilerplate_turns(_ds(tbl), min_convs=2).to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    assert out["doc_text"].tolist() == ["user: q", "", ""]
    assert out["n_kept"].tolist() == [1, 0, 0]


def test_rollup_report_levels_fold_exactly():
    """Coarser levels derive from the finest: counts sum, min/max fold
    order-free; rolled-up keys render as the all-label."""
    from sagan_ray.datapipe.events import rollup_report

    tbl = pa.table({
        "event_type": ["a", "a", "a", "b"],
        "ts": pa.array([0, 86_400_000_000, 86_400_000_000 + 5, 10],
                       pa.timestamp("us")),
        "value": [1.5, -2.0, 7.25, 0.5],
    })
    out = rollup_report(_ds(tbl))
    total = out[out["level"] == 0].iloc[0]
    assert (total["event_type"], total["day"]) == ("(all)", "(all)")
    assert total["n"] == 4 and total["vmin"] == -2.0 and total["vmax"] == 7.25
    a = out[(out["level"] == 1) & (out["event_type"] == "a")].iloc[0]
    assert a["n"] == 3 and a["vmin"] == -2.0 and a["vmax"] == 7.25
    fine = out[out["level"] == 2]
    assert len(fine) == 3           # a×2 days + b×1 day
    d2 = fine[(fine["event_type"] == "a")
              & (fine["day"] == "1970-01-02")].iloc[0]
    assert d2["n"] == 2 and d2["vmax"] == 7.25


def test_pivot_counts_vocabulary_and_fold():
    """Unlisted types are ignored; per-user partials fold across
    batches; n_total counts only vocabulary events."""
    from sagan_ray.datapipe.events import pivot_counts

    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 1], pa.int64()),
        "event_type": ["x", "y", "x", "y", "zzz", "x"],
    })
    out = (pivot_counts(_ds(tbl).repartition(3), ["x", "y"]).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    assert out["user_id"].tolist() == [1, 2]
    assert out["n_x"].tolist() == [3, 0]
    assert out["n_y"].tolist() == [1, 1]
    assert out["n_total"].tolist() == [4, 1]


def test_user_rfm_hand_check():
    """Recency = corpus-last-day minus user-last-day (so the freshest
    user reads 0), frequency is a plain count, monetary is the exact
    64ths-grid integer sum; multi-block partials fold to the same."""
    from sagan_ray.datapipe.events import user_rfm

    D = 86_400_000_000  # one epoch day in us
    rows = [  # (user, ts_us, value)
        (1, 0 * D + 5, 1.0), (1, 2 * D + 7, 0.25),   # last day 2
        (2, 5 * D + 1, 10.5),                        # last day 5 (corpus max)
        (3, 1 * D, 0.015625),                        # 1/64 -> 1 on the grid
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })
    out = user_rfm(_ds(tbl).repartition(3))
    got = list(out.itertuples(index=False, name=None))
    assert got == [(1, 3, 2, 80),    # 64*1.0 + 16
                   (2, 0, 1, 672),   # 64*10.5
                   (3, 4, 1, 1)]


def test_user_lifecycle_classification_and_churn_placement():
    """new = first month ever; retained = prev calendar month active;
    resurrected = gap > 1 month; churned lands at (last-active + 1)
    and at every gap's first missing month."""
    from sagan_ray.datapipe.events import user_lifecycle

    def ts(y, mo):
        return np.datetime64(f"{y}-{mo:02d}-15", "us")

    rows = [
        # u1: Nov, Dec, Jan -> new Nov, retained Dec + Jan, churn Feb
        (1, ts(2023, 11)), (1, ts(2023, 12)), (1, ts(2024, 1)),
        # u2: Dec, Feb -> new Dec, churn Jan, resurrected Feb, churn Mar
        (2, ts(2023, 12)), (2, ts(2024, 2)),
        # u3: Jan only -> new Jan, churn Feb
        (3, ts(2024, 1)), (3, ts(2024, 1)),  # dup event, one pair
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = user_lifecycle(_ds(tbl))
    got = [(str(r.month)[:7], r.n_new, r.n_retained, r.n_resurrected,
            r.n_churned) for r in out.itertuples(index=False)]
    assert got == [
        ("2023-11", 1, 0, 0, 0),
        ("2023-12", 1, 1, 0, 0),
        ("2024-01", 1, 1, 0, 1),   # u3 new, u1 retained; u2 churned in
        ("2024-02", 0, 0, 1, 2),   # u2 resurrected; u1 + u3 churned in
        ("2024-03", 0, 0, 0, 1),   # u2 churned in
    ]


def test_user_lifecycle_empty():
    from sagan_ray.datapipe.events import user_lifecycle

    tbl = pa.table({"user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us"))})
    out = user_lifecycle(_ds(tbl))
    assert list(out.columns) == ["month", "n_new", "n_retained",
                                 "n_resurrected", "n_churned"]
    assert len(out) == 0


def test_windowed_count_join_ties_and_zero_counts():
    """B at exactly t_a is excluded (strictly after); B at exactly
    t_a + W is included; A events with no B in window keep a 0 row;
    other users' B events never count."""
    from sagan_ray.datapipe.events import windowed_count_join

    W = 10  # seconds
    rows = [  # (event_id, user, ts_us, type)
        (1, 1, 1_000_000, "view"),
        (2, 1, 1_000_000, "purchase"),       # tie with t_a: excluded
        (3, 1, 5_000_000, "purchase"),       # inside
        (4, 1, 11_000_000, "purchase"),      # exactly t_a + W: included
        (5, 1, 11_000_001, "purchase"),      # 1 us past: excluded
        (6, 2, 2_000_000, "purchase"),       # other user
        (7, 2, 50_000_000, "view"),          # no B in window -> 0
        (8, 3, 1_000_000, "click"),          # pruned type
    ]
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = (windowed_count_join(_ds(tbl), "view", "purchase", window_s=W)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    got = dict(zip(out["event_id"].astype(int),
                   out["n_follow"].astype(int)))
    assert got == {1: 2, 7: 0}


def test_cohort_matrix_offsets_and_fold():
    from sagan_ray.datapipe.events import cohort_matrix

    def ts(y, mo):
        return np.datetime64(f"{y}-{mo:02d}-10", "us")

    rows = [
        # u1: cohort Nov-23, active Nov, Jan (k=0, k=2)
        (1, ts(2023, 11)), (1, ts(2024, 1)),
        # u2: cohort Nov-23, active Nov, Dec (k=0, k=1)
        (2, ts(2023, 11)), (2, ts(2023, 12)), (2, ts(2023, 12)),
        # u3: cohort Jan-24, active Jan (k=0)
        (3, ts(2024, 1)),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = cohort_matrix(_ds(tbl))
    got = [(str(r.cohort)[:7], r.k, r.n_users)
           for r in out.itertuples(index=False)]
    assert got == [
        ("2023-11", 0, 2), ("2023-11", 1, 1), ("2023-11", 2, 1),
        ("2024-01", 0, 1),
    ]


def test_context_windows_frames_and_conv_boundaries():
    """Window frames never cross a conversation; a turn with fewer than
    window-1 predecessors gets the shorter prefix; window=1 is the
    identity; order inside the frame is turn order."""
    from sagan_ray.pipelines.aggregates import context_windows

    tbl = pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", "c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 2, 3, 0], pa.int64()),
        "text": pa.array(["a", "b", "c", "d", "x"], pa.string()),
    })
    out = (context_windows(_ds(tbl), window=3).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert out["context"].tolist() == [
        "a", "a | b", "a | b | c", "b | c | d", "x"]
    one = (context_windows(_ds(tbl), window=1).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert one["context"].tolist() == ["a", "b", "c", "d", "x"]


def test_holt_forecast_hand_replay():
    """Holt level/trend fold vs a hand replay; a single-window group
    keeps level=x, trend=0; trend tracks a perfectly linear series."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe import holt_forecast

    day = 86_400_000_000
    rows = []
    # 'a': 4, 2, 8 -> l1=4 b1=0; l2=3 b2=-0.5; l3=5.25 b3=0.875
    for d, n in [(0, 4), (1, 2), (2, 8)]:
        rows += [("a", d * day)] * n
    rows += [("b", 9 * day)] * 6
    tbl = pa.table({
        "event_type": pa.array([r[0] for r in rows]),
        "ts": pa.array(np.array([r[1] for r in rows], np.int64),
                       pa.timestamp("us"))})
    out = (holt_forecast(rd.from_arrow(tbl).repartition(3))
           .sort_values("event_type").reset_index(drop=True))
    assert out["n_windows"].tolist() == [3, 1]
    assert out.loc[0, "level"] == 5.25
    assert out.loc[0, "trend"] == 0.875
    assert out.loc[0, "forecast"] == 6.125
    assert (out.loc[1, "level"], out.loc[1, "trend"]) == (6.0, 0.0)


def test_cusum_alarm_hand_replay():
    """CUSUM fold vs hand replay: a flat series stays near zero
    (negative drifts clamp at 0); a step change accumulates; the max
    tracks the peak, not the final."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe import cusum_alarm

    day = 86_400_000_000
    rows = []
    # 'a': 2,2,2,10,2 -> mu=3.6 k=.5: s=0,0,0,max(0,10-4.1)=5.9,
    # then 5.9+(2-4.1)=3.8 ; max 5.9
    for d, n in [(0, 2), (1, 2), (2, 2), (3, 10), (4, 2)]:
        rows += [("a", d * day)] * n
    tbl = pa.table({
        "event_type": pa.array([r[0] for r in rows]),
        "ts": pa.array(np.array([r[1] for r in rows], np.int64),
                       pa.timestamp("us"))})
    out = cusum_alarm(rd.from_arrow(tbl).repartition(3))
    assert out.loc[0, "n_windows"] == 5
    assert out.loc[0, "mu"] == 3.6
    mu = 3.6
    s = smax = 0.0
    for v in [2, 2, 2, 10, 2]:
        s = max(0.0, s + (float(v) - mu - 0.5))
        smax = max(smax, s)
    assert out.loc[0, "cusum_final"] == s
    assert out.loc[0, "cusum_max"] == smax
    assert out.loc[0, "cusum_max"] > out.loc[0, "cusum_final"]


def test_series_operators_empty_input():
    """All four window-series operators return an EMPTY typed frame on
    a zero-row dataset instead of crashing on the all-empty
    to_pandas() column loss (CLAUDE.md round-3 gotcha)."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe import (cusum_alarm, holt_forecast,
                                    ses_forecast, type_trend)

    empty = rd.from_arrow(pa.table({
        "event_type": pa.array([], pa.string()),
        "ts": pa.array([], pa.timestamp("us"))}))
    for fn in (type_trend, ses_forecast, holt_forecast, cusum_alarm):
        out = fn(empty)
        assert len(out) == 0
