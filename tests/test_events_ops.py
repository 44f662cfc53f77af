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
