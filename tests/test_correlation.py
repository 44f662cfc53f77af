"""Hand-crafted sequences where verdicts differ if per-conv ordering or
window semantics are wrong (FIXTURES.md §2.9). Each scenario asserts both
oracle-vs-Ray parity (via helpers.run_both) and the *absolute* expected
verdicts, so the spec itself is pinned, not just the two implementations'
agreement."""

from datetime import datetime, timedelta

import pyarrow as pa

from sagan_ray.synth import SCHEMA

from .helpers import run_both

T0 = datetime(2024, 3, 1, 12, 0, 0)


def mk(rows):
    """rows: (conv_id, turn_idx, text, offset_seconds)"""
    return pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": ["assistant"] * len(rows),
        "text": pa.array([r[2] for r in rows], pa.large_string()),
        "tool": [""] * len(rows),
        "ts": [T0 + timedelta(seconds=r[3]) for r in rows],
    }, schema=SCHEMA)


XBIT = """
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:1;)
alert any any any -> any any (msg:"isset"; content:"login success"; xbits: isset,brute,track ip_src; sid:2;)
alert any any any -> any any (msg:"isnotset"; content:"login success"; xbits: isnotset,brute,track ip_src; sid:3;)
alert any any any -> any any (msg:"unset"; content:"logout"; xbits: unset,brute,track ip_src; sid:4;)
"""


def hits_of(oracle):
    return sorted((c, t, s) for c, t, s in oracle.hits)


def test_xbit_set_then_isset():
    tbl = mk([
        ("a", 0, "login failed", 0),
        ("a", 1, "login success", 10),       # isset fires (sid 2)
        ("b", 0, "login success", 5),        # no prior set → isnotset (sid 3)
    ])
    oracle, _ = run_both(XBIT, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 1, 2), ("b", 0, 3)]


def test_xbit_expire():
    tbl = mk([
        ("a", 0, "login failed", 0),
        ("a", 1, "login success", 700),      # expired (600s) → isnotset
    ])
    oracle, _ = run_both(XBIT, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 1, 3)]


def test_xbit_unset():
    tbl = mk([
        ("a", 0, "login failed", 0),
        ("a", 1, "logout", 10),              # unset
        ("a", 2, "login success", 20),       # isnotset
    ])
    oracle, _ = run_both(XBIT, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 1, 4), ("a", 2, 3)]


def test_xbit_state_is_per_conv():
    tbl = mk([
        ("a", 0, "login failed", 0),
        ("b", 0, "login success", 50),       # conv b unaffected by conv a
    ])
    oracle, _ = run_both(XBIT, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("b", 0, 3)]


AFTER = """
alert any any any -> any any (msg:"after 2 in 300"; content:"EV"; after: track by_src, count 2, seconds 300; sid:10;)
"""


def test_after_suppress_until_count_exceeded():
    tbl = mk([
        ("a", 0, "EV", 0),      # new key → suppressed (after.c:193-229)
        ("a", 1, "EV", 10),     # count=2, not > 2 → suppressed
        ("a", 2, "EV", 20),     # count=3 > 2 → alert
        ("a", 3, "EV", 30),     # count=4 → alert
    ])
    oracle, engine = run_both(AFTER, tbl)
    assert len(oracle.hits) == 4                      # saganfound counts all
    emitted = sorted(engine.routed().to_pandas()["turn_idx"].astype(int).unique())
    assert emitted == [2, 3]


def test_after_window_reset():
    tbl = mk([
        ("a", 0, "EV", 0),
        ("a", 1, "EV", 10),
        ("a", 2, "EV", 20),     # alert (count 3)
        ("a", 3, "EV", 400),    # gap 380 > 300 since anchor (0)... but
                                # utime slid to 20 on the alert → 380>300 reset
        ("a", 4, "EV", 410),
        ("a", 5, "EV", 420),    # alert again
    ])
    oracle, engine = run_both(AFTER, tbl)
    emitted = sorted(engine.routed().to_pandas()["turn_idx"].astype(int).unique())
    assert emitted == [2, 5]


THRESH = """
alert any any any -> any any (msg:"limit 2/600"; content:"EV"; threshold: type limit, track by_src, count 2, seconds 600; sid:20;)
alert any any any -> any any (msg:"suppress 2 gap120"; content:"SV"; threshold: type suppress, track by_src, count 2, seconds 120; sid:21;)
"""


def test_threshold_limit_first_c_alert():
    tbl = mk([
        ("a", 0, "EV", 0),      # new → alert
        ("a", 1, "EV", 10),     # count=2 → alert
        ("a", 2, "EV", 20),     # count=3 > 2 → suppressed
        ("a", 3, "EV", 700),    # anchored window expired → reset → alert
    ])
    oracle, engine = run_both(THRESH, tbl)
    r = engine.routed().to_pandas()
    emitted = sorted(r[r.sid == 20]["turn_idx"].astype(int))
    assert emitted == [0, 1, 3]


def test_threshold_suppress_slides():
    tbl = mk([
        ("a", 0, "SV", 0),      # alert
        ("a", 1, "SV", 100),    # count=2 → alert
        ("a", 2, "SV", 200),    # count=3 → suppress (gap 100 < 120 keeps window)
        ("a", 3, "SV", 300),    # still sliding → suppress
        ("a", 4, "SV", 500),    # gap 200 > 120 → reset → alert
    ])
    oracle, engine = run_both(THRESH, tbl)
    r = engine.routed().to_pandas()
    emitted = sorted(r[r.sid == 21]["turn_idx"].astype(int))
    assert emitted == [0, 1, 4]


FLEX = """
alert any any any -> any any (msg:"fset"; content:"login attempt"; flexbits: set,fb,300; flexbit_noalert; sid:30;)
alert any any any -> any any (msg:"fisset"; content:"login failed"; flexbits: isset,none,fb; sid:31;)
alert any any any -> any any (msg:"fcount"; content:"check"; flexbits: count,none,>1,fb; sid:32;)
"""


def test_flexbit_set_isset_count_noalert():
    tbl = mk([
        ("a", 0, "login attempt", 0),    # set, noalert → hit but no route
        ("a", 1, "login failed", 10),    # isset fires
        ("a", 2, "check", 20),           # count: 1 entry, need >1 → no hit
        ("a", 3, "login attempt", 30),   # same endpoints → updates entry
        ("a", 4, "check", 40),           # still 1 entry → no hit
    ])
    oracle, engine = run_both(FLEX, tbl)
    assert sorted(s for _, _, s in oracle.hits) == [30, 30, 31]
    routed_sids = set(engine.routed().to_pandas()["sid"].astype(int))
    assert routed_sids == {31}          # noalert rule routed nowhere


PASS_STATEFUL = """
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:40;)
pass any any any -> any any (msg:"stateful pass"; content:"login success"; xbits: isset,brute,track ip_src; sid:41;)
alert any any any -> any any (msg:"maybe shadowed"; content:"login success"; sid:42;)
"""


def test_stateful_pass_shadows_conditionally():
    tbl = mk([
        ("a", 0, "login failed", 0),
        ("a", 1, "login success", 10),   # pass matches (isset) → 42 shadowed
        ("b", 0, "login success", 5),    # pass fails (no set) → 42 fires
    ])
    oracle, _ = run_both(PASS_STATEFUL, tbl)
    assert hits_of(oracle) == [("a", 0, 40), ("a", 1, 41), ("b", 0, 42)]


PASS_QUIET = """
pass any any any -> any any (msg:"quiet stateful"; content:"quiet"; xbits: isnotset,q,track ip_src; sid:51;)
pass any any any -> any any (msg:"quiet"; content:"quiet"; sid:50;)
alert any any any -> any any (msg:"ev"; content:"EV"; after: track by_src, count 1, seconds 300; sid:52;)
"""


def test_pass_in_one_row_spares_a_duplicated_turns_other_row():
    """Two rows sharing (conv, turn 1): the pass match of the "quiet" row
    ends that row only; the other row's ``after`` match still counts,
    as the oracle evaluates each row as its own record. Both rule orders
    (stateful pass first, stateless pass first) are checked."""
    tbl = mk([
        ("a", 0, "EV", 0),
        ("a", 1, "quiet", 10),
        ("a", 1, "EV", 10),
        ("a", 2, "EV", 20),
    ])
    stateful_first = PASS_QUIET.strip().splitlines()
    stateless_first = [stateful_first[1], stateful_first[0], stateful_first[2]]
    for rules, passed in ((stateful_first, 51), (stateless_first, 50)):
        oracle, _ = run_both("\n".join(rules), tbl)
        assert oracle.hit_counts() == {passed: 1, 52: 3}


# a stateful pass rule that sets the bit, one that clears it, and a
# reader of the bit with an ``after`` rule on the same rows
SPLIT_TURN = """
pass any any any -> any any (msg:"open"; content:"alpha"; xbits: set,b,track ip_src,expire 600; sid:61;)
pass any any any -> any any (msg:"close"; content:"gamma"; xbits: unset,b,track ip_src; sid:62;)
alert any any any -> any any (msg:"read"; content:"beta"; xbits: isset,b,track ip_src; sid:63;)
alert any any any -> any any (msg:"ev"; content:"beta"; after: track by_src, count 1, seconds 300; sid:64;)
"""


def test_turn_split_across_blocks_replays_in_input_order():
    """One (conv, turn) with rows in different input blocks: the replay
    takes them in input order, as the oracle does, whatever order the
    blocks' classify tasks finish in. Every row is its own block, and
    set, unset and isset rows alternate within turn 1 (which starts and
    ends with a reader row), so any reordered pair of blocks changes a
    verdict; both block orders are checked."""
    rows = [("a", 0, "beta", 0), ("a", 1, "beta", 5), ("a", 1, "alpha", 5),
            ("a", 1, "beta", 5), ("a", 1, "gamma", 5), ("a", 1, "beta", 5),
            ("a", 1, "beta", 5), ("a", 2, "beta", 9)]
    blocks = [mk([r]) for r in rows]
    oracle, _ = run_both(SPLIT_TURN, blocks, batch_size=1)
    assert oracle.hit_counts() == {61: 1, 62: 1, 63: 1, 64: 6}
    oracle, _ = run_both(SPLIT_TURN, blocks[::-1], batch_size=1)
    assert oracle.hit_counts() == {61: 1, 62: 1, 63: 2, 64: 6}


def test_disk_order_irrelevant():
    """The same logical rows in scrambled on-disk order must yield
    identical verdicts (the stable-(conv_id, turn_idx) ordering contract)."""
    rows = [
        ("a", 0, "login failed", 0),
        ("a", 1, "login success", 10),
        ("a", 2, "logout", 20),
        ("a", 3, "login success", 30),
        ("b", 0, "login success", 0),
    ]
    o1, _ = run_both(XBIT, mk(rows))
    o2, _ = run_both(XBIT, mk(list(reversed(rows))))
    assert hits_of(o1) == hits_of(o2)
    assert o1.hit_counts() == {1: 1, 2: 1, 3: 2, 4: 1}


def test_skewed_bucket_refinement_matches_oracle():
    """Oversized correlation buckets are salted into sub-tasks by finer
    conv hash (max_bucket_bytes forced tiny); verdicts must be identical
    to the oracle — conversations never split across tasks."""
    import collections

    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.oracle import ReferenceEvaluator
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups, gen_transcripts

    rules = parse_rules(XBIT + """
alert any any any -> any any (msg:"aft"; content:"ERROR"; after: track by_src, count 2, seconds 600; sid:9;)
""")
    tbl = gen_transcripts(3000, seed=31)
    eng = run_engine(rd.from_arrow(tbl), rules, build_lookups(),
                     EngineConfig(), batch_size=256, max_bucket_bytes=2048)
    got = collections.Counter(
        (r["conv_id"], r["turn_idx"], r["sid"])
        for r in eng.routed().to_pandas().to_dict("records"))
    oracle = ReferenceEvaluator(rules, build_lookups(),
                                EngineConfig()).evaluate(tbl.to_pylist())
    want = collections.Counter(
        (c, t, s) for sink, s, c, t in oracle.routed if sink == "alert")
    assert got == want and got


def test_hash_group_apply_refinement():
    """hash_group_apply with a tiny max_bucket_bytes produces the same
    result as the unrefined exchange (keys stay whole)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.exchange import hash_group_apply

    n = 20_000
    tbl = pa.table({"k": pa.array([f"key-{i % 37}" for i in range(n)]),
                    "v": pa.array(range(n), pa.int64())})
    schema = pa.schema([("k", pa.string()), ("s", pa.int64()),
                        ("n", pa.int64())])

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", sort=False)["v"].agg(["sum", "count"]).reset_index()
        return g.rename(columns={"sum": "s", "count": "n"})

    base = hash_group_apply(rd.from_arrow(tbl), ["k"], agg,
                            out_schema=schema).to_pandas()
    refined = hash_group_apply(rd.from_arrow(tbl), ["k"], agg,
                               out_schema=schema,
                               max_bucket_bytes=4096).to_pandas()
    a = base.sort_values("k").reset_index(drop=True)
    b = refined.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 37        # every key aggregated exactly once


def test_hash_group_apply_nul_key_lands_in_one_bucket():
    """A key containing a NUL byte hashes the same whatever else is in its
    block, so all its rows meet in one bucket (a categorizing hash once
    conflated 'a\\x00b' with 'a' in one block but not in the other)."""
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.exchange import hash_group_apply

    blocks = [pa.table({"k": ["a\x00b"]}), pa.table({"k": ["a", "a\x00b"]})]

    def count(df: pd.DataFrame) -> pd.DataFrame:
        c = collections.Counter(df["k"])
        return pd.DataFrame({"k": list(c), "n": list(c.values())})

    df = hash_group_apply(rd.from_arrow(blocks), ["k"], count,
                          n_buckets=4).to_pandas()
    assert sorted(zip(df["k"], df["n"])) == [("a", 1), ("a\x00b", 2)]


def test_hash_group_apply_survives_reduce_worker_death(tmp_path):
    """Kill the worker process executing one reduce task (os._exit, a
    hard crash — not an exception) and the exchange still completes with
    exact results: Ray task lineage re-executes the dead reduce task from
    the surviving map outputs. This is the cluster-failure story the
    engine's ``task_retries`` knob controls (pipelines/engine.py) —
    here proven live on the generic exchange."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.exchange import hash_group_apply

    marker = str(tmp_path / "killed_once")
    n = 5_000
    tbl = pa.table({"k": pa.array([f"key-{i % 23}" for i in range(n)]),
                    "v": pa.array(range(n), pa.int64())})
    schema = pa.schema([("k", pa.string()), ("s", pa.int64())])

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        # first reduce task to get here dies mid-flight; its retry (and
        # every later task) sees the marker and proceeds
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return df.groupby("k", as_index=False)["v"].sum().rename(
            columns={"v": "s"})

    got = hash_group_apply(rd.from_arrow(tbl), ["k"], agg,
                           out_schema=schema).to_pandas()
    assert os.path.exists(marker)      # the kill really happened
    want = (tbl.to_pandas().groupby("k", as_index=False)["v"].sum()
            .rename(columns={"v": "s"}))
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True),
        want.sort_values("k").reset_index(drop=True))


def test_metrics_schema_consistent_with_empty_partials():
    """Regression: empty count partials once appended a null-typed 'part'
    column, breaking the metrics concat (and the job entry script)."""
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups

    rules = parse_rules(XBIT)
    # tiny input over many buckets → most partials empty
    tbl = mk([("a", 0, "login failed", 0), ("b", 0, "nothing", 5)])
    eng = run_engine(rd.from_arrow(tbl), rules, build_lookups(),
                     EngineConfig(), batch_size=64)
    eng.routed_counts()
    m = eng.metrics()
    assert m.schema.names == ["sid", "hits", "emits", "part"]
    assert str(m.schema.field("part").type) == "string"
    assert m.num_rows >= 1


def test_task_retries_zero_same_results():
    """task_retries=0 (the flat-driver-memory 100 TB recipe) must change
    only the retry policy, never the verdicts."""
    import ray.data as rd

    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules.parser import parse_rules

    tbl = mk([
        ("a", 0, "login failed", 0),
        ("a", 1, "login success", 10),
        ("b", 0, "login success", 5),
        ("b", 1, "login failed", 8),
        ("b", 2, "logout", 20),
    ])
    rs = parse_rules(XBIT)
    base = run_engine(rd.from_arrow(tbl), rs, batch_size=2)
    nolineage = run_engine(rd.from_arrow(tbl), rs, batch_size=2,
                           task_retries=0)
    assert base.hit_counts() == nolineage.hit_counts()
    a = base.matches.to_pandas().sort_values(
        ["conv_id", "turn_idx", "rule_idx"]).reset_index(drop=True)
    b = nolineage.matches.to_pandas().sort_values(
        ["conv_id", "turn_idx", "rule_idx"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
