"""Incremental correlation with state checkpoints: two engine runs over
the first/second halves of a stream (state_dir carrying xbit/after/
threshold state across) must produce exactly the verdicts of one oracle
pass over the full stream — the mmap-persistence analog
(reference src/ipc.c:458-733)."""

import collections

from sagan_ray.config import EngineConfig
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.pipelines.engine import run_engine
from sagan_ray.rules import parse_rules
from sagan_ray.synth import build_lookups

from .test_correlation import mk

RULES = """
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:1;)
alert any any any -> any any (msg:"isset"; content:"login success"; xbits: isset,brute,track ip_src; sid:2;)
alert any any any -> any any (msg:"after2"; content:"EV"; after: track by_src, count 2, seconds 900; sid:3;)
alert any any any -> any any (msg:"lim2"; content:"TV"; threshold: type limit, track by_src, count 2, seconds 900; sid:4;)
alert any any any -> any any (msg:"fset"; content:"mark"; flexbits: set,fb,800; flexbit_noalert; sid:5;)
alert any any any -> any any (msg:"fisset"; content:"probe"; flexbits: isset,none,fb; sid:6;)
"""

ROWS = [
    # run 1
    ("a", 0, "login failed", 0),
    ("a", 1, "EV", 10),
    ("a", 2, "TV", 20),
    ("a", 3, "mark", 30),
    ("b", 0, "EV", 0),
    # run 2 — verdicts depend on run-1 state
    ("a", 4, "login success", 100),   # isset fires only via checkpoint
    ("a", 5, "EV", 110),              # after count=2 → still suppressed
    ("a", 6, "EV", 120),              # count=3 > 2 → alert
    ("a", 7, "TV", 130),              # limit count=2 → alert
    ("a", 8, "TV", 140),              # count=3 → suppressed
    ("a", 9, "probe", 150),           # flexbit isset via checkpoint
    ("b", 1, "EV", 50),
    ("c", 0, "login success", 10),    # no prior set → no isset
    # expiry across runs: xbit expires before this probe
    ("d", 0, "login failed", 0),
]

ROWS2_EXPIRED = [("d", 1, "login success", 700)]  # xbit expire 600 → isnot


def _run(tbl, state_dir):
    import ray.data as rd

    rules = parse_rules(RULES)
    eng = run_engine(rd.from_arrow(tbl), rules, build_lookups(), EngineConfig(),
                     batch_size=512, state_dir=state_dir)
    df = eng.routed().to_pandas()
    return collections.Counter(
        zip(df["conv_id"], df["turn_idx"].astype(int), df["sid"].astype(int)))


def test_incremental_equals_single_pass(tmp_path):
    all_rows = ROWS + ROWS2_EXPIRED
    split = 5  # run 1 gets the first five rows (all turn_idx-earlier per conv)
    run1_rows = [r for r in all_rows if (r[0], r[1]) in
                 {(x[0], x[1]) for x in ROWS[:split]}]
    run2_rows = [r for r in all_rows if (r[0], r[1]) not in
                 {(x[0], x[1]) for x in run1_rows}]

    state_dir = str(tmp_path / "state")
    got = _run(mk(run1_rows), state_dir) + _run(mk(run2_rows), state_dir)

    oracle = ReferenceEvaluator(parse_rules(RULES), build_lookups(),
                                EngineConfig()).evaluate(mk(all_rows).to_pylist())
    want = collections.Counter(
        (c, t, s) for sink, s, c, t in oracle.routed if sink == "alert")
    assert got == want
    # the checkpoint-dependent verdicts actually happened
    assert ("a", 4, 2) in got      # xbit isset across runs
    assert ("a", 6, 3) in got      # after counter carried across runs
    assert ("a", 8, 4) not in got  # threshold suppression carried
    assert ("a", 9, 6) in got      # flexbit isset across runs
    assert ("d", 1, 2) not in got  # xbit expired across runs


def test_state_files_written_and_pruned(tmp_path):
    state_dir = str(tmp_path / "st")
    _run(mk(ROWS[:5]), state_dir)
    import os

    import pyarrow.parquet as pq

    files = [os.path.join(state_dir, d, "state.parquet")
             for d in os.listdir(state_dir) if d.startswith("bucket=")]
    assert files
    rows = []
    for f in files:
        rows.extend(pq.read_table(f).to_pylist())
    kinds = collections.Counter(r["kind"] for r in rows)
    assert kinds["xbit"] >= 1 and kinds["after"] >= 1

    # a later run far past every expiry prunes the stale bit state in the
    # buckets it touches (conv 'a'/'b' probes land in the same buckets as
    # their stored state; untouched buckets keep theirs — no evidence time
    # passed there, matching the reference's lazy Clean_IPC_Object sweep)
    _run(mk([("a", 100, "login failed", 10_000_000),
             ("b", 100, "login failed", 10_000_000)]), state_dir)
    rows2 = []
    for d in os.listdir(state_dir):
        if d.startswith("bucket="):
            rows2.extend(pq.read_table(
                os.path.join(state_dir, d, "state.parquet")).to_pylist())
    stale = [r for r in rows2 if r["kind"] in ("xbit", "flexbit")
             and r["expire"] <= 10_000_000]
    assert not stale
    # the probe's own fresh xbits survive
    assert any(r["kind"] == "xbit" and r["expire"] > 10_000_000 for r in rows2)


def test_state_meta_adopted_and_corruption_raises(tmp_path):
    """A state dir's bucket layout is fixed by its first run: later runs
    adopt it regardless of session size; corrupt metadata raises."""
    import json
    import os

    import pytest
    import ray.data as rd

    state_dir = str(tmp_path / "st")
    os.makedirs(state_dir)
    with open(os.path.join(state_dir, "_STATE.json"), "w") as f:
        json.dump({"n_buckets": 7, "v": 1}, f)   # unusual but valid
    _run(mk(ROWS[:2]), state_dir)
    assert sum(1 for d in os.listdir(state_dir)
               if d.startswith("bucket=")) <= 7   # adopted layout

    with open(os.path.join(state_dir, "_STATE.json"), "w") as f:
        json.dump({"n_buckets": "bogus", "v": 1}, f)
    with pytest.raises(ValueError):
        run_engine(rd.from_arrow(mk(ROWS[:2])), parse_rules(RULES),
                   build_lookups(), EngineConfig(), state_dir=state_dir)


def test_lagging_conv_state_survives_fast_conv(tmp_path):
    """Regression (round-2 ADVICE medium): event times are unrelated across
    conversations — a conv whose stream lags the bucket's fastest conv must
    NOT have its still-live bit pruned by the faster conv's watermark.
    ('lag' and 'fast' hash into the same 4-bucket slot — asserted below
    so hash/bucket changes can't silently devacuate this regression.)"""
    import numpy as np
    import pandas as pd

    h = pd.util.hash_array(np.array(["lag", "fast"], dtype=object), categorize=False) % 4
    assert h[0] == h[1], "conv hash changed: pick colliding conv ids"
    state_dir = str(tmp_path / "st")
    # run 1: lag sets an xbit at t=0 (expire 600 → live until 600)
    got = _run(mk([("lag", 0, "login failed", 0)]), state_dir)
    # run 2: only fast advances, far past lag's expiry
    got += _run(mk([("fast", 0, "login failed", 50_000)]), state_dir)
    # run 3: lag probes at t=100 — its bit is still live
    got += _run(mk([("lag", 1, "login success", 100)]), state_dir)
    assert ("lag", 1, 2) in got


def test_follow_loop_incremental(tmp_path):
    """FIFO analog: files dropped between polls are processed exactly
    once, with correlation state carried across polls — the combined
    verdicts equal one oracle pass over the concatenated stream."""
    import pyarrow.parquet as pq

    from sagan_ray.sources.stream import follow, poll_once

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    rules = parse_rules(RULES)

    pq.write_table(mk(ROWS[:5]), str(in_dir / "part-000.parquet"))
    r1 = poll_once(str(in_dir), str(out_dir), rules, build_lookups(),
                   EngineConfig())
    assert r1["files"] == ["part-000.parquet"]

    # second file arrives; verdicts depend on poll-1 state
    run2 = [r for r in ROWS + ROWS2_EXPIRED
            if (r[0], r[1]) not in {(x[0], x[1]) for x in ROWS[:5]}]
    pq.write_table(mk(run2), str(in_dir / "part-001.parquet"))
    results = list(follow(str(in_dir), str(out_dir), rules, build_lookups(),
                          EngineConfig(), poll_seconds=0.01,
                          idle_polls_to_stop=2))
    assert [r["files"] for r in results] == [["part-001.parquet"]]

    # re-poll: nothing new (manifest prevents reprocessing)
    assert poll_once(str(in_dir), str(out_dir), rules, build_lookups(),
                     EngineConfig())["files"] == []

    import os

    alert_dir = out_dir / "alerts"
    got = collections.Counter()
    for f in os.listdir(alert_dir):
        for r in pq.read_table(os.path.join(alert_dir, f)).to_pylist():
            got[(r["conv_id"], r["turn_idx"], r["sid"])] += 1
    oracle = ReferenceEvaluator(parse_rules(RULES), build_lookups(),
                                EngineConfig()).evaluate(
        mk(ROWS + ROWS2_EXPIRED).to_pylist())
    want = collections.Counter(
        (c, t, s) for sink, s, c, t in oracle.routed if sink == "alert")
    assert got == want
    assert ("a", 4, 2) in got      # xbit isset only via carried state


def test_poll_skips_hidden_files(tmp_path):
    """A hidden ``.parquet`` name is a producer's in-progress write: the
    poll neither runs nor records it, and it reads an upper-case
    ``.PARQUET`` name, as ``read_transcripts(dir)`` does."""
    import json
    import os

    import pyarrow.parquet as pq

    from sagan_ray.sources.stream import MANIFEST, poll_once
    from sagan_ray.sources.transcripts import read_transcripts

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    rules = parse_rules(RULES)
    pq.write_table(mk(ROWS[:5]), str(in_dir / "a.parquet"))
    pq.write_table(mk(ROWS[5:]), str(in_dir / ".b.parquet"))
    pq.write_table(mk(ROWS[5:7]), str(in_dir / "c.PARQUET"))
    assert [os.path.basename(p) for p in read_transcripts(
        str(in_dir)).paths] == ["a.parquet", "c.PARQUET"]
    res = poll_once(str(in_dir), str(out_dir), rules, build_lookups(),
                    EngineConfig())
    oracle = ReferenceEvaluator(rules, build_lookups(), EngineConfig()
                                ).evaluate(mk(ROWS[:7]).to_pylist())
    assert res == {"files": ["a.parquet", "c.PARQUET"],
                   "routed": sum(n for (sink, _), n in
                                 oracle.routed_counts().items()
                                 if sink == "alert")}
    with open(out_dir / MANIFEST) as f:
        assert json.load(f) == ["a.parquet", "c.PARQUET"]


def test_follow_loop_ruleset_reload(tmp_path):
    """SIGHUP analog: a rule added to the rules FILE between polls fires
    on the next poll, with correlation state carried across the reload
    (the xbit set under the old ruleset satisfies an isset under the
    new one)."""
    import os
    import time

    import pyarrow.parquet as pq

    from sagan_ray.sources.stream import follow

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    rules_path = str(tmp_path / "live.rules")
    base = ('alert any any any -> any any (msg:"set"; content:"login failed"; '
            "xbits: set,brute,track ip_src,expire 600; sid:1;)\n")
    with open(rules_path, "w") as f:
        f.write(base)

    pq.write_table(mk([("a", 0, "login failed", 0)]),
                   str(in_dir / "p0.parquet"))
    res = list(follow(str(in_dir), str(out_dir), None, build_lookups(),
                      EngineConfig(), poll_seconds=0.01,
                      idle_polls_to_stop=1, rules_path=rules_path))
    assert [r["files"] for r in res] == [["p0.parquet"]]

    # add an isset rule (the reload) + a new file probing the carried bit
    with open(rules_path, "a") as f:
        f.write('alert any any any -> any any (msg:"isset"; '
                'content:"login success"; xbits: isset,brute,track ip_src; '
                "sid:2;)\n")
    os.utime(rules_path, ns=(time.time_ns(), time.time_ns()))
    pq.write_table(mk([("a", 1, "login success", 100)]),
                   str(in_dir / "p1.parquet"))
    res2 = list(follow(str(in_dir), str(out_dir), None, build_lookups(),
                       EngineConfig(), poll_seconds=0.01,
                       idle_polls_to_stop=1, rules_path=rules_path))
    assert res2 and res2[0]["routed"] >= 1

    alert_dir = out_dir / "alerts"
    sids = set()
    for f in os.listdir(alert_dir):
        for r in pq.read_table(os.path.join(alert_dir, f)).to_pylist():
            sids.add(int(r["sid"]))
    assert 2 in sids, "reloaded rule did not fire on state set pre-reload"


def test_follow_loop_reload_parse_error_is_fatal(tmp_path):
    """A broken edit to the live rules file kills the loop loudly (the
    reference aborts on bad rules at reload), and the manifest makes the
    crashed poll replayable afterwards."""
    import os
    import time

    import pyarrow.parquet as pq
    import pytest

    from sagan_ray.rules.parser import RuleParseError
    from sagan_ray.sources.stream import follow

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    rules_path = str(tmp_path / "live.rules")
    good = ('alert any any any -> any any (msg:"m"; content:"login failed"; '
            "sid:1;)\n")
    with open(rules_path, "w") as f:
        f.write(good)
    pq.write_table(mk([("a", 0, "login failed", 0)]),
                   str(in_dir / "p0.parquet"))
    list(follow(str(in_dir), str(out_dir), None, build_lookups(),
                EngineConfig(), poll_seconds=0.01, idle_polls_to_stop=1,
                rules_path=rules_path))

    with open(rules_path, "a") as f:
        f.write("alert any any any -> any any (msg:\"broken\"; content:)\n")
    os.utime(rules_path, ns=(time.time_ns(), time.time_ns()))
    pq.write_table(mk([("a", 1, "login failed", 10)]),
                   str(in_dir / "p1.parquet"))
    with pytest.raises(RuleParseError):
        list(follow(str(in_dir), str(out_dir), None, build_lookups(),
                    EngineConfig(), poll_seconds=0.01,
                    idle_polls_to_stop=1, rules_path=rules_path))

    # fix the file: the crashed poll replays (p1 was never marked done)
    with open(rules_path, "w") as f:
        f.write(good)
    os.utime(rules_path, ns=(time.time_ns(), time.time_ns()))
    res = list(follow(str(in_dir), str(out_dir), None, build_lookups(),
                      EngineConfig(), poll_seconds=0.01,
                      idle_polls_to_stop=1, rules_path=rules_path))
    assert [r["files"] for r in res] == [["p1.parquet"]]


def test_state_dir_lock_blocks_concurrent_writer(tmp_path):
    """Two live writers on one state_dir: the second fails loudly (the
    xbit-redis-analog stance — concurrent instances must use distinct
    state dirs); a finished writer releases the lock."""
    import os
    import subprocess
    import sys
    import textwrap

    from sagan_ray.state.snapshot import acquire_state_lock

    sd = str(tmp_path / "state")
    lock = acquire_state_lock(sd)
    # same-process re-acquire via a CHILD process (flock is per-process),
    # importing this checkout's package
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {root!r})
        from sagan_ray.state.snapshot import (StateDirLockedError,
                                              acquire_state_lock)
        try:
            acquire_state_lock({sd!r})
            print("ACQUIRED")
        except StateDirLockedError:
            print("LOCKED")
    """)
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "LOCKED", out.stderr
    lock.close()
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ACQUIRED", out.stderr


def test_follow_loop_lookups_reload(tmp_path):
    """Enrichment-reload analog (the reference re-reads blacklist /
    intel files on SIGHUP alongside the rules): a blacklist file edit
    between polls changes which source IPs alert from the next poll
    on."""
    import os
    import time

    import pyarrow.parquet as pq

    from sagan_ray.config import Lookups
    from sagan_ray.functions.ip import CidrTable
    from sagan_ray.sources.stream import follow

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    rules = parse_rules(
        'alert any any any -> any any (msg:"bl"; content:"beacon"; '
        "parse_src_ip:1; blacklist: by_src; sid:7;)\n")
    bl_path = tmp_path / "blacklist.txt"
    bl_path.write_text("10.0.0.0/24\n")

    def loader():
        entries = [(line.strip(), "1")
                   for line in bl_path.read_text().splitlines()
                   if line.strip()]
        return Lookups(blacklist=CidrTable(entries))

    pq.write_table(mk([("a", 0, "beacon from 10.0.0.5", 0),
                       ("a", 1, "beacon from 192.168.1.5", 1)]),
                   str(in_dir / "p0.parquet"))
    res = list(follow(str(in_dir), str(out_dir), rules, None,
                      EngineConfig(), poll_seconds=0.01,
                      idle_polls_to_stop=1,
                      lookups_paths=[str(bl_path)],
                      lookups_loader=loader))
    assert res and res[0]["routed"] == 1        # only the 10.0.0.5 row

    # swap the blacklist: now the OTHER network is listed
    bl_path.write_text("192.168.1.0/24\n")
    os.utime(bl_path, ns=(time.time_ns(), time.time_ns()))
    pq.write_table(mk([("a", 2, "beacon from 10.0.0.5", 2),
                       ("a", 3, "beacon from 192.168.1.5", 3)]),
                   str(in_dir / "p1.parquet"))
    res2 = list(follow(str(in_dir), str(out_dir), rules, None,
                       EngineConfig(), poll_seconds=0.01,
                       idle_polls_to_stop=1,
                       lookups_paths=[str(bl_path)],
                       lookups_loader=loader))
    assert res2 and res2[0]["routed"] == 1

    alert_dir = out_dir / "alerts"
    hits = set()
    for f in os.listdir(alert_dir):
        for r in pq.read_table(os.path.join(alert_dir, f)).to_pylist():
            hits.add((r["conv_id"], r["turn_idx"]))
    assert hits == {("a", 0), ("a", 3)}
