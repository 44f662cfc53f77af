"""Wire-format parsers, sink writer, checkpoint/resume, events adapter."""

import json
import os

import pyarrow as pa
import pytest


def test_parse_pipe_batch_fields_and_malformed():
    from sagan_ray.sources.wire import parse_pipe_batch

    lines = [
        "conv-1|0|user|bash|2024-03-01T12:00:00|hello world",
        "conv-1|1|assistant||2024-03-01 12:00:05.250|with|pipes|in|text",
        "garbage line no pipes",
        "conv-2|notanint|user||2024-03-01T12:00:00|x",
        "conv-3|2|user||badts|y",
    ]
    out = parse_pipe_batch(pa.table({"text": lines}))
    d = out.to_pylist()
    assert d[0]["conv_id"] == "conv-1" and d[0]["turn_idx"] == 0
    assert d[0]["text"] == "hello world" and not d[0]["malformed"]
    # message may itself contain pipes (split limited to 6 fields)
    assert d[1]["text"] == "with|pipes|in|text" and not d[1]["malformed"]
    assert d[1]["ts"].microsecond == 250000
    assert d[2]["malformed"] and d[2]["text"] == "garbage line no pipes"
    assert d[3]["malformed"] and d[4]["malformed"]


def test_parse_json_batch_with_map():
    from sagan_ray.sources.wire import parse_json_batch

    lines = [
        json.dumps({"c": "a", "i": 3, "who": "user", "msg": "hi",
                    "when": "2024-03-01T00:00:00"}),
        "not json at all",
        json.dumps({"c": "b", "i": 0, "who": "tool", "msg": "x",
                    "when": "2024-03-01T00:00:01", "extra": {"deep": "v"}}),
    ]
    fmap = {"conv_id": ".c", "turn_idx": ".i", "role": ".who",
            "text": ".msg", "ts": ".when", "tool": ".extra.deep"}
    out = parse_json_batch(pa.table({"text": lines}), field_map=fmap).to_pylist()
    assert out[0]["conv_id"] == "a" and out[0]["turn_idx"] == 3
    assert not out[0]["malformed"]
    assert out[1]["malformed"]
    assert out[2]["tool"] == "v"


def test_parse_json_fast_path_parity():
    """The batched pyarrow.json fast path must produce byte-identical
    tables to the per-row loop (its semantics spec) on every batch it
    accepts, and decline (return None → fallback) on batches that don't
    fit the canonical shape."""
    import sagan_ray.sources.wire as w
    from sagan_ray.sources.wire import DEFAULT_JSON_MAP, parse_json_batch

    good = [json.dumps({"conv_id": f"c{i}", "turn_idx": i % 7,
                        "role": "user" if i % 2 else "assistant",
                        "tool": "" if i % 3 else "bash",
                        "ts": f"2024-03-01T12:00:{i % 60:02d}",
                        "text": f'payload "{i}" with \\ and \n escape'})
            for i in range(50)]
    # rows the canonical shape still covers: missing optional keys,
    # missing conv_id/text (malformed), null values, extra keys
    good += [json.dumps({"conv_id": "x", "text": "no ts or turn"}),
             json.dumps({"turn_idx": 5, "text": "missing conv -> bad"}),
             json.dumps({"conv_id": "y", "text": "t", "ts": "not a date"}),
             json.dumps({"conv_id": "z", "text": "t", "ts": None,
                         "extra": {"nested": [1, 2]}})]
    tbl = pa.table({"text": pa.array(good, pa.large_string())})
    fast = w._parse_json_fast(tbl.column("text").combine_chunks(),
                              DEFAULT_JSON_MAP)
    assert fast is not None, "canonical batch must take the fast path"
    orig = w._fast_map_ok
    w._fast_map_ok = lambda f: False
    try:
        slow = parse_json_batch(tbl)
    finally:
        w._fast_map_ok = orig
    assert fast.equals(slow)
    assert parse_json_batch(tbl).equals(slow)

    # shapes the fast path must DECLINE (fallback handles them):
    # malformed line, string turn_idx, numeric epoch ts, non-dict line
    for bad_line in ["not json", '{"conv_id":"a","turn_idx":"3","text":"s"}',
                     '{"conv_id":"a","ts":1609459200,"text":"s"}', "[1,2]"]:
        t = pa.table({"text": pa.array(good[:3] + [bad_line], pa.large_string())})
        assert w._parse_json_fast(t.column("text").combine_chunks(),
                                  DEFAULT_JSON_MAP) is None
        # ...and the public entry point still parses it identically to
        # the per-row loop
        w._fast_map_ok = lambda f: False
        try:
            slow = parse_json_batch(t)
        finally:
            w._fast_map_ok = orig
        assert parse_json_batch(t).equals(slow)

    # maps with alternatives / %JSON% / nested paths never take the
    # fast path
    assert not w._fast_map_ok({"conv_id": ".a|.b", "text": ".t"})
    assert not w._fast_map_ok({"conv_id": ".c", "text": "%JSON%"})
    assert not w._fast_map_ok({"conv_id": ".c", "tool": ".extra.deep"})
    assert w._fast_map_ok(DEFAULT_JSON_MAP)


def test_json_turn_idx_outside_int32_is_malformed():
    """A JSON turn_idx outside int32 marks the row malformed with turn 0,
    as in the pipe parser; both int32 bounds stay valid. Checked on both
    paths: the fast path takes the in-range rows alone and declines the
    whole batch, and the per-row loop decides it."""
    import numpy as np

    import sagan_ray.sources.wire as w

    lo, hi = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)
    turns = [lo, hi, lo - 1, hi + 1, 372369790981]
    want = [(lo, False), (hi, False), (0, True), (0, True), (0, True)]
    col = pa.array([json.dumps({"conv_id": "c", "turn_idx": v, "text": "x"})
                    for v in turns], pa.large_string())

    def rows(t):
        return [(r["turn_idx"], r["malformed"]) for r in t.to_pylist()]

    fast = w._parse_json_fast(col[:2], w.DEFAULT_JSON_MAP)
    assert fast is not None and rows(fast) == want[:2]
    assert w._parse_json_fast(col, w.DEFAULT_JSON_MAP) is None
    assert rows(w.parse_json_batch(pa.table({"text": col}))) == want
    orig = w._fast_map_ok
    w._fast_map_ok = lambda f: False
    try:
        for i in range(len(turns)):
            one = w.parse_json_batch(pa.table({"text": col[i:i + 1]}))
            assert rows(one) == want[i:i + 1]
    finally:
        w._fast_map_ok = orig


def test_json_map_percent_json_keeps_raw():
    from sagan_ray.sources.wire import parse_json_batch

    line = json.dumps({"c": "a", "x": 1})
    fmap = {"conv_id": ".c", "text": "%JSON%"}
    out = parse_json_batch(pa.table({"text": [line]}), field_map=fmap).to_pylist()
    assert out[0]["text"] == line


def test_b64_column_matches_stdlib_and_eve_base64_option():
    """Vectorized base64 (io.sinks.b64_column) must be byte-equal to
    per-row base64.b64encode across every padding class, and the EVE
    'alerts-base64' analog (json-handler.c:102,155) must emit a payload
    that decodes back to the raw text."""
    import base64

    import numpy as np

    from sagan_ray.io.sinks import b64_column, eve_format_batch

    rng = np.random.default_rng(3)
    vals = [b"", b"a", b"ab", b"abc", b"abcd", bytes(range(256))]
    vals += [rng.integers(0, 256, size=int(k)).astype(np.uint8).tobytes()
             for k in rng.integers(0, 300, size=200)]
    col = pa.array(vals, pa.large_binary())
    assert b64_column(col).to_pylist() == \
        [base64.b64encode(v).decode() for v in vals]
    # sliced (non-zero array offset) input
    assert b64_column(col.slice(3, 50)).to_pylist() == \
        [base64.b64encode(v).decode() for v in vals[3:53]]

    text = 'payload "quoted" \n multi\tline \\ backslash'
    tbl = pa.table({"ts_epoch": pa.array([1700000000], pa.int64()),
                    "conv_id": ["c1"], "turn_idx": pa.array([2], pa.int32()),
                    "src_ip": ["1.2.3.4"], "src_port": pa.array([10], pa.int32()),
                    "dst_ip": ["5.6.7.8"], "dst_port": pa.array([20], pa.int32()),
                    "sid": pa.array([9], pa.int64()), "role": ["user"],
                    "tool": [""], "text": [text]})
    rec = json.loads(eve_format_batch(tbl, payload_base64=True)
                     .column("eve")[0].as_py())
    assert base64.b64decode(rec["payload"]).decode() == text
    # default stays escaped-raw
    rec_raw = json.loads(eve_format_batch(tbl).column("eve")[0].as_py())
    assert rec_raw["payload"] == text


def test_stats_json_delta_mode_two_polls(ray_session, tmp_path):
    """stats-json delta mode (stats-json.c subtract_old_values): two
    sequential follow-loop polls; the delta snapshot after poll 2 must
    equal a fresh snapshot over poll 2's increment alone (stateless
    counters are additive), while gauge fields stay absolute."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.aggregates import stats_snapshot
    from sagan_ray.pipelines.engine import input_counters, run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups, gen_transcripts

    rules = parse_rules(
        'alert any any any -> any any (msg:"a"; content:"authentication failure"; sid:31;)\n'
        'alert any any any -> any any (msg:"e"; content:"ERROR"; sid:32;)')
    cfg = EngineConfig()
    lk = build_lookups()
    tbl = gen_transcripts(2000, seed=21)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pq.write_table(tbl.slice(0, 1200), str(in_dir / "part-000.parquet"))

    def cumulative_snapshot(prev=None):
        files = sorted(str(p) for p in in_dir.iterdir())
        ds = rd.read_parquet(files)
        eng = run_engine(ds, rules, lk, cfg)
        return stats_snapshot(input_counters(ds, cfg), eng, prev=prev)

    snap1 = cumulative_snapshot()                   # poll 1: absolute
    pq.write_table(tbl.slice(1200), str(in_dir / "part-001.parquet"))
    delta = cumulative_snapshot(prev=snap1)         # poll 2: delta mode

    # expected delta = a standalone run over the increment only
    inc = rd.read_parquet(str(in_dir / "part-001.parquet"))
    eng_inc = run_engine(inc, rules, lk, cfg)
    want = stats_snapshot(input_counters(inc, cfg), eng_inc)

    for k in ("events_received", "events_processed", "null_message",
              "ignored", "saganfound"):
        assert delta[k] == want[k], k
    assert delta["alerts_per_sink"] == {
        s: want["alerts_per_sink"].get(s, 0)
        for s in delta["alerts_per_sink"]}
    # gauges stay absolute, never subtracted
    assert delta["rules_total"] == 2
    assert delta["rules_fired"] >= want["rules_fired"]


def test_events_adapter_deterministic_and_sql_consistent(tmp_path):
    """The adapter's rendering must equal its documented SQL."""
    import duckdb

    from sagan_ray.sources.events import (
        EVENTS_AS_TRANSCRIPTS_SQL,
        read_events_as_transcripts,
    )

    sf = "/root/testdata/sf0.001"
    got = (read_events_as_transcripts(sf).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    want = (con.execute(EVENTS_AS_TRANSCRIPTS_SQL).df()
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert list(got["conv_id"]) == list(want["conv_id"])
    assert list(got["turn_idx"]) == list(want["turn_idx"])
    assert list(got["text"]) == list(want["text"])


def test_write_sinks_and_resume(tmp_path):
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import write_sinks
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import gen_transcripts

    rules = parse_rules(
        'alert any any any -> any any (msg:"m"; content:"login"; email:a@b; sid:1;)')
    tbl = gen_transcripts(1500, seed=3)
    eng = run_engine(rd.from_arrow(tbl), rules, None, EngineConfig(),
                     batch_size=512)
    out = str(tmp_path / "sinks")
    counts = write_sinks(eng, out)
    assert set(counts) == {"alert", "fast", "eve", "syslog", "email"}
    assert len(set(counts.values())) == 1  # same alerts in every sink
    assert os.path.exists(os.path.join(out, "sink=alert"))
    # resume: second call is a no-op served from the manifest
    again = write_sinks(eng, out)
    assert again == counts


SINK_RULES = (
    'alert any any any -> any any (msg:"m"; content:"login"; email:a@b; sid:1;)\n'
    'alert any any any -> any any (msg:"t"; content:"user"; '
    'threshold: type limit, track by_src, count 2, seconds 600; sid:2;)')


def _sink_engine(config=None):
    """A run over gen_transcripts(1500, seed=3) with a stateless rule that
    reaches the email sink and a stateful one, so the exchange's map-side
    and reduce-side blocks both carry routed rows."""
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import gen_transcripts

    return run_engine(rd.from_arrow(gen_transcripts(1500, seed=3)),
                      parse_rules(SINK_RULES), None,
                      config or EngineConfig(), batch_size=512)


def _rows(path):
    import collections

    import pyarrow.parquet as pq

    return collections.Counter(
        tuple(r.values()) for r in pq.read_table(path).to_pylist())


def _inodes(path):
    return {f: os.stat(os.path.join(path, f)).st_ino for f in os.listdir(path)}


def test_write_sinks_sweeps_stage_and_rewrites_nothing(tmp_path, monkeypatch):
    """A staging dir stranded by a crashed run is swept, and a second
    call over a finished out dir launches no write task."""
    from sagan_ray.io import sinks

    eng = _sink_engine()
    out = str(tmp_path / "sinks")
    counts = sinks.write_sinks(eng, out, thin=True)
    before = {e: _inodes(os.path.join(out, e)) for e in os.listdir(out)
              if "=" in e}
    assert set(before) == {"part=payload"} | {f"sink={s}" for s in counts}
    os.makedirs(os.path.join(out, "_stage_dead"))

    class NoTask:
        def remote(self, *args):
            raise AssertionError("a done out dir launched a write task")

    monkeypatch.setattr(sinks, "_write_block", NoTask())
    assert sinks.write_sinks(eng, out, thin=True) == counts
    assert not any(e.startswith("_stage_") for e in os.listdir(out))
    assert {e: _inodes(os.path.join(out, e)) for e in before} == before


def test_eve_format():
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import eve_format_batch
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import gen_transcripts

    rules = parse_rules('alert any any any -> any any (msg:"m"; content:"login"; sid:7;)')
    eng = run_engine(rd.from_arrow(gen_transcripts(800, seed=4)), rules,
                     None, EngineConfig(), batch_size=512)
    evedf = eng.routed().map_batches(eve_format_batch,
                                     batch_format="pyarrow").to_pandas()
    assert len(evedf) > 0
    rec = json.loads(evedf["eve"].iloc[0])
    assert rec["event_type"] == "alert" and rec["alert"]["signature_id"] == 7
    assert rec["payload"]  # byte-preserved message rides along


def test_pipe_wire_to_engine_end_to_end(tmp_path):
    """Raw pipe-format lines → wire parse → malformed filter → full engine:
    the File_Input → SyslogInput_Pipe → Sagan_Engine flow (SURVEY §3.1)."""
    import pyarrow.compute as pc

    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.sources.wire import read_pipe_lines

    lines = [
        "conv-a|0|user|bash|2024-03-01T10:00:00|login failed from 1.2.3.4:22",
        "conv-a|1|assistant||2024-03-01T10:00:05|login success",
        "garbage without pipes",
        "conv-b|0|user||2024-03-01T10:00:00|nothing interesting",
    ]
    p = tmp_path / "wire.log"
    p.write_text("\n".join(lines))

    rules = parse_rules("""
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,b,track ip_src; sid:1;)
alert any any any -> any any (msg:"isset"; content:"login success"; xbits: isset,b,track ip_src; sid:2;)
""")
    records = read_pipe_lines(str(p)).map_batches(
        lambda t: t.filter(pc.invert(t.column("malformed").combine_chunks()))
                   .drop_columns(["malformed"]),
        batch_format="pyarrow")
    eng = run_engine(records, rules, None, EngineConfig(), batch_size=64)
    routed = eng.routed().to_pandas()
    got = sorted(zip(routed["conv_id"], routed["turn_idx"].astype(int),
                     routed["sid"].astype(int)))
    assert got == [("conv-a", 0, 1), ("conv-a", 1, 2)]


def test_load_json_map_file(tmp_path):
    """Load_Input_JSON_Map analog (input-json-map.c:47-850): software
    selection, |-alternatives, %JSON% passthrough."""
    import json as _json

    import pyarrow as pa

    from sagan_ray.sources.wire import load_json_map, parse_json_batch

    mp = tmp_path / "json-input.map"
    mp.write_text(
        "# comment\n"
        '{"software": "other", "text": ".nope"}\n'
        '{"software": "suricata", "conv_id": ".flow_id|.conv", '
        '"role": ".etype", "text": "%JSON%", "ts": ".timestamp"}\n')
    fmap = load_json_map(str(mp), "suricata")
    assert fmap["conv_id"] == ".flow_id|.conv"
    assert fmap["text"] == "%JSON%"
    line1 = _json.dumps({"conv": "c9", "etype": "alert",
                         "timestamp": "2024-03-01T10:00:00", "turn_idx": 3})
    tbl = pa.table({"text": pa.array([line1], pa.large_string())})
    out = parse_json_batch(tbl, field_map=fmap).to_pylist()[0]
    assert out["conv_id"] == "c9"          # .flow_id absent → .conv wins
    assert out["role"] == "alert"
    assert out["text"] == line1            # %JSON% keeps the raw line
    assert not out["malformed"]
    import pytest

    with pytest.raises(ValueError):
        load_json_map(str(mp), "missing-software")


def test_pipe_parse_vectorized_parity_edges():
    """Vectorized pipe parse: sentinel handling for short lines, bad
    turn, bad ts, extra pipes in the message tail."""
    import pyarrow as pa

    from sagan_ray.sources.wire import parse_pipe_batch

    tbl = pa.table({"text": pa.array([
        "c1|4|user|bash|2024-03-01 10:00:00.250|hello world",
        "c2|x|user||2024-03-01T10:00:00|bad turn",
        "c3|1|user||not-a-time|bad ts",
        "no pipes at all",
        "c4|2|tool|grep|1709290000|tail|with|extra|pipes",
        None,
    ], pa.large_string())})
    out = parse_pipe_batch(tbl).to_pylist()
    assert [r["malformed"] for r in out] == [False, True, True, True, False, True]
    assert out[0]["conv_id"] == "c1" and out[0]["turn_idx"] == 4
    assert str(out[0]["ts"]).startswith("2024-03-01 10:00:00.250")
    assert out[3]["text"] == "no pipes at all"   # raw line preserved
    assert out[4]["text"] == "tail|with|extra|pipes"
    assert out[4]["ts"].year == 2024             # epoch fallback


def test_gzip_pipe_lines(tmp_path):
    """GZIP file input (reference File_Input reads .gz transparently):
    ray.data.read_text decompresses by extension; the pipe parser sees
    identical lines."""
    import gzip

    from sagan_ray.sources.wire import read_pipe_lines

    lines = [f"c{i % 3}|{i}|user|bash|2024-03-01T10:00:{i % 60:02d}|msg {i}"
             for i in range(200)]
    p = tmp_path / "wire.txt.gz"
    with gzip.open(p, "wt") as f:
        f.write("\n".join(lines) + "\n")
    out = read_pipe_lines(str(p)).to_pandas()
    assert len(out) == 200 and not out["malformed"].any()
    assert set(out["conv_id"]) == {"c0", "c1", "c2"}
    assert out["text"].iloc[0].startswith("msg ")


def test_write_sinks_rewrites_a_sink_not_done(tmp_path):
    """A sink the manifest marks not done, its dir left in place with a
    stale file in it (a crash after the unmark), is rewritten to the
    right rows; the done sinks are left as they are."""
    import pyarrow.parquet as pq

    from sagan_ray.io.sinks import RunManifest, write_sinks

    eng = _sink_engine()
    out = str(tmp_path / "sinks")
    counts = write_sinks(eng, out)
    alert, fast = os.path.join(out, "sink=alert"), os.path.join(out, "sink=fast")
    want, fast_files = _rows(alert), _inodes(fast)
    assert sum(want.values()) == counts["alert"] > 0
    RunManifest(out).unmark("sink=alert")
    pq.write_table(pq.read_table(alert).slice(0, 1),
                   os.path.join(alert, "stale.parquet"))
    assert write_sinks(eng, out) == counts
    assert "stale.parquet" not in os.listdir(alert)
    assert _rows(alert) == want
    assert RunManifest(out).done("sink=alert")
    assert _inodes(fast) == fast_files


@pytest.mark.parametrize("name", ["a/b", ".."], ids=["slash", "dotdot"])
def test_write_sinks_rejects_unsafe_sink_names(tmp_path, name):
    """A configured sink name becomes a dir name, so one that is not a
    plain path component raises before anything is written."""
    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import write_sinks

    eng = _sink_engine(EngineConfig(sinks=("alert", name)))
    with pytest.raises(ValueError, match="path component"):
        write_sinks(eng, str(tmp_path / "sinks"))
    assert not any(tmp_path.iterdir())


def test_output_side_runs_no_ray_data(tmp_path, monkeypatch):
    """Once run_engine has returned, write_sinks in both layouts and a
    follow-loop poll (whose engine run reads files, not a Dataset) write
    every routed row with Ray Data's map_batches and write_parquet made
    to raise."""
    import pyarrow.parquet as pq
    import ray.data

    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import write_sinks
    from sagan_ray.rules import parse_rules
    from sagan_ray.sources.stream import poll_once
    from sagan_ray.synth import gen_transcripts

    eng = _sink_engine()

    def no_ray_data(*args, **kwargs):
        raise AssertionError("the output side ran a Ray Data stage")

    monkeypatch.setattr(ray.data.Dataset, "map_batches", no_ray_data)
    monkeypatch.setattr(ray.data.Dataset, "write_parquet", no_ray_data)
    want = {}
    for (s, _), n in eng.routed_counts().items():
        want[s] = want.get(s, 0) + n
    assert set(want) == {"alert", "fast", "eve", "syslog", "email"}
    assert write_sinks(eng, str(tmp_path / "full")) == want
    assert write_sinks(eng, str(tmp_path / "thin"), thin=True) == want
    assert sum(_rows(str(tmp_path / "thin" / "part=payload")).values()) \
        == want["alert"]

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pq.write_table(gen_transcripts(1500, seed=3),
                   str(in_dir / "part-0.parquet"))
    res = poll_once(str(in_dir), str(tmp_path / "follow"),
                    parse_rules(SINK_RULES), None, EngineConfig(),
                    batch_size=512)
    assert res["routed"] == want["alert"]
    assert sum(_rows(str(tmp_path / "follow" / "alerts")).values()) \
        == want["alert"]


def test_write_sinks_thin_layout(tmp_path):
    """thin=True: per-sink dirs carry only fast.c-shaped metadata, the
    payload text lands once in part=payload/, and a re-join reproduces
    the full fan-out exactly."""
    import duckdb
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import THIN_ALERT_COLS, write_sinks
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import gen_transcripts

    rules = parse_rules(
        'alert any any any -> any any (msg:"m"; content:"login"; email:a@b; sid:1;)\n'
        'alert any any any -> any any (msg:"t"; content:"user"; '
        'threshold: type limit, track by_src, count 2, seconds 600; sid:2;)')
    tbl = gen_transcripts(1500, seed=3)

    def eng():
        return run_engine(rd.from_arrow(tbl), rules, None, EngineConfig(),
                          batch_size=512)

    full_dir = str(tmp_path / "full")
    thin_dir = str(tmp_path / "thin")
    counts_full = write_sinks(eng(), full_dir)
    counts_thin = write_sinks(eng(), thin_dir, thin=True)
    assert counts_thin == counts_full          # same per-sink row counts
    assert os.path.exists(os.path.join(thin_dir, "part=payload"))

    # thin sink rows carry no text; payload has it exactly once per alert
    import pyarrow.parquet as pq

    thin_alert = pq.read_table(os.path.join(thin_dir, "sink=alert"))
    assert "text" not in thin_alert.column_names
    assert set(THIN_ALERT_COLS) <= set(thin_alert.column_names)
    payload = pq.read_table(os.path.join(thin_dir, "part=payload"))
    n_alerts = counts_full["alert"]
    assert len(payload) == n_alerts

    # re-joining thin rows to the payload reproduces the full layout
    joined = duckdb.sql(f"""
        SELECT t.sink AS sink, t.sid AS sid, conv_id, turn_idx,
               p.text AS text
        FROM read_parquet('{thin_dir}/sink=*/*.parquet', hive_partitioning=1) t
        JOIN read_parquet('{thin_dir}/part=payload/*.parquet') p
        USING (conv_id, turn_idx, rule_idx)
        ORDER BY sink, t.sid, conv_id, turn_idx""").df()
    fulldf = duckdb.sql(f"""
        SELECT sink, sid, conv_id, turn_idx, text
        FROM read_parquet('{full_dir}/sink=*/*.parquet', hive_partitioning=1)
        ORDER BY sink, sid, conv_id, turn_idx""").df()
    assert joined.equals(fulldf)

    # resume: second thin call is a manifest no-op
    assert write_sinks(eng(), thin_dir, thin=True) == counts_thin

    # thin bytes: per-sink dirs shrink vs the full layout
    def dir_bytes(d, prefix):
        tot = 0
        for e in os.listdir(d):
            if e.startswith(prefix):
                p = os.path.join(d, e)
                tot += sum(os.path.getsize(os.path.join(p, f))
                           for f in os.listdir(p))
        return tot
    assert dir_bytes(thin_dir, "sink=") < dir_bytes(full_dir, "sink=")


def test_compact_corpus_partitioned_and_exact(tmp_path):
    """Compaction preserves rows exactly, shrinks file count, honors a
    hive partition layout, and refuses an empty input."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray.data as rd

    from sagan_ray.io.compact import _dir_stats, compact_corpus

    tbl = pa.table({
        "doc_id": pa.array(list(range(200)), pa.int64()),
        "grp": pa.array(["a" if i % 3 else "b" for i in range(200)]),
        "text": pa.array([f"doc {i} body" for i in range(200)]),
    })
    src = str(tmp_path / "in")
    rd.from_arrow(tbl).repartition(20).write_parquet(src,
                                                     max_rows_per_file=10)
    _, files_in = _dir_stats(src)
    assert files_in >= 10

    out = str(tmp_path / "out")
    res = compact_corpus(src, out, target_bytes=1 << 20,
                         partition_cols=["grp"])
    assert res["rows"] == 200 and res["files_out"] < files_in
    # hive layout present
    import os
    assert sorted(d for d in os.listdir(out) if d.startswith("grp=")) == [
        "grp=a", "grp=b"]
    back = pq.read_table(out).to_pandas()
    assert len(back) == 200
    assert sorted(back["doc_id"]) == list(range(200))
    # partition column round-trips (hive-encoded)
    assert (back.sort_values("doc_id")["grp"].tolist()
            == ["a" if i % 3 else "b" for i in range(200)])

    with pytest.raises(ValueError):
        compact_corpus(str(tmp_path / "empty"), str(tmp_path / "out2"))


def test_compact_corpus_clustered_files_are_range_disjoint(tmp_path):
    """order_by= clusters the rewrite: per-file parquet min/max stats on
    the sort key are pairwise disjoint, so a filtered read can prune
    whole files."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from sagan_ray.io.compact import compact_corpus

    n = 400
    tbl = pa.table({
        # ids deliberately scattered across input files
        "doc_id": pa.array([(i * 37) % n for i in range(n)], pa.int64()),
        "text": pa.array([f"body {i}" for i in range(n)]),
    })
    src = str(tmp_path / "in")
    rd.from_arrow(tbl).repartition(16).write_parquet(src)
    out = str(tmp_path / "out")
    res = compact_corpus(src, out, target_bytes=4 << 10,
                         order_by="doc_id")
    assert res["rows"] == n and res["files_out"] >= 2

    import os
    spans = []
    for f in os.listdir(out):
        if not f.endswith(".parquet"):
            continue
        md = pq.ParquetFile(os.path.join(out, f)).metadata
        col = md.schema.to_arrow_schema().get_field_index("doc_id")
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            mins.append(st.min)
            maxs.append(st.max)
        spans.append((min(mins), max(maxs)))
    spans.sort()
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert a_hi <= b_lo  # disjoint (equal only at a boundary tie)
    # content preserved
    back = pq.read_table(out)
    assert sorted(back["doc_id"].to_pylist()) == sorted(
        tbl["doc_id"].to_pylist())


def test_read_transcripts_lists_files_as_read_parquet_does(tmp_path):
    """``read_transcripts`` finds a directory's files as
    ``ray.data.read_parquet`` discovers them: recursive, sorted, skipping
    names that start with ``.`` or ``_`` (a ``_DONE`` marker, a hidden
    file, a ``_tmp`` dir); a list keeps its order. ``dataset()`` reads
    the same rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from sagan_ray.sources.transcripts import read_transcripts
    from sagan_ray.synth import gen_transcripts

    tbl = gen_transcripts(40, seed=1)
    for name in ["b.parquet", "a.parquet", ".hidden.parquet", "sub/c.parquet",
                 "sub/_x.parquet", "_tmp/d.parquet"]:
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        pq.write_table(tbl, str(path))
    (tmp_path / "_DONE").touch()
    src = read_transcripts(str(tmp_path))
    assert list(src.paths) == sorted(rd.read_parquet(str(tmp_path)).input_files())
    assert [os.path.relpath(p, tmp_path) for p in src.paths] == [
        "a.parquet", "b.parquet", os.path.join("sub", "c.parquet")]
    assert src.dataset().count() == 3 * len(tbl)
    pair = [str(tmp_path / "b.parquet"), str(tmp_path / "a.parquet")]
    assert read_transcripts(pair).paths == tuple(pair)
