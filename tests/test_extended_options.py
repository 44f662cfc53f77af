"""json_decode_base64, flexbit port-tracked directions, EVE log-all."""

import base64
import json

from .helpers import run_both
from .test_correlation import mk, hits_of


def test_json_decode_base64():
    secret = base64.b64encode(b"attack-string").decode()
    rules = """
alert any any any -> any any (msg:"b64"; json_content:".payload","attack-string"; json_decode_base64; sid:1;)
alert any any any -> any any (msg:"b64 contains"; json_content:".payload","tack"; json_contains; json_decode_base64; sid:2;)
alert any any any -> any any (msg:"raw miss"; json_content:".payload","attack-string"; sid:3;)
"""
    tbl = mk([
        ("a", 0, json.dumps({"payload": secret}), 0),
        ("a", 1, json.dumps({"payload": "attack-string"}), 10),
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2), ("a", 1, 3)]


def test_flexbit_port_directions():
    rules = """
alert any any any -> any any (msg:"set"; content:"conn from"; parse_src_ip:1; parse_dst_ip:2; parse_port; flexbits: set,fp,300; flexbit_noalert; sid:1;)
alert any any any -> any any (msg:"isset both_p"; content:"check"; parse_src_ip:1; parse_dst_ip:2; parse_port; flexbits: isset,both_p,fp; sid:2;)
"""
    tbl = mk([
        ("a", 0, "conn from 1.2.3.4:10 to 5.6.7.8:20", 0),
        ("a", 1, "check 1.2.3.4:10 then 5.6.7.8:20", 10),    # same endpoints+ports
        ("a", 2, "check 1.2.3.4:99 then 5.6.7.8:20", 20),    # src port differs
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 1, 2)]


def test_eve_log_all_rows():
    import ray.data as rd

    from sagan_ray.io.sinks import eve_log_all
    from sagan_ray.synth import gen_transcripts

    tbl = gen_transcripts(300, seed=11)
    out = eve_log_all(rd.from_arrow(tbl)).to_pandas()
    assert len(out) == len(tbl)
    rec = json.loads(out["eve"].iloc[0])
    assert rec["event_type"] == "log" and "payload" in rec


def test_json_map_fields():
    import json as _json

    rules = """
alert any any any -> any any (msg:"mapped eid"; json_map:"event_id",".eid"; event_id: 777; sid:10;)
alert any any any -> any any (msg:"mapped ip geo"; json_map:"src_ip",".client"; country_code: track by_src, is RU; sid:11;)
alert any any any -> any any (msg:"mapped user after"; json_map:"username",".u"; json_content:".act","fail"; after: track by_username, count 1, seconds 600; sid:12;)
"""
    tbl = mk([
        ("a", 0, _json.dumps({"eid": 777, "x": 1}), 0),
        ("a", 1, _json.dumps({"eid": 778}), 5),
        ("a", 2, _json.dumps({"client": "203.0.113.5", "act": "x"}), 10),   # RU range
        ("a", 3, _json.dumps({"client": "10.0.1.1", "act": "x"}), 15),      # US range
        ("a", 4, _json.dumps({"u": "kate", "act": "fail"}), 20),  # after count 1 → suppressed first
        ("a", 5, _json.dumps({"u": "kate", "act": "fail"}), 25),  # second → alert
        ("a", 6, _json.dumps({"u": "leo", "act": "fail"}), 30),   # different user key
    ])
    oracle, engine = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 10), ("a", 2, 11),
                               ("a", 4, 12), ("a", 5, 12), ("a", 6, 12)]
    r = engine.routed().to_pandas()
    emitted = sorted(r[r.sid == 12]["turn_idx"].astype(int))
    assert emitted == [5]   # per-username after keys: kate alerts on 2nd, leo suppressed


def test_flow_gate_without_parse_options():
    """Regression (round-2 ADVICE high): a proto/port header gate on a rule
    with no parse_*/IP options must still gate — the classifier once skipped
    the residual entirely for such rules and emitted false alerts."""
    rules = """
alert tcp any any -> any any (msg:"bare proto"; content:"conn"; sid:1;)
alert tcp any any -> any any (msg:"proto inferred"; content:"conn"; parse_proto; sid:2;)
alert udp any any -> any any (msg:"proto mismatch"; content:"conn"; parse_proto; sid:3;)
alert any any any -> any 22 (msg:"bare dport"; content:"conn"; sid:4;)
alert any any any -> any 22 (msg:"dport default"; content:"conn"; default_dst_port:22; sid:5;)
alert tcp any any -> any any (msg:"default proto"; content:"plainline"; default_proto:tcp; sid:6;)
"""
    tbl = mk([
        ("a", 0, "conn opened via ssh", 0),      # infer→tcp: sid 2, 5
        ("a", 1, "conn plain no proto", 10),     # no proto: sid 5 only
        ("a", 2, "plainline here", 20),          # sid 6 (default_proto)
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 2), ("a", 0, 5), ("a", 1, 5), ("a", 2, 6)]


def test_event_id_json_fallback():
    """Regression (round-2 ADVICE medium): the oracle falls back to the
    flattened JSON ``.event_id`` key when head extraction fails
    (evaluator.py:226-228); the vectorized path must too."""
    rules = """
alert any any any -> any any (msg:"eid"; event_id: 4625; sid:1;)
alert any any any -> any any (msg:"eid2"; event_id: 4625,4624; sid:2;)
"""
    tbl = mk([
        ("a", 0, "4625: authentication failure", 0),           # head window
        ("a", 1, json.dumps({"event_id": "4625", "x": 1}), 10),  # JSON fallback
        ("a", 2, json.dumps({"event_id": 4624}), 20),            # int → "4624"
        ("a", 3, json.dumps({"other": "4625"}), 30),             # no key → miss
        ("a", 4, "prefix pushes 4625: out of the head window", 40),
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2), ("a", 1, 1),
                               ("a", 1, 2), ("a", 2, 2)]


def test_json_map_message_program_remap():
    """json_map of message/program (engine.c:321-488, restored per rule
    at 1514-1529): text predicates run against the remapped message, the
    prematch against the remapped program; non-JSON rows keep originals."""
    rules = """
alert any any any -> any any (msg:"m"; json_map:"message",".payload"; content:"attack"; sid:1;)
alert any any any -> any any (msg:"p"; json_map:"program",".prog"; program:"daemon"; content:"x"; sid:2;)
alert any any any -> any any (msg:"m2"; json_map:"message",".payload"; content:"payload"; sid:3;)
"""
    tbl = mk([
        ("a", 0, json.dumps({"payload": "axe attack", "prog": "daemon"}), 0),
        # non-JSON: original text/role evaluate (role is 'assistant')
        ("a", 1, "plain attack text", 10),
        ("a", 2, json.dumps({"payload": "benign"}), 20),
        # key absent → no remap → original JSON text matches "payload"
        ("a", 3, json.dumps({"other": 1, "note": "payload here"}), 30),
    ])
    oracle, _ = run_both(rules, tbl)
    # sid1: row0 remapped ("axe attack"), row1 original text
    # sid2: row0 only (remapped program 'daemon', text contains 'x')
    # sid3: row0 remapped has no 'payload'; rows 2 ("payload" in raw JSON
    # is remapped away → no) — row2 remaps to "benign" → no; row3 no
    # remap → raw JSON contains 'payload'
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2), ("a", 1, 1),
                               ("a", 3, 3)]


def test_bluedot_kinds_parity():
    """Offline bluedot category snapshot (bluedot.c:736-1648 analog):
    category of the looked-up value must be in the rule's list."""
    import hashlib

    bad_md5 = hashlib.md5(b"bad0").hexdigest()
    ransom_md5 = hashlib.md5(b"bad1").hexdigest()
    rules = """
alert any any any -> any any (msg:"bd src"; content:"beacon"; parse_src_ip:1; bluedot: type ip_reputation, track by_src, none, TOR; sid:1;)
alert any any any -> any any (msg:"bd all"; content:"beacon"; bluedot: type ip_reputation, track all, mdate_effective_period 1 month, PROXY,TOR; sid:2;)
alert any any any -> any any (msg:"bd hash"; content:"scan"; bluedot: type file_hash, MALICIOUS; sid:3;)
alert any any any -> any any (msg:"bd file"; content:"found"; bluedot: type filename, MALICIOUS; sid:4;)
alert any any any -> any any (msg:"bd ja3"; bluedot: type ja3, MALICIOUS; sid:5;)
"""
    tbl = mk([
        ("a", 0, "beacon to 10.13.7.7:99 now", 0),          # TOR ip → 1, 2
        ("a", 1, "beacon to 10.66.1.2:99 now", 10),         # PROXY → 2 only
        ("a", 2, "beacon to 10.1.1.1:99 now", 20),          # uncategorized
        ("a", 3, f"malware scan md5 {bad_md5} found in payload.bin", 30),  # 3, 4
        ("a", 4, f"malware scan md5 {ransom_md5} ok", 40),   # RANSOMWARE ∉ rule → no
        ("a", 5, json.dumps({"ja3": "e7d705a3286e19ea42f587b344ee6865"}), 50),  # 5
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2), ("a", 1, 2),
                               ("a", 3, 3), ("a", 3, 4), ("a", 5, 5)]


def test_dynamic_load_two_pass(tmp_path):
    """dynamic_load (dynamic-rules.c:61-185): a firing detection rule
    loads its ruleset for pass 2; a non-firing one loads nothing."""
    import ray.data as rd

    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine_dynamic
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups

    extra = tmp_path / "extra.rules"
    extra.write_text('alert any any any -> any any (msg:"x"; content:"beta"; sid:20;)\n')
    never = tmp_path / "never.rules"
    never.write_text('alert any any any -> any any (msg:"y"; content:"gamma"; sid:21;)\n')
    rules = parse_rules(f"""
alert any any any -> any any (msg:"fire"; content:"alpha"; dynamic_load: {extra}; sid:10;)
alert any any any -> any any (msg:"nofire"; content:"zzz-not-present"; dynamic_load: {never}; sid:11;)
""")
    tbl = mk([("a", 0, "alpha here", 0), ("a", 1, "beta here", 10),
              ("a", 2, "gamma here", 20)])
    eng, loaded = run_engine_dynamic(rd.from_arrow(tbl), rules,
                                     build_lookups(), EngineConfig(),
                                     batch_size=64)
    assert loaded == [str(extra)]
    got = eng.hit_counts()
    # detection still hits in pass 2; extra sid 20 hits; never-loaded 21
    # absent even though 'gamma' is present
    assert got == {10: 1, 20: 1}


def _offload_retry(text, role, tool, now):
    return "retry=" in text


def _offload_stringy(text, role, tool, now):
    return "TRUE" if role == "assistant" else "nope"


def _offload_boom(text, role, tool, now):
    raise RuntimeError("backend down")


def test_offload_local_predicate():
    """offload analog (src/offload.c:47-167): registered local UDF gates
    the rule; stringy responses use the stristr-'true' contract; unknown
    or raising predicates fail the rule (curl-failure path)."""
    from sagan_ray.synth import build_lookups

    lk = build_lookups()
    lk.offload = {"retry": _offload_retry, "stringy": _offload_stringy,
                  "boom": _offload_boom}
    rules = """
alert any any any -> any any (msg:"o1"; content:"ERROR"; offload: location retry; sid:1;)
alert any any any -> any any (msg:"o2"; content:"ERROR"; offload: stringy; sid:2;)
alert any any any -> any any (msg:"o3"; content:"ERROR"; offload: boom; sid:3;)
alert any any any -> any any (msg:"o4"; content:"ERROR"; offload: unregistered; sid:4;)
"""
    tbl = mk([
        ("a", 0, "ERROR: sort failed with timeout after 3s retry=1", 0),
        ("a", 1, "ERROR: no retries here", 10),
    ])
    oracle, _ = run_both(rules, tbl, lookups=lk)
    # mk() gives every row role 'assistant' → stringy passes both rows
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2), ("a", 1, 2)]


def test_meta_content_windows_and_aliases():
    """meta_offset/depth/distance/within mirror the content window quirks
    (meta-content.c:74-130); syslog_* prematch aliases map to the tool
    column; pri ≡ priority; parse_proto_program infers from role."""
    import pyarrow as pa

    from sagan_ray.rules import parse_rules

    rules = """
alert any any any -> any any (msg:"mw off"; meta_content:"%sagan%",beta,zeta; meta_offset:6; sid:1;)
alert any any any -> any any (msg:"mw depth"; meta_content:"%sagan%",beta; meta_depth:8; sid:2;)
alert any any any -> any any (msg:"chain"; meta_content:"%sagan%",alpha; meta_depth:5; meta_content:"%sagan%",gamma; meta_distance:1; sid:3;)
alert any any any -> any any (msg:"alias"; syslog_facility:"daemon"; content:"alpha"; pri:3; sid:4;)
alert tcp any any -> any any (msg:"ppp"; content:"alpha"; parse_proto_program; sid:5;)
"""
    rs = parse_rules(rules)
    assert rs.rules[3].priority == 3 and rs.rules[3].facility == "daemon"
    assert rs.rules[4].parse_proto_program

    from datetime import datetime, timedelta

    from sagan_ray.synth import SCHEMA

    rows = [
        # "alpha beta gamma": beta starts at 6 → meta_offset 6 hits sid1;
        # depth 8 keeps first 9 chars "alpha bet" → no "beta"? "alpha bet"
        # lacks full "beta"... chars 0..8 = "alpha bet" → miss for sid2
        ("a", 0, "alpha beta gamma", "assistant", "daemon", 0),
        # sid3: atom1 "alpha" in depth-5 window "alpha " (depth 5 → first
        # 6 chars); atom2 distance 1 → window starts at 5+1+1=7 →
        # "eta gamma" contains gamma → hit
        ("a", 1, "alpha beta gamma x", "assistant", "", 10),
        # ssh role → parse_proto_program infers tcp → sid5 matches
        ("a", 2, "alpha", "ssh", "", 20),
        # plain role → no proto → sid5 misses
        ("a", 3, "alpha", "assistant", "", 30),
    ]
    T0 = datetime(2024, 3, 1)
    tbl = pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": [r[3] for r in rows],
        "text": pa.array([r[2] for r in rows], pa.large_string()),
        "tool": [r[4] for r in rows],
        "ts": [T0 + timedelta(seconds=r[5]) for r in rows],
    }, schema=SCHEMA)
    oracle, _ = run_both(rs, tbl)
    got = hits_of(oracle)
    assert ("a", 0, 1) in got          # offset window finds beta
    assert ("a", 0, 2) not in got      # depth window cuts beta short
    assert ("a", 1, 3) in got          # chained distance window
    assert ("a", 0, 4) in got          # syslog_facility alias vs tool
    assert ("a", 2, 5) in got and ("a", 3, 5) not in got


def test_json_decode_base64_kind_variants():
    import base64

    secret = base64.b64encode(b"attack-string").decode()
    rules = """
alert any any any -> any any (msg:"meta b64"; json_meta_content:".p",attack-string,other; json_decode_base64_meta; sid:1;)
alert any any any -> any any (msg:"pcre b64"; json_pcre:".p","/attack-s/"; json_decode_base64_pcre; sid:2;)
"""
    tbl = mk([("a", 0, json.dumps({"p": secret}), 0)])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1), ("a", 0, 2)]


def test_pcre_char_class_no_false_literal():
    """Regression (self-review): _required_literals must not treat a
    character class's contents as a required literal — '/foo[abcd]bar/'
    matches 'fooabar' which contains no 'abcd' substring."""
    from sagan_ray.stages.classify import _required_literals

    assert _required_literals(r"foo[abcd]bar") is None
    assert _required_literals(r"x[^y]z after more text") is None
    rules = """
alert any any any -> any any (msg:"cls"; pcre:"/fail[aeiou]d log/"; sid:1;)
"""
    tbl = mk([
        ("a", 0, "failed login attempt failid log", 0),
        ("a", 1, "no vowels here", 10),
    ])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1)]


def test_pcre_escape_literal_extraction():
    """Regression (self-review round 2): hex/octal escapes must not leak
    pseudo-literals into the RE2 prefilter; \\d-style classes still allow
    the surrounding runs."""
    from sagan_ray.stages.classify import _required_literals

    assert _required_literals(r"\x0d\x0aSTOPHERE") == (("STOPHERE",), False)
    assert _required_literals(r"\101ABCDEFGH") is None          # octal
    assert _required_literals(r"timeout after \d+s") == (("timeout after ",),
                                                          False)
    rules = """
alert any any any -> any any (msg:"hex"; pcre:"/\\x2aSTARRED\\x2a block/"; sid:1;)
"""
    tbl = mk([("a", 0, "*STARRED* block here", 0), ("a", 1, "STARRED without stars block", 10)])
    oracle, _ = run_both(rules, tbl)
    assert hits_of(oracle) == [("a", 0, 1)]
